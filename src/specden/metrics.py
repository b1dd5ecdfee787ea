"""Discrete distributions on the real line and the Wasserstein-1 metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import DiagonalOperator

# Largest dimension for which the dense eigendecomposition oracle is allowed:
# it holds one n x n float64 copy, 8n^2 bytes, 298 MB at the cap.
EXACT_DENSITY_CAP = 6100


class DistributionError(ValueError):
    pass


@dataclass
class DiscreteDistribution:
    """Finite list of (location, weight) atoms.

    Locations are sorted on construction, and atoms at equal locations merge
    into one whose weight is their sum, added in input order.  Weights must
    be finite, nonnegative and sum to 1 within 1e-9.
    """

    locations: np.ndarray
    weights: np.ndarray

    # Not a setting: construction rejects weights that do not sum to 1.  It
    # stays readable because perfbench/worker.py checks it on every estimate.
    normalized = True

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float).ravel()
        w = np.asarray(self.weights, dtype=float).ravel()
        if loc.shape != w.shape:
            raise DistributionError("locations and weights must have equal length")
        if loc.size == 0:
            raise DistributionError("distribution needs at least one atom")
        if not np.all(np.isfinite(loc)) or not np.all(np.isfinite(w)):
            raise DistributionError("atom locations and weights must be finite")
        if np.any(w < -1e-12):
            raise DistributionError("weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        loc, inverse = np.unique(loc, return_inverse=True)
        w = np.bincount(inverse, weights=w)
        if abs(w.sum() - 1.0) > 1e-9:
            raise DistributionError(f"weights sum to {w.sum():.12g}, expected 1")
        self.locations = loc
        self.weights = w

    @classmethod
    def point_mass(cls, x):
        return cls(np.array([float(x)]), np.array([1.0]))

    def mean_abs(self):
        return float(np.abs(self.locations) @ self.weights)

    def __len__(self):
        return self.locations.size


def wasserstein1(p, q):
    """Exact W1 between two discrete distributions on the line.

    Computed as the integral of |F_p - F_q| over the merged sorted support,
    which is the closed form of the 1-D transport problem.
    """
    for d in (p, q):
        if abs(d.weights.sum() - 1.0) > 1e-9:
            raise DistributionError("wasserstein1 requires normalized inputs")
    support = np.concatenate([p.locations, q.locations])
    support = np.unique(support)
    cdf_p = _cdf_at(p, support)
    cdf_q = _cdf_at(q, support)
    gaps = np.diff(support)
    return float(np.abs(cdf_p[:-1] - cdf_q[:-1]) @ gaps)


def _cdf_at(dist, points):
    idx = np.searchsorted(dist.locations, points, side="right")
    cumw = np.concatenate([[0.0], np.cumsum(dist.weights)])
    return cumw[idx]


def exact_density(A):
    """Uniform distribution over the eigenvalues of a concrete operator.

    A ``DiagonalOperator``'s eigenvalues are its sorted diagonal, at any
    dimension.  Any other operator is densified and decomposed, which is
    allowed up to dimension ``EXACT_DENSITY_CAP``; beyond that, fall back to
    sampling-based estimates.  The decomposition is LAPACK's ``dsyevd`` on the
    lower triangle, as ``np.linalg.eigvalsh`` runs it, but it overwrites the
    one column-major copy ``to_dense`` returns instead of copying it again, so
    it holds 8n^2 bytes.  Finiteness is not checked again here: each operator
    checks its stored entries at construction.
    """
    n = A.dimension
    if isinstance(A, DiagonalOperator):
        eigs = np.sort(A.diagonal)
    elif n > EXACT_DENSITY_CAP:
        raise DistributionError(
            f"dimension {n} exceeds the dense oracle cap {EXACT_DENSITY_CAP}; "
            "use a sampling estimate instead"
        )
    else:
        eigs = scipy.linalg.eigvalsh(
            A.to_dense(), lower=True, overwrite_a=True, check_finite=False, driver="evd"
        )
    return DiscreteDistribution(eigs, np.full(n, 1.0 / n))


def average_densities(densities):
    """Average a nonempty list of distributions: union of atoms, weights / k."""
    densities = list(densities)
    if not densities:
        raise DistributionError("cannot average an empty list")
    k = len(densities)
    loc = np.concatenate([d.locations for d in densities])
    w = np.concatenate([d.weights for d in densities]) / k
    return DiscreteDistribution(loc, w)
