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
    into one whose weight is their sum, added in input order; it sits at the
    first one's location, which only a merged 0.0 and -0.0 can tell apart.
    The merge is one stable argsort, a running count of the groups and a
    bincount, linear in the atoms when they come as a few sorted runs, as
    grid densities do.  Weights must be finite, nonnegative and sum to 1
    within 1e-9.
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
        # A stable sort keeps equal locations in input order, so bincount
        # adds each group's weights in input order.
        order = np.argsort(loc, kind="stable")
        loc = loc[order]
        first = np.empty(loc.size, dtype=bool)
        first[0] = True
        np.not_equal(loc[1:], loc[:-1], out=first[1:])
        group = _running_count(first)
        group -= 1
        loc = loc[first]
        w = np.bincount(group, weights=w[order])
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
    # Both atom lists are sorted, so a stable sort merges them in linear
    # time.  Each run of equal locations is one support point, and the atoms
    # of p up to the run's end are those at or below it: the index of F_p
    # there that searchsorted's right side would find, with no search.
    merged = np.concatenate([p.locations, q.locations])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    last = np.empty(merged.size, dtype=bool)
    last[-1] = True
    np.not_equal(merged[1:], merged[:-1], out=last[:-1])
    ends = np.flatnonzero(last)
    support = merged[ends]
    in_p = _running_count(order < len(p))[ends]
    cdf_p = _cumulative_weights(p)[in_p]
    cdf_q = _cumulative_weights(q)[ends + 1 - in_p]
    gaps = np.diff(support)
    return float(np.abs(cdf_p[:-1] - cdf_q[:-1]) @ gaps)


def _running_count(mask):
    """np.cumsum(mask) for a boolean mask, at about half its cost: numpy
    accumulates intp faster than it casts booleans while accumulating."""
    count = mask.astype(np.intp)
    return np.cumsum(count, out=count)


def _cumulative_weights(dist):
    """F at and past each atom, after a leading 0."""
    return np.concatenate([[0.0], np.cumsum(dist.weights)])


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
    """Average a nonempty list of distributions: union of atoms, weights / k.
    The average of one distribution is that distribution."""
    densities = list(densities)
    if not densities:
        raise DistributionError("cannot average an empty list")
    k = len(densities)
    if k == 1:
        return densities[0]
    loc = np.concatenate([d.locations for d in densities])
    w = np.concatenate([d.weights for d in densities]) / k
    return DiscreteDistribution(loc, w)
