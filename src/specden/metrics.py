"""Discrete distributions on the real line and the Wasserstein-1 metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Atoms closer than this are merged into one location.
MERGE_TOL = 1e-12

# Largest dimension for which the dense eigendecomposition oracle is allowed.
EXACT_DENSITY_CAP = 6100


class DistributionError(ValueError):
    pass


@dataclass
class DiscreteDistribution:
    """Finite list of (location, weight) atoms.

    Locations are sorted and near-duplicates merged on construction; weights
    must be nonnegative and sum to 1 within 1e-9.
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
        if not np.all(np.isfinite(loc)):
            raise DistributionError("atom locations must be finite")
        if np.any(w < -1e-12):
            raise DistributionError("weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        loc, w = _merge_atoms(loc, w)
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


def _merge_atoms(loc, w):
    """Sort atoms and merge each into the group of the first atom within
    MERGE_TOL below it; a group keeps its first location.

    Group weights are summed in order, one atom at a time.
    """
    order = np.argsort(loc, kind="stable")
    loc, w = loc[order], w[order]
    # An atom more than MERGE_TOL above its predecessor starts a group.  In
    # a run of closer atoms, one more than MERGE_TOL above the group's first
    # location also starts one, so runs that span more than MERGE_TOL are
    # walked atom by atom.
    new = np.diff(loc, prepend=-np.inf) > MERGE_TOL
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], loc.size)
    wide = loc[ends - 1] - loc[starts] > MERGE_TOL
    for first, end in zip(starts[wide], ends[wide]):
        for i in range(first + 1, end):
            if loc[i] - loc[first] > MERGE_TOL:
                new[i] = True
                first = i
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], loc.size)
    merged = w[starts]
    for g in np.flatnonzero(ends - starts > 1):
        merged[g] = np.cumsum(w[starts[g] : ends[g]])[-1]
    return loc[starts], merged


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

    Requires a materializable operator of dimension at most
    ``EXACT_DENSITY_CAP``; beyond that, fall back to sampling-based estimates.
    """
    n = A.dimension
    if n > EXACT_DENSITY_CAP:
        raise DistributionError(
            f"dimension {n} exceeds the dense oracle cap {EXACT_DENSITY_CAP}; "
            "use a sampling estimate instead"
        )
    eigs = np.linalg.eigvalsh(A.to_dense())
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
