"""Density recovery on a grid from approximate Chebyshev moments.

Two reconstructions: a weighted-l1 moment-matching linear program over the
probability simplex, and the Jackson-damped kernel polynomial method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse as sp

from .chebyshev import TBAR0, MomentVector, cheb_normalized, cheb_normalized_rows
from .metrics import DiscreteDistribution

LP_TOL = 1e-7

# Benchmark grid resolution; tests and CI runs use something much smaller.
DEFAULT_GRID_D = 20000


class SolverError(RuntimeError):
    pass


@dataclass
class GridDensity:
    """Probability weights on the evenly spaced grid {-1, -1+2/d, ..., 1}."""

    d: int
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.weights.size != self.d + 1:
            raise ValueError(f"expected {self.d + 1} weights, got {self.weights.size}")
        if np.any(self.weights < -1e-12):
            raise ValueError("grid weights must be nonnegative")
        self.weights = np.clip(self.weights, 0.0, None)
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"grid weights sum to {total:.12g}, expected 1")

    @property
    def support(self):
        return grid_points(self.d)

    def moment(self, k):
        """<Tbar_k, q> for this grid density."""
        return float(cheb_normalized(k, self.support) @ self.weights)


def grid_points(d):
    return np.linspace(-1.0, 1.0, d + 1)


def moment_matrix(N, d):
    """N x (d+1) matrix with entries Tbar_i(-1 + 2j/d) / i."""
    rows = cheb_normalized_rows(N, grid_points(d))
    return np.vstack([row / i for i, row in enumerate(rows, start=1)])


def solve_moment_matching(moments, d):
    """Minimize ||T q - z||_1 over the probability simplex.

    z_i = tau_i / i.  Solved as a linear program in (q, t) with auxiliary
    variables for the absolute values; the achieved objective is within
    LP_TOL of optimal.
    """
    N = moments.N
    if N < 1:
        raise ValueError("need at least one moment")
    if d < N:
        raise ValueError(f"grid resolution d={d} must be >= N={N}")
    T = moment_matrix(N, d)
    z = moments.values / np.arange(1, N + 1)

    n_q = d + 1
    T_sp = sp.csr_matrix(T)
    eye = sp.identity(N, format="csr")
    # [ T  -I ] q,t <= z ;  [ -T  -I ] q,t <= -z
    A_ub = sp.vstack(
        [sp.hstack([T_sp, -eye]), sp.hstack([-T_sp, -eye])], format="csr"
    )
    b_ub = np.concatenate([z, -z])
    A_eq = sp.hstack(
        [sp.csr_matrix(np.ones((1, n_q))), sp.csr_matrix((1, N))], format="csr"
    )
    c = np.concatenate([np.zeros(n_q), np.ones(N)])
    res = scipy.optimize.linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=np.array([1.0]),
        bounds=[(0, None)] * (n_q + N),
        method="highs",
    )
    if not res.success:
        raise SolverError(
            f"moment-matching LP failed (status {res.status}): {res.message}; "
            f"N={N}, d={d}"
        )
    q = np.clip(res.x[:n_q], 0.0, None)
    q /= q.sum()
    return GridDensity(d=d, weights=q)


def jackson_coefficients(N):
    """Damping weights b_1 ... b_N of the Jackson kernel."""
    k = np.arange(1, N + 1)
    theta = math.pi / (N + 1)
    return ((N - k + 1) * np.cos(k * theta) + np.sin(k * theta) / math.tan(theta)) / (
        N + 1
    )


def kpm_density(moments, d):
    """Jackson-damped Chebyshev series reconstruction on the grid.

    Negative values are clipped to zero and the result renormalized.  The
    1/sqrt(1-x^2) weight is evaluated half a grid cell inside the endpoints
    to keep it finite.
    """
    N = moments.N
    x = grid_points(d)
    series = np.full(x.size, TBAR0 / math.sqrt(math.pi))
    damping = jackson_coefficients(N)
    for k, row in enumerate(cheb_normalized_rows(N, x), start=1):
        series += damping[k - 1] * moments[k] * row
    half_cell = 1.0 / d
    x_w = np.clip(x, -1.0 + half_cell, 1.0 - half_cell)
    values = series / np.sqrt(1.0 - x_w**2)
    values = np.clip(values, 0.0, None)
    total = values.sum()
    if total == 0.0:
        values = np.ones_like(values)
        total = values.sum()
    return GridDensity(d=d, weights=values / total)


def rescale_density(q, L):
    """Stretch a grid density on [-1, 1] to atoms on [-L, L]."""
    if L <= 0:
        raise ValueError("scale L must be positive")
    return DiscreteDistribution(q.support * L, q.weights.copy())
