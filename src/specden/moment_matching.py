"""Density recovery on a grid from approximate Chebyshev moments.

Two reconstructions: a weighted-l1 moment-matching linear program over the
probability simplex, and the Jackson-damped kernel polynomial method.  Both
take the moments as a float array tau_1 ... tau_N (tau_0 = 1/sqrt(pi) is
implicit) and return a grid density: d + 1 nonnegative weights summing to 1
on ``grid_points(d)``, the evenly spaced grid {-1, -1 + 2/d, ..., 1}.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.optimize
import scipy.sparse as sp

from .chebyshev import TBAR0, cheb_normalized_rows
from .metrics import DiscreteDistribution


class SolverError(RuntimeError):
    pass


def grid_points(d):
    return np.linspace(-1.0, 1.0, d + 1)


def moment_matrix(N, d):
    """N x (d+1) matrix with entries Tbar_i(-1 + 2j/d) / i."""
    rows = cheb_normalized_rows(N, grid_points(d))
    return np.vstack([row / i for i, row in enumerate(rows, start=1)])


def solve_moment_matching(tau, d):
    """Grid density q minimizing ||T q - z||_1 over the probability simplex.

    T = ``moment_matrix(N, d)`` and z_i = tau_i / i.  Solved by HiGHS as a
    linear program in (q, t) with auxiliary variables for the absolute
    values; no tolerance is passed, so the solve stops at HiGHS's default
    tolerances.
    """
    N = tau.size
    if N < 1:
        raise ValueError("need at least one moment")
    if d < N:
        raise ValueError(f"grid resolution d={d} must be >= N={N}")
    T = moment_matrix(N, d)
    z = tau / np.arange(1, N + 1)

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
    return q


def jackson_coefficients(N):
    """Damping weights b_1 ... b_N of the Jackson kernel."""
    k = np.arange(1, N + 1)
    theta = math.pi / (N + 1)
    return ((N - k + 1) * np.cos(k * theta) + np.sin(k * theta) / math.tan(theta)) / (
        N + 1
    )


def kpm_density(tau, d):
    """Grid density of the Jackson-damped Chebyshev series of tau.

    Negative values are clipped to zero and the result renormalized.  The
    1/sqrt(1-x^2) weight is evaluated half a grid cell inside the endpoints
    to keep it finite.
    """
    N = tau.size
    x = grid_points(d)
    series = np.full(x.size, TBAR0 / math.sqrt(math.pi))
    damping = jackson_coefficients(N)
    for k, row in enumerate(cheb_normalized_rows(N, x), start=1):
        series += damping[k - 1] * tau[k - 1] * row
    half_cell = 1.0 / d
    x_w = np.clip(x, -1.0 + half_cell, 1.0 - half_cell)
    values = series / np.sqrt(1.0 - x_w**2)
    values = np.clip(values, 0.0, None)
    total = values.sum()
    if total == 0.0:
        values = np.ones_like(values)
        total = values.sum()
    return values / total


def rescale_density(q, L):
    """Stretch grid weights q on [-1, 1] to atoms on [-L, L]."""
    if L <= 0:
        raise ValueError("scale L must be positive")
    return DiscreteDistribution(grid_points(q.size - 1) * L, q.copy())
