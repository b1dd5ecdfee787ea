"""Density recovery on a grid from approximate Chebyshev moments.

Two reconstructions: Chebyshev moment matching, the density on the
probability simplex whose moments best match the estimates in weighted l1,
and the Jackson-damped kernel polynomial method.  Moments estimated with
unit-vector Hutchinson probes are exactly those of a probability measure,
so moment matching is a feasibility problem: NNLS finds the support of an
exact match, a linear program on that support polishes it, and only
moments that no measure has take the linear program on the full grid.
NNLS runs on a screened set of grid columns, grown from the full-grid
gradient (delayed column generation), and reaches the full grid only when
the screened columns cannot match.

Moment matching holds one (N + 1) x (d + 1) array, NNLS's column-scaled
system, built row by row by the Chebyshev recurrence and scaled in place.
Both LPs and the residual build the N x (d + 1) moment matrix T by one call
on the columns they read: q's support, and all of T only for the full-grid
LP.  ``moment_matrix`` (all of T) is for the tests; no solve calls it.

Both take the moments as a float array tau_1 ... tau_N (tau_0 = 1/sqrt(pi)
is implicit) and return a grid density: d + 1 nonnegative weights summing
to 1 on ``grid_points(d)``, the evenly spaced grid {-1, -1 + 2/d, ..., 1}.
"""

from __future__ import annotations

import math

import numpy as np
import scipy
from numpy.polynomial.chebyshev import chebval

from .chebyshev import TBAR0, TBAR_SCALE, cheb_normalized_rows
from .metrics import DiscreteDistribution


class SolverError(RuntimeError):
    pass


def grid_points(d):
    return np.linspace(-1.0, 1.0, d + 1)


# No solve calls it: the tests read it as the reference T, and
# perfbench/tracing.py looks the name up.
def moment_matrix(N, d):
    """N x (d+1) matrix with entries Tbar_i(-1 + 2j/d) / i."""
    return _moment_rows(N, grid_points(d))


def _moment_rows(N, x, out=None):
    """Rows Tbar_i(x) / i, i = 1..N, at the points x, written into out[:N]
    (a new N x x.size array when out is None): ``cheb_normalized_rows``,
    each row then divided by i in place."""
    out = cheb_normalized_rows(N, x, out)
    out[:N] /= np.arange(1, N + 1)[:, None]
    return out


# NNLS's moment match is accepted as exact when ||T q - z||_1 is at most
# this; the moments of a probability measure are matched to round-off.
EXACT_RESIDUAL = 1e-8
# HiGHS's primal feasibility tolerance in every LP, 100-fold below
# EXACT_RESIDUAL: at its default, 1e-7, an LP's q met the moments only to
# 2e-7.
LP_FEASIBILITY = 1e-10
# Iteration cap of every LP solve, so a stalled solve ends the same way on
# every run.  Full-grid solves of unrealizable moments took at most 7257
# dual simplex iterations (N = 105, d = 20000); a degenerate stall runs
# ~25000 per second at d = 2000.
LP_MAXITER = 50_000
# NNLS's first column set holds this many evenly spaced grid points per
# moment.  Which exact match NNLS returns depends on it: over 108 cmm/def_cmm
# cells (six matrices, budgets 200-800, d = 2000 and 20000, two seeds), W1
# was in geomean 1.07x that of full-grid NNLS with 4 (low_rank 1.35x),
# 1.035x with 8 and 1.03x with 16; their times did not differ beyond noise.
SCREEN_POINTS_PER_MOMENT = 8


def check_grid(N, d):
    """cmm and kpm need at least as many grid intervals as moments.

    Moment matching cannot resolve N moments on fewer points, and kpm's
    density on d points gets no better past N = d, while its Clenshaw sum
    costs O(N d) time.
    """
    if d < N:
        raise ValueError(f"grid resolution d={d} must be >= N={N}")


def solve_moment_matching(tau, d, diagnostics=None):
    """Grid density q minimizing ||T q - z||_1 over the probability simplex.

    T is the N x (d + 1) matrix of ``moment_matrix(N, d)`` and z_i = tau_i / i;
    only the full-grid LP holds all of T, and every other step reads its
    columns on q's support or through NNLS's scaled system.  When tau comes
    from unit-vector Hutchinson probes g_j of A / L, (1/b) sum_j g_j^T
    Tbar_i(A / L) g_j is exactly the i-th moment of the probability measure
    sum_k w_k delta(lambda_k / L) with w_k = (1/b) sum_j (g_j . v_k)^2, so
    the optimum is 0 up to the grid: the problem is a degenerate
    feasibility problem, on which dual simplex over the full grid stalls.
    Two steps solve it:

    1. Support: Lawson-Hanson NNLS on [T - z 1^T; 1^T] q = [0; 1], with
       each column scaled to unit norm, finds a q >= 0 with at most N + 1
       atoms.  The scaling makes its first pick the single grid atom that
       best matches the moments.  NNLS sees a few hundred columns: a
       strided start set plus the best single atoms, grown by the columns
       of largest positive full-grid gradient until q matches; only when no
       column outside the set has a positive gradient does it run on the
       full grid (``_nnls_support``).
    2. LP: the L1 LP is solved by HiGHS's dual simplex on q's atoms only
       when q, normalized, matches to EXACT_RESIDUAL, and on the full grid
       otherwise (or if NNLS itself fails), taking the moments as
       unrealizable.  NNLS's own square solve on adjacent atoms amplifies
       round-off in tau ~1e8-fold; the LP's solution does not.  Should the
       LP on q's atoms fail, or its q miss EXACT_RESIDUAL, NNLS's q is
       returned as it is; a full-grid LP that stops short of optimal
       raises SolverError.

    Every LP runs to LP_FEASIBILITY and stops after LP_MAXITER iterations.
    When ``diagnostics`` is a dict, it receives the step that chose q's
    support (``solver``: "nnls" when NNLS matched, "lp" for the full grid),
    the final ``residual`` ||T q - z||_1, the atom count ``support`` and the
    column count ``nnls_columns`` of the last NNLS solve (d + 1 when NNLS
    ran on the full grid).
    """
    N = tau.size
    if N < 1:
        raise ValueError("need at least one moment")
    check_grid(N, d)
    z = tau / np.arange(1, N + 1)

    q, nnls_columns = _nnls_support(z, d)
    solver = "lp" if q is None else "nnls"
    columns = np.arange(d + 1) if q is None else np.flatnonzero(q)
    res = _l1_lp(_moment_rows(N, grid_points(d)[columns]), z)
    if res.success:
        matched = _grid_density(res.x[: columns.size], columns, d)
        if solver == "lp" or _l1_residual(matched, z) <= EXACT_RESIDUAL:
            q = matched
    elif solver == "lp":
        raise SolverError(
            f"moment-matching LP failed (status {res.status}): {res.message}; "
            f"N={N}, d={d}, iterations={res.nit}"
        )
    if diagnostics is not None:
        diagnostics.update(
            solver=solver,
            residual=_l1_residual(q, z),
            support=int(np.count_nonzero(q)),
            nnls_columns=nnls_columns,
        )
    return q


def _nnls_support(z, d):
    """NNLS match (q, columns) of T q = z on the probability simplex, for
    T = ``moment_matrix(z.size, d)``.

    q is the normalized column-scaled NNLS solution when it matches to
    EXACT_RESIDUAL, and None otherwise or if NNLS fails; ``columns`` is the
    column count of the last NNLS solve.  The scaled system
    M = [T - z 1^T; 1^T] / ||.||, y >= 0, M y = [0; 1] is solved on a
    growing column set C (delayed column generation).  C starts as every
    ~(d+1) / (SCREEN_POINTS_PER_MOMENT (N+1))-th grid column, the last one,
    and the N + 1 columns of largest first gradient M^T [0; 1], the best
    single atoms.  While NNLS on C misses the match, the N + 1 columns
    outside C of largest positive full-grid gradient M^T (rhs - M_C y) join
    it; once none is positive, the last round takes every column, which is
    the full-grid NNLS.  So an exact match that full-grid NNLS finds is
    never missed, and C stays a few hundred columns where one exists.
    """
    # Imported here, as only a solve needs it: it costs about 20 MB and
    # 0.17 s at import, which no estimate without moment matching needs.
    import scipy.optimize

    N, n_q = z.size, d + 1
    M, scale = _scaled_system(z, d)
    rhs = np.zeros(N + 1)
    rhs[-1] = 1.0
    in_set = np.zeros(n_q, dtype=bool)
    in_set[:: max(1, n_q // (SCREEN_POINTS_PER_MOMENT * (N + 1)))] = True
    in_set[-1] = True
    in_set[np.argsort(M[-1], kind="stable")[-(N + 1) :]] = True
    while True:
        columns = np.flatnonzero(in_set)
        M_C = M if columns.size == n_q else M[:, columns]
        try:
            y, _ = scipy.optimize.nnls(M_C, rhs, maxiter=3 * n_q)
        except RuntimeError:
            return None, columns.size
        q = np.zeros(n_q)
        q[columns] = y / scale[columns]
        if q.sum() > 0:
            q /= q.sum()
            if _l1_residual(q, z) <= EXACT_RESIDUAL:
                return q, columns.size
        if columns.size == n_q:
            return None, n_q
        g = M.T @ (rhs - M_C @ y)
        g[in_set] = 0.0
        grow = np.argsort(g, kind="stable")[-(N + 1) :]
        grow = grow[g[grow] > 0]
        if grow.size:
            in_set[grow] = True
        else:
            in_set[:] = True


def _scaled_system(z, d):
    """NNLS's system M = [T - z 1^T; 1^T] / scale and its column norms scale.

    M is the one (N + 1) x (d + 1) array the solve holds: T's rows are
    written into it, z is subtracted in place, the column norms are summed
    row by row, in the order ``np.linalg.norm(M, axis=0)`` sums them, and M
    is divided in place.
    """
    N = z.size
    M = np.empty((N + 1, d + 1))
    _moment_rows(N, grid_points(d), out=M)
    M[:N] -= z[:, None]
    M[N] = 1.0
    scale = np.zeros(d + 1)
    for row in M:
        scale += row * row
    np.sqrt(scale, out=scale)
    M /= scale
    return M, scale


def _l1_residual(q, z):
    """||T q - z||_1 for grid weights q, from T's columns on q's support."""
    support = np.flatnonzero(q)
    T = _moment_rows(z.size, grid_points(q.size - 1)[support])
    return float(np.abs(T @ q[support] - z).sum())


def _grid_density(x, columns, d):
    """Grid weights x on ``columns``, clipped at 0 and summing to 1."""
    q = np.zeros(d + 1)
    q[columns] = np.clip(x, 0.0, None)
    return q / q.sum()


def _l1_lp(T, z):
    """HiGHS dual simplex result of min ||T q - z||_1 over the probability simplex.

    The LP is in (q, t), with one auxiliary variable per moment bounding
    its absolute error.  It stops at HiGHS's default tolerances, with the
    primal feasibility tolerance LP_FEASIBILITY, or after LP_MAXITER
    iterations.
    """
    import scipy.optimize

    N, n_q = T.shape
    eye = np.eye(N)
    # [ T  -I ] q,t <= z ;  [ -T  -I ] q,t <= -z
    A_ub = np.block([[T, -eye], [-T, -eye]])
    b_ub = np.concatenate([z, -z])
    A_eq = np.concatenate([np.ones(n_q), np.zeros(N)])[None, :]
    c = np.concatenate([np.zeros(n_q), np.ones(N)])
    return scipy.optimize.linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=np.array([1.0]),
        bounds=[(0, None)] * (n_q + N),
        method="highs-ds",
        options={
            "maxiter": LP_MAXITER,
            "primal_feasibility_tolerance": LP_FEASIBILITY,
        },
    )


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
    x = grid_points(d)
    # Clenshaw's recurrence (chebval) sums the series in O(N d) time and
    # O(d) memory, with no N x (d + 1) table of polynomial values.
    coefficients = np.empty(tau.size + 1)
    coefficients[0] = TBAR0 / math.sqrt(math.pi)
    coefficients[1:] = TBAR_SCALE * jackson_coefficients(tau.size) * tau
    series = chebval(x, coefficients)
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
    return DiscreteDistribution(grid_points(q.size - 1) * L, q)
