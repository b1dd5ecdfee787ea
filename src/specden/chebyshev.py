"""Chebyshev polynomial kernels and Hutchinson moment estimation.

Normalized polynomials are T_k scaled to unit norm under the weight
1/sqrt(1 - x^2): Tbar_0 = 1/sqrt(pi) and Tbar_k = sqrt(2/pi) T_k for k >= 1,
so |Tbar_k| <= sqrt(2/pi) on [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .randgen import unit_sphere_vector

TBAR0 = 1.0 / math.sqrt(math.pi)
TBAR_SCALE = math.sqrt(2.0 / math.pi)


@dataclass
class MomentVector:
    """Normalized Chebyshev moments tau_1 ... tau_N (1-based).

    tau_0 is pinned analytically to 1/sqrt(pi) for any probability density on
    [-1, 1] and is never stored.  ``b`` records how many Hutchinson vectors
    produced the estimate.
    """

    values: np.ndarray
    b: int = 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()

    @property
    def N(self):
        return self.values.size

    def __getitem__(self, i):
        """1-based access: moments[i] = tau_i."""
        if not 1 <= i <= self.N:
            raise IndexError(f"moment index {i} outside 1..{self.N}")
        return float(self.values[i - 1])


def cheb_eval(k, x):
    """T_k(x) by the three-term recurrence; vectorized over x."""
    if k < 0:
        raise ValueError("polynomial degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    if k == 0:
        out = np.ones_like(x)
        return out if out.shape else 1.0
    prev, cur = np.ones_like(x), x.copy()
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.shape else float(cur)


def cheb_normalized(k, x):
    """Tbar_k(x): unit-norm Chebyshev polynomial under the 1/sqrt(1-x^2) weight."""
    if k == 0:
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, TBAR0)
        return out if out.shape else float(out)
    return TBAR_SCALE * cheb_eval(k, x)


def cheb_normalized_rows(N, x):
    """Yield Tbar_1(x), ..., Tbar_N(x) from one running recurrence.

    Each row equals ``cheb_normalized(k, x)`` bit for bit: it is the same
    recurrence, advanced once per degree instead of restarted for each.
    """
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones_like(x), x.copy()
    for k in range(1, N + 1):
        if k > 1:
            prev, cur = cur, 2.0 * x * cur - prev
        yield TBAR_SCALE * cur


def cheb_normalized_at_zero(k):
    """Tbar_k(0): 0 for odd k, +-sqrt(2/pi) alternating for even k >= 2."""
    if k == 0:
        return TBAR0
    if k % 2 == 1:
        return 0.0
    return TBAR_SCALE * (1.0 if k % 4 == 0 else -1.0)


def cheb_moment_quadratic_form(A, g, N, ledger=None):
    """All quadratic forms g^T Tbar_i(A) g for i = 0..N.

    Uses the vector recurrence u_k = 2 A u_{k-1} - u_{k-2}; consumes exactly
    N operator applications.  The caller guarantees ||A||_2 <= 1 and
    ||g||_2 = 1.
    """
    g = np.asarray(g, dtype=float)
    return _quadratic_forms(A, g[None, :], N, ledger)[0]


def _quadratic_forms(A, G, N, ledger):
    """Row j holds g_j^T Tbar_i(A) g_j, i = 0..N, for the rows g_j of G.

    All rows advance through the recurrence together, one block product per
    degree, so the block costs N * rows applications.
    """
    if N < 0:
        raise ValueError("number of moments must be nonnegative")

    def rowdot(X, Y):
        # One dot product per row, the same arithmetic as a single vector.
        return np.array([x @ y for x, y in zip(X, Y)])

    def step(U):
        return np.ascontiguousarray(A.apply_block(U.T, ledger, stage="moments").T)

    out = np.empty((G.shape[0], N + 1))
    out[:, 0] = TBAR0 * rowdot(G, G)
    if N == 0:
        return out
    U_prev = G
    U = step(G)
    out[:, 1] = TBAR_SCALE * rowdot(G, U)
    for k in range(2, N + 1):
        U_prev, U = U, 2.0 * step(U) - U_prev
        out[:, k] = TBAR_SCALE * rowdot(G, U)
    return out


def estimate_moments(A, N, b, stream, ledger=None):
    """Hutchinson estimate of the spectral-density moments of A.

    tau_i ~= (1/b) sum_j g_j^T Tbar_i(A) g_j with g_j uniform on the unit
    sphere; the b probes run in lockstep and consume exactly N * b operator
    applications.
    """
    if b < 1:
        raise ValueError("need at least one Hutchinson vector")
    n = A.dimension
    G = np.stack([unit_sphere_vector(n, stream.substream(j)) for j in range(b)])
    acc = _quadratic_forms(A, G, N, ledger).sum(axis=0)
    acc /= b
    return MomentVector(values=acc[1:], b=b)


def adjust_moments_for_deflation(tau_tilde, n, s):
    """Remove the mass of s deflated (zeroed) eigenvalues from the moments.

    tau_i -> (n tau_i - s Tbar_i(0)) / (n - s).
    """
    if not 0 <= s < n:
        raise ValueError(f"need 0 <= s < n, got s={s}, n={n}")
    if s == 0:
        return MomentVector(values=tau_tilde.values.copy(), b=tau_tilde.b)
    at_zero = np.array([cheb_normalized_at_zero(i) for i in range(1, tau_tilde.N + 1)])
    adjusted = (n * tau_tilde.values - s * at_zero) / (n - s)
    return MomentVector(values=adjusted, b=tau_tilde.b)
