"""Chebyshev polynomial kernels and Hutchinson moment estimation.

Normalized polynomials are T_k scaled to unit norm under the weight
1/sqrt(1 - x^2): Tbar_0 = 1/sqrt(pi) and Tbar_k = sqrt(2/pi) T_k for k >= 1,
so |Tbar_k| <= sqrt(2/pi) on [-1, 1].

Moments are plain float arrays holding tau_1 ... tau_N, where
tau_i = <Tbar_i, density>; tau_0 is 1/sqrt(pi) for every probability
density on [-1, 1], so it is implicit and never stored.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .randgen import unit_sphere_vector

TBAR0 = 1.0 / math.sqrt(math.pi)
TBAR_SCALE = math.sqrt(2.0 / math.pi)


def cheb_normalized_rows(N, x):
    """N x len(x) array whose row k - 1 is Tbar_k(x), k = 1..N; a scalar x
    counts as one point."""
    rows = chebvander(x, N)[:, 1:].T
    rows *= TBAR_SCALE
    return rows


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
    """Hutchinson estimate tau_1 ... tau_N of the spectral-density moments of A.

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
    return acc[1:]


def adjust_moments_for_deflation(tau, n, s):
    """Remove the mass of s deflated (zeroed) eigenvalues from the moments.

    tau_i -> (n tau_i - s Tbar_i(0)) / (n - s); returns a new array.
    """
    if not 0 <= s < n:
        raise ValueError(f"need 0 <= s < n, got s={s}, n={n}")
    if s == 0:
        # Not the formula: (n tau) / n need not round back to tau.
        return tau.copy()
    at_zero = cheb_normalized_rows(tau.size, 0.0)[:, 0]
    return (n * tau - s * at_zero) / (n - s)
