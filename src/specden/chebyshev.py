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


def probe_moments(A, N, G, ledger=None):
    """tau_i = (1/b) sum_j g_j^T Tbar_i(A) g_j, i = 1..N, over the b rows g_j
    of G.  All rows advance through the recurrence together, one block
    product per degree: exactly N * b operator applications.  With unit g_j
    these are the moments of a probability measure."""
    if N < 0:
        raise ValueError("number of moments must be nonnegative")
    tau = np.empty(N)
    U_prev, U = None, G
    for k in range(N):
        AU = np.ascontiguousarray(A.apply_block(U.T, ledger, stage="moments").T)
        U_prev, U = U, (AU if k == 0 else 2.0 * AU - U_prev)
        # One dot product per contiguous row, added in probe order.
        tau[k] = sum(TBAR_SCALE * (g @ u) for g, u in zip(G, U)) / G.shape[0]
    return tau


def estimate_moments(A, N, b, stream, ledger=None, Z=None):
    """Hutchinson estimate tau_1 ... tau_N of the spectral-density moments of A:
    ``probe_moments`` of b probes g_j uniform on the unit sphere, drawn from
    ``stream.substream(j)``, then projected off Z's orthonormal columns and
    renormalized if Z is given; consumes exactly N * b operator applications."""
    if b < 1:
        raise ValueError("need at least one Hutchinson vector")
    n = A.dimension
    G = np.stack([unit_sphere_vector(n, stream.substream(j)) for j in range(b)])
    if Z is not None:
        G -= (G @ Z) @ Z.T
        G /= np.linalg.norm(G, axis=1, keepdims=True)
    return probe_moments(A, N, G, ledger)


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
