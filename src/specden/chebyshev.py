"""Chebyshev polynomial kernels and Hutchinson moment estimation.

Normalized polynomials are T_k scaled to unit norm under the weight
1/sqrt(1 - x^2): Tbar_0 = 1/sqrt(pi) and Tbar_k = sqrt(2/pi) T_k for k >= 1,
so |Tbar_k| <= sqrt(2/pi) on [-1, 1].

Moments are plain float arrays holding tau_1 ... tau_N, where
tau_i = <Tbar_i, density>; tau_0 is 1/sqrt(pi) for every probability
density on [-1, 1], so it is implicit and never stored.  Hutchinson
estimates take two moments per product on each probe: K block products of
b probes give tau_1 ... tau_2K (``probe_moments``).
"""

from __future__ import annotations

import math

import numpy as np

from .randgen import unit_sphere_vector

TBAR0 = 1.0 / math.sqrt(math.pi)
TBAR_SCALE = math.sqrt(2.0 / math.pi)


def cheb_normalized_rows(N, x, out=None):
    """N x len(x) array, written into out[:N] when out is given, whose row
    k - 1 is Tbar_k(x), k = 1..N; a scalar x counts as one point.  The
    recurrence T_1 = x, T_k = T_{k-1} 2x - T_{k-2} runs on two rows of raw
    values, in numpy's chebvander's order, and each row is written times
    TBAR_SCALE, so no table of N + 1 rows is held beside ``out``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if out is None:
        out = np.empty((N, x.size))
    x2 = 2 * x
    prev, cur = np.ones_like(x), x
    for k in range(1, N + 1):
        if k > 1:
            prev, cur = cur, cur * x2 - prev
        np.multiply(cur, TBAR_SCALE, out=out[k - 1])
    return out


def probe_moments(A, K, G, ledger=None):
    """tau_i = (1/b) sum_j g_j^T Tbar_i(A) g_j, i = 1..2K, over the b rows g_j
    of G, from exactly K * b operator applications.

    All rows advance through the recurrence U_k = T_k(A) G together, one
    block product per degree k = 1..K, and each degree gives two moments by
    T_{2k} = 2 T_k^2 - T_0 and T_{2k-1} = 2 T_k T_{k-1} - T_1:
    g^T T_{2k}(A) g = 2 ||T_k(A) g||^2 - g^T g and
    g^T T_{2k-1}(A) g = 2 (T_k(A) g)^T (T_{k-1}(A) g) - g^T A g (Weisse et
    al., Rev. Mod. Phys. 78, 2006).  Degree k reads only U_k and U_{k-1}, so
    K // 2 products give the first 2 (K // 2) moments of K, bit for bit.
    With unit g_j these are the moments of a probability measure.
    """
    if K < 0:
        raise ValueError("number of products per probe must be nonnegative")
    b = G.shape[0]
    tau = np.empty(2 * K)
    gg = _row_dots(G, G)
    U_prev, U = None, G
    for k in range(K):
        AU = np.ascontiguousarray(A.apply_block(U.T, ledger, stage="moments").T)
        U_prev, U = U, (AU if k == 0 else 2.0 * AU - U_prev)
        cross = _row_dots(U, U_prev)
        if k == 0:
            gAg = cross
        tau[2 * k] = (2.0 * cross - gAg).sum() / b
        tau[2 * k + 1] = (2.0 * _row_dots(U, U) - gg).sum() / b
    tau *= TBAR_SCALE
    return tau


def _row_dots(X, Y):
    """Dot product of each row of X with the same row of Y."""
    return np.einsum("ij,ij->i", X, Y)


def estimate_moments(A, K, b, stream, ledger=None, Z=None):
    """Hutchinson estimate tau_1 ... tau_2K of the spectral-density moments of
    A: ``probe_moments`` of b probes g_j uniform on the unit sphere, drawn
    from ``stream.substream(j)``, then projected off Z's orthonormal columns
    and renormalized if Z is given; consumes exactly K * b operator
    applications."""
    if b < 1:
        raise ValueError("need at least one Hutchinson vector")
    n = A.dimension
    G = np.stack([unit_sphere_vector(n, stream.substream(j)) for j in range(b)])
    if Z is not None:
        G -= (G @ Z) @ Z.T
        G /= np.linalg.norm(G, axis=1, keepdims=True)
    return probe_moments(A, K, G, ledger)


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
