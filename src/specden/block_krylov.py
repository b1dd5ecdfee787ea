"""Krylov deflation: a converged-Ritz-pair deflation set.

Lanczos with full reorthogonalization builds an orthonormal basis Q of the
Krylov space of one Gaussian start vector, keeping every product A q_j; one
start vector gives block Krylov's low-rank guarantee up to a log(1/gap) factor
(Meyer, Musco and Musco, SODA 2024).  Ritz pairs come from T = Q^T (A Q)
with no further product, and only pairs whose residual is within
``deflation_gate`` enter the deflation set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lanczos import magnitude_order, reorthogonalize
# spectral_norm_upper_bound has no caller here; perfbench/tracing.py wraps it.
from .operators import OperatorError, spectral_norm_upper_bound
from .randgen import gaussian_vector

# A column whose norm drops below this fraction of its pre-projection norm
# during orthonormalization is dependent: the Krylov space is exhausted.
DROP_TOL = 1e-10

DEFAULT_BETA = 3.0  # the exponent beta of deflation_gate


@dataclass
class DeflationResult:
    """Converged Ritz pairs from the Krylov run.

    Z has orthonormal columns Q v_j for the admitted indices; lambdas are the
    matching Ritz values sorted by descending magnitude.  gate is the
    deflation_gate that admitted them: every admitted pair has residual
    ||A z - lambda z|| <= gate.
    """

    Z: np.ndarray
    lambdas: np.ndarray
    candidates_examined: int
    gate: float

    @property
    def s(self):
        return self.lambdas.size


def basis_capacity(l, q, n=math.inf):
    """Most columns, and so products, of the deflation run of block size l
    and depth q: l(2q + 1), and no more than the dimension n."""
    return min(n, l * (2 * q + 1))


def deflation_gate(ritz_values, n):
    """||A||_est / n^beta, ||A||_est being the largest |Ritz value| of the
    Krylov space that produced the pairs (no product; <= ||A|| to round-off):
    the largest residual that admits a Ritz pair to the Krylov deflation
    set or vr_slq's set S, and the largest norm of a remainder that
    def_cmm/def_kpm replace by a point mass at 0."""
    return float(np.abs(ritz_values).max()) / n**DEFAULT_BETA


# No estimator calls this; it stays while perfbench/tracing.py wraps it.
def orthonormalize_columns(K):
    """Rank-revealing orthonormal basis of the column span.

    Pivoted QR with small trailing diagonal entries of R treated as rank
    deficiency; dependent columns are dropped.
    """
    import scipy.linalg

    n = K.shape[0]
    if K.size == 0 or not np.any(K):
        return np.empty((n, 0))
    Q, R, _ = scipy.linalg.qr(K, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    r = int(np.count_nonzero(diag > DROP_TOL * diag[0]))
    return Q[:, :r]


# The name stays while perfbench/tracing.py looks it up.
def build_krylov_block(A, x, m, ledger):
    """Orthonormal basis of span{x, A x, ..., A^(m-1) x} and its image under A.

    Each new column, x or the image of the last one, is orthonormalized
    against every earlier column (lanczos's DGKS step: one classical
    Gram-Schmidt pass, and a second when the first cancels most of its norm)
    before A is applied to it.  A column left with less than DROP_TOL of its
    norm means the space is exhausted, and the recurrence stops there.
    Returns (Q, AQ), both n x r; one application per basis column, r <= m.
    """
    # Basis vectors and their images are kept as contiguous rows, which the
    # products read without a copy.
    Q = np.empty((m, x.size))
    AQ = np.empty((m, x.size))
    w = x.copy()
    r = 0
    while r < m:
        before = np.linalg.norm(w)
        after, _ = reorthogonalize(Q[:r], w)
        if after <= DROP_TOL * before:
            break
        Q[r] = w / after
        AQ[r] = A.apply_block(Q[r:r + 1].T, ledger, stage="krylov_subspace")[:, 0]
        w = AQ[r].copy()
        r += 1
    return Q[:r].T, AQ[:r].T


def block_krylov_deflation(A, l, q, stream, ledger=None):
    """Find converged large-magnitude eigenpairs for deflation.

    l and q only size the Krylov space of one start vector from ``stream``:
    one application per basis column, at most min(n, l(2q + 1)) and fewer
    when the space is exhausted.  The gate reads ||A||_est from the Ritz
    values.
    """
    n = A.dimension
    if not 1 <= l <= n:
        raise OperatorError(f"block size {l} outside 1..{n}")
    if q < 0:
        raise OperatorError("depth must be nonnegative")

    x = gaussian_vector(n, stream)
    Q, AQ = build_krylov_block(A, x, basis_capacity(l, q, n), ledger)
    T = Q.T @ AQ
    values, vectors = np.linalg.eigh(0.5 * (T + T.T))
    order = magnitude_order(values)
    values, vectors = values[order], vectors[:, order]

    ritz_vecs = Q @ vectors
    residuals = np.linalg.norm(AQ @ vectors - ritz_vecs * values, axis=0)

    gate = deflation_gate(values, n)
    admitted = np.flatnonzero(residuals <= gate)
    return DeflationResult(
        Z=ritz_vecs[:, admitted],
        lambdas=values[admitted],
        candidates_examined=Q.shape[1],
        gate=gate,
    )
