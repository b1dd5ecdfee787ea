"""Block Krylov iteration with a converged-Ritz-pair deflation set.

Block Lanczos with full reorthogonalization builds an orthonormal basis Q of
span{X, A X, ..., A^(2q) X} from a Gaussian start X, keeping every product
A Q_j it makes.  Ritz pairs come from T = Q^T (A Q) with no further product,
and only pairs whose residual is within ``deflation_gate`` enter the
deflation set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lanczos import magnitude_order, reorthogonalize
# spectral_norm_upper_bound has no caller here; perfbench/tracing.py wraps it.
from .operators import OperatorError, spectral_norm_upper_bound
from .randgen import SeededStream, gaussian_matrix

# Columns whose norm drops below this fraction of their pre-projection norm
# during orthonormalization are treated as dependent and dropped.
DROP_TOL = 1e-10

DEFAULT_BETA = 3.0  # the exponent beta of deflation_gate


@dataclass
class DeflationResult:
    """Converged Ritz pairs from block Krylov.

    Z has orthonormal columns Q v_j for the admitted indices; lambdas are the
    matching Ritz values sorted by descending magnitude.  gate is the
    deflation_gate that admitted them, formed from norm_estimate.
    """

    Z: np.ndarray
    lambdas: np.ndarray
    residuals: np.ndarray
    candidates_examined: int
    gate: float

    @property
    def s(self):
        return self.lambdas.size

    @property
    def norm_estimate(self):
        return self.gate * self.Z.shape[0] ** DEFAULT_BETA


def basis_capacity(l, q, n=math.inf):
    """Most columns block Lanczos to depth q from l start vectors builds:
    l per block for 2q + 1 blocks, and no more than the dimension n."""
    return min(n, l * (2 * q + 1))


def deflation_gate(ritz_values, n):
    """||A||_est / n^beta, ||A||_est being the largest |Ritz value| of the
    Krylov space that produced the pairs (no product; <= ||A|| to round-off):
    the largest residual that admits a Ritz pair to block Krylov's deflation
    set or vr_slq's set S, and the largest norm of a remainder that
    def_cmm/def_kpm replace by a point mass at 0."""
    return float(np.abs(ritz_values).max()) / n**DEFAULT_BETA


def default_depth(n):
    return math.ceil(2.0 * math.log2(max(n, 2)))


# No estimator calls this; it stays while perfbench/tracing.py wraps it by
# name.
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


def build_krylov_block(A, X, q, ledger=None):
    """Orthonormal basis of span{X, A X, ..., A^(2q) X} and its image under A.

    Block Lanczos: each new column is orthonormalized against every earlier
    basis column (lanczos's DGKS step: one classical Gram-Schmidt pass, and
    a second when the first cancels most of its norm) before A is applied
    to it, and a column whose projected norm falls below DROP_TOL times its
    norm before projection is dropped as dependent.  The recurrence stops
    after 2q + 1 blocks or once no column is left.  Returns (Q, AQ), both
    n x r; charges one application per basis column, r <= min(n, l(2q + 1)).
    """
    n, l = X.shape
    capacity = basis_capacity(l, q, n)
    # Basis vectors and their images are kept as contiguous rows, which the
    # block products read without a copy.
    Q = np.empty((capacity, n))
    AQ = np.empty((capacity, n))
    r = 0
    block = X.T
    for _ in range(2 * q + 1):
        first = r
        for w in block:
            if r == capacity:
                break
            w = w.copy()
            before = np.linalg.norm(w)
            after, _ = reorthogonalize(Q[:r], w)
            if after > DROP_TOL * before:
                Q[r] = w / after
                r += 1
        if r == first:
            break
        AQ[first:r] = A.apply_block(Q[first:r].T, ledger, stage="krylov_subspace").T
        block = AQ[first:r]
    return Q[:r].T, AQ[:r].T


def block_krylov_deflation(A, l, q=None, stream=None, ledger=None):
    """Find converged large-magnitude eigenpairs for deflation.

    Charges one application per Krylov basis column, at most
    min(n, l(2q+1)); the gate reads ||A||_est from the Ritz values.
    """
    n = A.dimension
    if not 1 <= l <= n:
        raise OperatorError(f"block size {l} outside 1..{n}")
    if q is None:
        q = default_depth(n)
    if q < 0:
        raise OperatorError("depth must be nonnegative")
    if stream is None:
        stream = SeededStream(0)

    X = gaussian_matrix(n, l, stream)
    Q, AQ = build_krylov_block(A, X, q, ledger)
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
        residuals=residuals[admitted],
        candidates_examined=Q.shape[1],
        gate=gate,
    )
