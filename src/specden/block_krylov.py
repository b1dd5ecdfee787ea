"""Krylov deflation: a converged-Ritz-pair deflation set.

Lanczos with full reorthogonalization (``lanczos_lockstep``'s
``basis="full"`` policy) runs from one ``unit_sphere_vector`` start, which
gives block Krylov's low-rank guarantee up to a log(1/gap) factor (Meyer,
Musco and Musco, SODA 2024).  ``tridiag_eig`` reads the Ritz pairs and their
residuals from its tridiagonal with no further product, and only pairs
whose residual is within ``deflation_gate`` enter the deflation set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lanczos import BREAKDOWN_RTOL, kept_columns, lanczos_lockstep, tridiag_eig
# spectral_norm_upper_bound has no caller here; perfbench/tracing.py wraps it.
from .operators import OperatorError, spectral_norm_upper_bound
from .randgen import unit_sphere_vector

DEFAULT_BETA = 3.0  # the exponent beta of deflation_gate


@dataclass
class DeflationResult:
    """Converged Ritz pairs from the Krylov run.

    Z has orthonormal columns Q s_j for the admitted indices; lambdas are the
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


def basis_capacity(l, q, n):
    """Most columns, and so products, of the deflation run of block size l
    and depth q on an n x n operator: l(2q + 1), at most n and at most
    ``kept_columns(n)`` (the cap on every kept basis), but at least 1."""
    return min(n, l * (2 * q + 1), max(1, kept_columns(n)))


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

    Pivoted QR with trailing diagonal entries of R below BREAKDOWN_RTOL of
    the first treated as rank deficiency; dependent columns are dropped.
    """
    import scipy.linalg

    n = K.shape[0]
    if K.size == 0 or not np.any(K):
        return np.empty((n, 0))
    Q, R, _ = scipy.linalg.qr(K, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    r = int(np.count_nonzero(diag > BREAKDOWN_RTOL * diag[0]))
    return Q[:, :r]


# The name stays while perfbench/tracing.py looks it up.
def build_krylov_block(A, x, m, ledger):
    """Lanczos factorization of A from the unit vector x, at most m steps
    long: ``lanczos_lockstep``'s ``basis="full"`` run, so T = Q^T A Q, which
    raises ``LanczosError`` for a start that is not unit.  Its m_effective
    products are charged to ``ledger`` as ``krylov_subspace``."""
    (fact,) = lanczos_lockstep(A, x[:, None], m, basis="full")
    if ledger is not None:
        ledger.charge("krylov_subspace", fact.m_effective)
    return fact


def block_krylov_deflation(A, l, q, stream, ledger=None):
    """Find converged large-magnitude eigenpairs for deflation.

    l and q only size the Lanczos run from one start vector from ``stream``:
    one application per step, at most ``basis_capacity(l, q, n)`` and fewer
    when the Krylov space is exhausted.  Its Ritz pairs (theta_j, Q s_j) have
    residuals beta |e_m^T s_j|; the gate reads ||A||_est from the theta_j.
    """
    n = A.dimension
    if not 1 <= l <= n:
        raise OperatorError(f"block size {l} outside 1..{n}")
    if q < 0:
        raise OperatorError("depth must be nonnegative")

    x = unit_sphere_vector(n, stream)
    fact = build_krylov_block(A, x, basis_capacity(l, q, n), ledger)
    ritz = tridiag_eig(fact)
    gate = deflation_gate(ritz.values, n)
    admitted = np.flatnonzero(ritz.residuals <= gate)
    return DeflationResult(
        Z=fact.Q @ ritz.vectors[:, admitted],
        lambdas=ritz.values[admitted],
        candidates_examined=fact.m_effective,
        gate=gate,
    )
