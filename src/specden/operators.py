"""Matrix-free symmetric linear operators with exact matvec accounting.

Every algorithm in this package touches its input matrix only through
``SymmetricOperator.apply_block``, and every application is charged to a
``BudgetLedger``: one unit per vector, however many vectors share one
product.  Projections and other vector arithmetic are free; only
products with the underlying matrix count.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .randgen import unit_sphere_vector


class OperatorError(ValueError):
    """Raised on dimension mismatches or invalid operator construction."""


class BudgetLedger:
    """Exact count of operator applications, broken down by stage label."""

    def __init__(self):
        self._counts = {}

    def charge(self, stage, amount=1):
        if amount < 0:
            raise ValueError("cannot charge a negative amount")
        self._counts[stage] = self._counts.get(stage, 0) + amount

    @property
    def counts(self):
        return dict(self._counts)

    @property
    def total(self):
        return sum(self._counts.values())

    def merge(self, other):
        """Fold another ledger's counts into this one."""
        for stage, count in other.counts.items():
            self.charge(stage, count)

    def report(self):
        lines = [f"{stage}: {count}" for stage, count in sorted(self.counts.items())]
        lines.append(f"total: {self.total}")
        return "\n".join(lines)

    def __repr__(self):
        return f"BudgetLedger({self.counts!r})"


class SymmetricOperator:
    """Abstract n x n symmetric linear map.

    Subclasses implement ``_matmat``, one product with an n x k block into
    a new array, which the caller may overwrite.
    ``apply_block`` never mutates its input and charges exactly one ledger
    unit per column; ``apply`` is its one-column case.
    """

    def __init__(self, n):
        if n < 1:
            raise OperatorError(f"dimension must be positive, got {n}")
        self._n = int(n)

    @property
    def dimension(self):
        return self._n

    def _matmat(self, V):
        raise NotImplementedError

    def apply(self, v, ledger=None, stage="apply"):
        v = np.asarray(v, dtype=float)
        if v.shape != (self._n,):
            raise OperatorError(
                f"vector has shape {v.shape}, operator dimension is {self._n}"
            )
        return self.apply_block(v[:, None], ledger, stage)[:, 0]

    def apply_block(self, V, ledger=None, stage="apply"):
        """Apply to every column of an n x k block in one product; charges k units."""
        V = np.asarray(V, dtype=float)
        if V.ndim != 2 or V.shape[0] != self._n:
            raise OperatorError(
                f"block has shape {V.shape}, operator dimension is {self._n}"
            )
        out = self._matmat(V)
        if ledger is not None:
            ledger.charge(stage, V.shape[1])
        return out

    def to_dense(self):
        """Materialize the full matrix (test/oracle use only).

        Returns a fresh column-major n x n array that shares no memory with
        the operator, so the caller may overwrite it: ``exact_density``
        factors it in place.
        """
        return np.asfortranarray(self.apply_block(np.eye(self._n)))


def _require_finite(values):
    if not np.isfinite(values).all():
        raise OperatorError("matrix has a non-finite entry")


def require_finite_products(value):
    """value, a norm read from the operator's products; one that is not
    finite means they overflow float64 (a norm does past about 1e154)."""
    if not math.isfinite(value):
        raise OperatorError("the operator's products overflow float64; scale it down")
    return value


def _max_abs(X):
    """max|X| of a dense or sparse X, read without allocating |X|."""
    return max(X.max(), -X.min())


def _require_symmetric(matrix):
    """Reject a dense or sparse M unless max|M - M^T| <= 1e-10 max|M|.

    M - M^T is the one temporary the check allocates.
    """
    if not _max_abs(matrix - matrix.T) <= 1e-10 * _max_abs(matrix):
        raise OperatorError("matrix is not symmetric")


class DenseOperator(SymmetricOperator):
    """Full symmetric matrix stored densely."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise OperatorError(f"expected a square matrix, got shape {matrix.shape}")
        super().__init__(matrix.shape[0])
        _require_finite(matrix)
        _require_symmetric(matrix)
        # 0.5 M + 0.5 M^T, bitwise symmetric since a + b == b + a in floating
        # point.  Halving first keeps M + M^T from overflowing, and halving
        # is exact, so elsewhere this is 0.5 (M + M^T) to the bit.  M^T is
        # halved a sixteenth at a time, so that, as with 0.5 (M + M^T), whose
        # product numpy forms in the sum's buffer, the result is the one
        # n x n array allocated here.
        half = np.multiply(matrix, 0.5)
        rows = -(-self._n // 16)
        for start in range(0, self._n, rows):
            half[start : start + rows] += 0.5 * matrix[:, start : start + rows].T
        self.matrix = half

    def _matmat(self, V):
        # Callers hold their vectors as contiguous rows, so V^T M is one GEMM
        # on them without a copy; it equals M V because M is exactly symmetric.
        return (V.T @ self.matrix).T

    def to_dense(self):
        # M is bitwise symmetric, so its copy's transpose is M column-major.
        return self.matrix.copy().T


class DiagonalOperator(SymmetricOperator):
    def __init__(self, diagonal):
        diagonal = np.asarray(diagonal, dtype=float)
        if diagonal.ndim != 1:
            raise OperatorError("diagonal must be a vector")
        super().__init__(diagonal.shape[0])
        _require_finite(diagonal)
        self.diagonal = diagonal.copy()

    def _matmat(self, V):
        return self.diagonal[:, None] * V

    def to_dense(self):
        # A diagonal matrix is its own transpose.
        return np.diag(self.diagonal).T


class SparseOperator(SymmetricOperator):
    def __init__(self, matrix):
        matrix = sp.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise OperatorError(f"expected a square matrix, got shape {matrix.shape}")
        super().__init__(matrix.shape[0])
        _require_finite(matrix.data)
        _require_symmetric(matrix)
        self.matrix = matrix

    def _matmat(self, V):
        return self.matrix @ V

    def to_dense(self):
        return self.matrix.toarray(order="F")


class ScaledOperator(SymmetricOperator):
    """alpha * base; one apply charges a single base application."""

    def __init__(self, base, alpha):
        super().__init__(base.dimension)
        self.base = base
        self.alpha = float(alpha)

    def _matmat(self, V):
        return self.alpha * self.base._matmat(V)


class DeflatedOperator(SymmetricOperator):
    """(I - ZZ^T) A (I - ZZ^T) for orthonormal Z.

    The two projections are free; one apply charges a single application of
    the base operator.  The operator keeps a read-only view of Z, not a copy:
    the caller must not modify Z afterwards.
    """

    def __init__(self, base, Z):
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] != base.dimension:
            raise OperatorError(
                f"Z has shape {Z.shape}, operator dimension is {base.dimension}"
            )
        # max|Z^T Z - I| <= 1e-10, with no relative slack on the diagonal.
        if not np.abs(Z.T @ Z - np.eye(Z.shape[1])).max(initial=0.0) <= 1e-10:
            raise OperatorError("columns of Z are not orthonormal")
        super().__init__(base.dimension)
        self.base = base
        self.Z = Z.view()
        self.Z.flags.writeable = False

    def _project(self, V):
        return V - self.Z @ (self.Z.T @ V)

    def _matmat(self, V):
        return self._project(self.base._matmat(self._project(V)))


def deflate(base, Z):
    """Project out the column span of Z from the operator, which takes
    ownership of Z: the caller must not modify Z afterwards."""
    return DeflatedOperator(base, Z)


def norm_estimate_cost(n):
    """Matvecs consumed by spectral_norm_upper_bound on an n-dim operator."""
    return 2 * max(1, math.ceil(math.log2(n + 2)))


@np.errstate(over="ignore")
def spectral_norm_upper_bound(A, ledger, stream):
    """Factor-2 upper bound on the spectral norm: ||A||_2 <= L <= 2 ||A||_2.

    Power iteration on A^2 from a random unit start (A^2 rather than A so
    that sign-symmetric spectra do not defeat the Rayleigh readout), with
    ||A v|| as the readout, then doubled.  Deterministic given the stream.
    Returns 0.0 for the zero operator.  A v is scaled to unit norm past
    2**250, so that ||A|| up to about 1e154 overflows no norm; past that a
    norm overflows silently to inf, and the finiteness test raises
    ``OperatorError``.
    """
    n = A.dimension
    v = unit_sphere_vector(n, stream)[:, None]
    steps = norm_estimate_cost(n) // 2
    readout = 0.0
    for _ in range(steps):
        w = A.apply_block(v, ledger, "norm_estimate")
        readout = require_finite_products(np.linalg.norm(w))
        if readout == 0.0:
            return 0.0
        if readout > 2.0**250:
            w = w / readout
        u = A.apply_block(w, ledger, "norm_estimate")
        nu = require_finite_products(np.linalg.norm(u))
        if nu == 0.0:
            return 2.0 * readout
        v = u / nu
    return 2.0 * readout
