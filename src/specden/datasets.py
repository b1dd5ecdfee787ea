"""Benchmark test matrices and a Matrix Market loader."""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .operators import DenseOperator, DiagonalOperator, SparseOperator
from .randgen import SeededStream, gaussian_vector, random_orthogonal


class MatrixMarketError(ValueError):
    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


def gaussian_spectrum(n, stream):
    """Dense matrix with N(0,1) eigenvalues normalized so max |eig| = 1.

    Holds at most three n x n arrays at once (see ``_haar_conjugate``).
    """
    eigs = gaussian_vector(n, stream.substream(0))
    return _haar_conjugate(eigs / np.abs(eigs).max(), stream.substream(1))


def uniform_matrix(n, stream):
    """Dense matrix with eigenvalues drawn uniformly from [-1, 1].

    Holds at most three n x n arrays at once (see ``_haar_conjugate``).
    """
    eigs = stream.substream(0).generator().uniform(-1.0, 1.0, size=n)
    return _haar_conjugate(eigs, stream.substream(1))


def _haar_conjugate(eigs, stream):
    """DenseOperator of V diag(eigs) V^T for a Haar-distributed V from ``stream``.

    V takes one n x n array (two for a moment while it is drawn), V diag(eigs)
    a second and the product a third.  V diag(eigs) is freed before
    ``DenseOperator`` symmetrizes the product into the matrix it keeps, so
    no more than three are held at once.
    """
    V = random_orthogonal(eigs.size, stream)
    # V stays alive until the operator exists.  Freeing it first raised the
    # process's peak RSS: glibc serves later 32 MB arrays from the heap once
    # one of that size is freed, and a freed heap block below a live one
    # stays resident.
    return DenseOperator((V * eigs) @ V.T)


def inverse_spectrum(n):
    """Diagonal with entries 1, 1/2, ..., 1/n."""
    return DiagonalOperator(1.0 / np.arange(1, n + 1))


def power_law_spectrum(n):
    """Diagonal with entries 1, 1/2^2, 1/2^3, ..., 1/2^n.

    Exponents are kept in integer form and entries below the double-precision
    underflow limit are stored as exact zeros.
    """
    exponents = np.concatenate([[0], np.arange(2, n + 1)])[:n]
    entries = np.where(exponents <= 1074, 2.0 ** (-np.minimum(exponents, 1074.0)), 0.0)
    return DiagonalOperator(entries)


def low_rank(n, r=100, stream=None):
    """Diagonal with r Gaussian entries (normalized to max 1) and n - r zeros."""
    if stream is None:
        stream = SeededStream(0)
    if not 1 <= r <= n:
        raise ValueError(f"rank {r} outside 1..{n}")
    entries = np.zeros(n)
    head = gaussian_vector(r, stream.substream(0))
    entries[:r] = head / np.abs(head).max()
    return DiagonalOperator(entries)


def load_matrix_market(path, normalize_adjacency=True):
    """Load a coordinate-format Matrix Market file of a symmetric matrix.

    The header's symmetry qualifier decides how entries are read: a
    ``symmetric`` file stores the lower triangle, which is mirrored, and an
    entry above the diagonal is an error; a ``general`` file (or one with
    no qualifier) stores every entry, and an asymmetric matrix is rejected
    by ``SparseOperator``.  With ``normalize_adjacency`` the result is
    D^{-1/2} A D^{-1/2}; isolated vertices keep zero rows.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError("empty file", 1)
    header = lines[0].split()
    if (
        len(header) < 4
        or header[0] != "%%MatrixMarket"
        or header[1].lower() != "matrix"
        or header[2].lower() != "coordinate"
    ):
        raise MatrixMarketError(
            "expected '%%MatrixMarket matrix coordinate ...' header", 1
        )
    field = header[3].lower()
    if field not in ("real", "integer", "pattern"):
        raise MatrixMarketError(f"unsupported field type {field!r}", 1)
    symmetry = header[4].lower() if len(header) > 4 else "general"
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}", 1)

    idx = 1  # past comment and blank lines, as mmio.c's mm_read_mtx_crd_size
    while idx < len(lines) and lines[idx].strip()[:1] in ("", "%"):
        idx += 1
    if idx >= len(lines):
        raise MatrixMarketError("missing size line", len(lines))
    size_parts = lines[idx].split()
    try:
        nrows, ncols, nnz = (int(p) for p in size_parts[:3])
    except (ValueError, IndexError):
        raise MatrixMarketError(f"malformed size line {lines[idx].strip()!r}", idx + 1)
    if nrows != ncols:
        raise MatrixMarketError(f"matrix is {nrows}x{ncols}, expected square", idx + 1)

    rows, cols, vals = [], [], []
    entry_lines = [
        (k + 1, line) for k, line in enumerate(lines) if k > idx and line.strip()
    ]
    for lineno, line in entry_lines:
        parts = line.split()
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2]) if field != "pattern" else 1.0
        except (ValueError, IndexError):
            raise MatrixMarketError(f"malformed entry {line.strip()!r}", lineno)
        if not math.isfinite(v):
            raise MatrixMarketError(f"non-finite value {parts[2]!r}", lineno)
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise MatrixMarketError(f"index ({i}, {j}) out of range", lineno)
        if symmetry == "symmetric" and i < j:
            raise MatrixMarketError(
                f"entry ({i}, {j}) above the diagonal of a symmetric file", lineno
            )
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
    if len(rows) != nnz:
        raise MatrixMarketError(
            f"header promised {nnz} entries, found {len(rows)}", len(lines)
        )

    sym = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
    if symmetry == "symmetric":
        lower = sp.tril(sym, k=-1)
        sym = (sp.diags(sym.diagonal()) + lower + lower.T).tocsr()

    if normalize_adjacency:
        degrees = np.asarray(abs(sym).sum(axis=1)).ravel()
        inv_sqrt = np.zeros_like(degrees)
        nz = degrees > 0
        inv_sqrt[nz] = 1.0 / np.sqrt(degrees[nz])
        D = sp.diags(inv_sqrt)
        sym = D @ sym @ D
    return SparseOperator(sym)
