"""Deterministic seeded random sources.

Streams are keyed by (seed, stream_id) on a counter-based Philox generator,
so parallel trials reproduce bit-for-bit regardless of scheduling.  Gaussian
draws use numpy's ziggurat ``standard_normal``; this choice is fixed for
reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeededStream:
    """Value-like handle for an independent random stream."""

    seed: int
    stream_id: int = 0

    def generator(self):
        key = (self.seed & _MASK64) | ((self.stream_id & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, k):
        """Derive a distinct child stream; deterministic in (self, k)."""
        return SeededStream(self.seed, (self.stream_id * 1000003 + k + 1) & _MASK64)


def gaussian_matrix(rows, cols, stream):
    """rows x cols matrix of i.i.d. N(0, 1) entries."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    return stream.generator().standard_normal((rows, cols))


def gaussian_vector(n, stream):
    if n < 1:
        raise ValueError("n must be >= 1")
    return stream.generator().standard_normal(n)


def unit_sphere_vector(n, stream):
    """Uniform draw from the unit sphere: a normalized Gaussian vector."""
    g = gaussian_vector(n, stream)
    norm = np.linalg.norm(g)
    while norm == 0.0:  # probability zero, but keep the contract total
        g = stream.substream(0).generator().standard_normal(n)
        norm = np.linalg.norm(g)
    return g / norm


def random_orthogonal(n, stream):
    """Haar-distributed random orthogonal matrix: sign-fixed QR of a Gaussian.

    Q from the QR factorization G = QR of an n x n Gaussian G, with each
    column multiplied by the sign of R's diagonal entry, is exactly Haar
    distributed (Mezzadri, "How to generate random matrices from the
    classical compact groups", Notices AMS 54, 2007).  LAPACK's ``dgeqrf``
    and ``dorgqr`` run in place on one column-major copy of G, with the
    workspace sizes their ``lwork = -1`` queries return.  So this holds one
    n x n array, and two only while that copy is made (``np.linalg.qr``
    holds about four); Q is returned column-major.

    Q equals ``np.linalg.qr``'s sign-fixed Q bit for bit on one BLAS
    thread.  With several threads numpy's and scipy's OpenBLAS builds may
    split the work differently: at n = 500 and 1000 on two threads Q moved
    by under 4e-14, each build being deterministic on its own.
    """
    # The C-ordered draw is freed as soon as its column-major copy exists.
    a = np.asfortranarray(gaussian_matrix(n, n, stream))
    a, tau = _lapack_in_place("dgeqrf", a)
    signs = np.sign(np.diag(a))
    signs[signs == 0] = 1.0
    (q,) = _lapack_in_place("dorgqr", a, tau)
    q *= signs
    return q


def _lapack_in_place(name, a, *args):
    """Outputs of LAPACK routine ``name`` run on a, which it overwrites.

    The workspace is the optimal size its ``lwork = -1`` query returns; the
    default size would run another blocking, and so other bits.
    """
    routine = getattr(scipy.linalg.lapack, name)
    *_, work, info = routine(a, *args, lwork=-1, overwrite_a=1)
    if info == 0:
        *outputs, _, info = routine(a, *args, lwork=int(work[0]), overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} returned info = {info}")
    return outputs
