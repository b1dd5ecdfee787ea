"""Lanczos tridiagonalization with full reorthogonalization.

The three-term recurrence builds an orthonormal basis Q of the Krylov space
of (A, g) together with the tridiagonal T = Q^T A Q.  Every new vector is
reorthogonalized by a classical Gram-Schmidt pass against all previous
columns, and by a second pass only when the first one cancels most of its
norm (the Daniel-Gragg-Kaufman-Stewart test: "twice is enough").  Without
reorthogonalization the computed basis loses orthogonality long before
m = n.

``lanczos_lockstep`` runs k independent recurrences side by side so that
each step costs one block product ``A.apply_block`` instead of k single
products, and returns one ``TridiagonalFactorization`` per start; ``lanczos``
is its k = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# An off-diagonal below BREAKDOWN_RTOL * scale(T) signals an invariant
# subspace; iteration stops and the remaining applications are not charged.
BREAKDOWN_RTOL = 1e-12

# A Gram-Schmidt pass that leaves less than REPEAT_RATIO of the vector's norm
# has cancelled enough to lose orthogonality, so it is repeated once.
REPEAT_RATIO = 1.0 / math.sqrt(2.0)


class LanczosError(ValueError):
    pass


@dataclass
class TridiagonalFactorization:
    """Lanczos output: T (alpha diagonal, eta off-diagonal) and basis Q.

    ``m_effective`` counts iterations completed before breakdown; alpha has
    length m_effective and eta one less.  ``reorth_repeats`` counts the
    steps that needed a second Gram-Schmidt pass.
    """

    alpha: np.ndarray
    eta: np.ndarray
    Q: np.ndarray
    reorth_repeats: int = 0

    @property
    def m_effective(self):
        return self.alpha.size


@dataclass
class RitzDecomposition:
    """Eigendecomposition of T, sorted by descending eigenvalue magnitude.

    ``weights`` are the squared first components (v_j^T e_1)^2 and sum to 1.
    """

    values: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray


def magnitude_order(values):
    """Descending |value|; ties broken by larger signed value first."""
    values = np.asarray(values, dtype=float)
    return np.lexsort((-values, -np.abs(values)))


def lanczos(A, g, m, ledger=None):
    """Run m Lanczos iterations from unit vector g.

    Consumes exactly m applications of A (fewer on breakdown).  Raises for a
    non-unit start or m > dimension.
    """
    g = np.asarray(g, dtype=float)
    return lanczos_lockstep(A, g[:, None], m, [ledger])[0]


def reorthogonalize(basis, r):
    """Remove from r, in place, its components along the rows of basis.

    One classical Gram-Schmidt pass, and a second one when the first leaves
    less than REPEAT_RATIO of r's norm.  Returns r's final norm and whether
    the pass was repeated.
    """
    before = np.linalg.norm(r)
    r -= basis.T @ (basis @ r)
    after = np.linalg.norm(r)
    if after >= REPEAT_RATIO * before:
        return after, False
    r -= basis.T @ (basis @ r)
    return np.linalg.norm(r), True


def lanczos_lockstep(A, G, m, ledgers=None):
    """Run m Lanczos iterations from each unit column of the n x k block G.

    The k recurrences are independent: each step applies A once to the
    current vectors of every trial that has not broken down, and trial t's
    applications are charged to ``ledgers[t]`` (m each, fewer on
    breakdown).  Outside the block product, every reduction is a dot or
    matrix-vector product on one trial's contiguous rows, as in a
    single-vector run.  Returns one ``TridiagonalFactorization`` per column
    of G, each a view into storage the k runs share.
    """
    G = np.asarray(G, dtype=float)
    n = A.dimension
    if G.ndim != 2 or G.shape[0] != n:
        raise LanczosError(f"start block has shape {G.shape}, dimension is {n}")
    k = G.shape[1]
    if np.any(np.abs(np.linalg.norm(G, axis=0) - 1.0) > 1e-10):
        raise LanczosError("starting vector must have unit norm")
    if not 1 <= m <= n:
        raise LanczosError(f"need 1 <= m <= n, got m={m}, n={n}")
    if ledgers is None:
        ledgers = [None] * k
    if len(ledgers) != k:
        raise LanczosError(f"got {len(ledgers)} ledgers for {k} starting vectors")

    Q = np.empty((k, m, n))
    alpha = np.empty((k, m))
    eta = np.empty((k, max(m - 1, 0)))
    m_eff = np.zeros(k, dtype=int)
    repeats = np.zeros(k, dtype=int)
    scale = np.full(k, 1e-300)
    Q[:, 0] = G.T
    active = list(range(k))
    for i in range(m):
        # Row-major products keep every trial's vector contiguous; the copy
        # is the trials' own, so each residual is formed in place in its row.
        W = np.array(A.apply_block(Q[active, i].T).T, order="C")
        survivors = []
        for r, t in zip(W, active):
            if ledgers[t] is not None:
                ledgers[t].charge("lanczos")
            q = Q[t, i]
            a = q @ r
            alpha[t, i] = a
            scale[t] = max(scale[t], abs(a))
            m_eff[t] = i + 1
            if i + 1 == m:
                continue
            r -= a * q
            if i > 0:
                r -= eta[t, i - 1] * Q[t, i - 1]
                scale[t] = max(scale[t], eta[t, i - 1])
            eta_i, repeated = reorthogonalize(Q[t, : i + 1], r)
            repeats[t] += repeated
            if eta_i < BREAKDOWN_RTOL * scale[t]:
                continue
            Q[t, i + 1] = r / eta_i
            eta[t, i] = eta_i
            survivors.append(t)
        active = survivors
        if not active:
            break
    return [
        TridiagonalFactorization(alpha[t, :j], eta[t, : j - 1], Q[t, :j].T, int(r))
        for t, (j, r) in enumerate(zip(m_eff, repeats))
    ]


def tridiag_eig(fact):
    """Exact eigendecomposition of the tridiagonal T with first-row weights."""
    m = fact.m_effective
    if m == 1:
        values = fact.alpha.copy()
        vectors = np.ones((1, 1))
    else:
        values, vectors = scipy.linalg.eigh_tridiagonal(fact.alpha, fact.eta)
    order = magnitude_order(values)
    values = values[order]
    vectors = vectors[:, order]
    first_row = vectors[0, :]
    return RitzDecomposition(
        values=values,
        vectors=vectors,
        weights=first_row**2,
    )

