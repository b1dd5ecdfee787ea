"""Lanczos tridiagonalization with partial reorthogonalization.

The three-term recurrence builds a basis Q of the Krylov space of (A, g)
together with the tridiagonal T = Q^T A Q.  In floating point the basis
loses orthogonality as Ritz values converge, long before m = n.  Gauss
quadrature and the Ritz values need it only semi-orthogonal: while every
|q_i^T q_j| <= sqrt(eps), T is, to working accuracy, the tridiagonal of an
exactly orthogonal basis (Simon, Math. Comp. 42, 1984).  Each run therefore
tracks the estimates omega_ij of q_i^T q_j by Simon's recurrence, at O(m)
cost per step, and reorthogonalizes only when the largest one passes
sqrt(eps): that step and the next run a classical Gram-Schmidt pass against
all previous columns, repeated only when the first cancels most of its
norm (the Daniel-Gragg-Kaufman-Stewart test: "twice is enough").

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

EPS = np.finfo(float).eps
# Largest estimated |q_i^T q_j| a run lets pass before it reorthogonalizes.
SEMI_ORTHOGONALITY = math.sqrt(EPS)


class LanczosError(ValueError):
    pass


@dataclass
class TridiagonalFactorization:
    """Lanczos output: T (alpha diagonal, eta off-diagonal) and basis Q.

    ``m_effective`` counts iterations completed before breakdown; alpha has
    length m_effective and eta one less.  ``beta`` is the norm of the last
    step's residual r in A Q = Q T + r e_m^T: the three-term residual after
    m steps, the breakdown eta after a breakdown.  The Ritz pair
    (theta_j, Q s_j) of T s_j = theta_j s_j then has residual
    ||A Q s_j - theta_j Q s_j|| = beta |e_m^T s_j| (Parlett, The Symmetric
    Eigenvalue Problem, 1998, section 13.1).  It is nan when unknown, as for
    a hand-built T.  ``reorth_repeats`` counts the steps that needed a
    second Gram-Schmidt pass.
    """

    alpha: np.ndarray
    eta: np.ndarray
    Q: np.ndarray
    beta: float = math.nan
    reorth_repeats: int = 0
    reorthogonalized: int = 0

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


def _omega_numerators(alpha, eta, prev, cur):
    """eta_i (q_{i+1}^T q_k) for k < i by Simon's recurrence, noise left out.

    alpha and eta hold alpha_0..alpha_i and eta_0..eta_{i-1}; ``cur`` holds
    the estimates q_i^T q_k for k <= i and ``prev`` q_{i-1}^T q_k for
    k <= i - 1 (each ending in 1).
    """
    i = alpha.size - 1
    if i == 0:
        return np.empty(0)
    num = eta * cur[1:] + (alpha[:i] - alpha[i]) * cur[:i] - eta[i - 1] * prev
    num[1:] += eta[:-1] * cur[: i - 1]
    return num


def lanczos_lockstep(A, G, m, ledgers=None):
    """Run m Lanczos iterations from each unit column of the n x k block G.

    The k recurrences are independent: each step applies A once to the
    current vectors of every trial that has not broken down, and trial t's
    applications are charged to ``ledgers[t]`` at the end (m each, fewer on
    breakdown).  Each trial carries two rows of omega estimates, for q_i and
    q_{i-1}.  A step whose new row would pass SEMI_ORTHOGONALITY runs the
    DGKS step ``reorthogonalize`` on its residual, so does the step after
    it, and each such step resets its row to eps.  The recurrence's
    rounding term is eps sqrt(n) scale(T), scale(T) being the running max
    of |alpha| and eta: with eps (eta_k + eta_i) the estimate fell behind
    the true loss on ``gaussian:500`` at m = n, which then grew to 1.
    Breakdown is tested after any reorthogonalization.  The last step forms
    its three-term residual only for its norm beta, with no product and no
    reorthogonalization.  Outside the block product, every reduction is a
    dot or matrix-vector product on one trial's contiguous rows, as in a
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
    # Row t holds trial t's m_effective - 1 off-diagonals, then its beta.
    eta = np.empty((k, m))
    m_eff = np.zeros(k, dtype=int)
    repeats = np.zeros(k, dtype=int)
    reorths = np.zeros(k, dtype=int)
    scale = np.full(k, 1e-300)
    # Trial t's omega rows for q_{i-1} and q_i, and whether step i must
    # reorthogonalize because step i - 1 found the basis slipping.
    omega = [(None, np.ones(1)) for _ in range(k)]
    forced = np.zeros(k, dtype=bool)
    noise_unit = EPS * math.sqrt(n)
    Q[:, 0] = G.T
    active = list(range(k))
    for i in range(m):
        # Row-major products keep every trial's vector contiguous; the copy
        # is the trials' own, so each residual is formed in place in its row.
        W = np.array(A.apply_block(Q[active, i].T).T, order="C")
        survivors = []
        for r, t in zip(W, active):
            q = Q[t, i]
            a = q @ r
            alpha[t, i] = a
            scale[t] = max(scale[t], abs(a))
            m_eff[t] = i + 1
            r -= a * q
            if i > 0:
                r -= eta[t, i - 1] * Q[t, i - 1]
                scale[t] = max(scale[t], eta[t, i - 1])
            eta_i = np.linalg.norm(r)
            if i + 1 == m:
                eta[t, i] = eta_i
                continue
            noise = noise_unit * scale[t]
            prev, cur = omega[t]
            reorth = forced[t]
            if not reorth:
                num = _omega_numerators(alpha[t, : i + 1], eta[t, :i], prev, cur)
                # |num_k + sign(num_k) noise| / eta_i, and noise / eta_i for k = i.
                worst = np.abs(num).max(initial=0.0) + noise
                reorth = worst > SEMI_ORTHOGONALITY * eta_i
            if reorth:
                eta_i, repeated = reorthogonalize(Q[t, : i + 1], r)
                repeats[t] += repeated
                reorths[t] += 1
                row = np.full(i + 2, EPS)
                forced[t] = not forced[t]
            else:
                row = np.empty(i + 2)
                row[:i] = (num + np.copysign(noise, num)) / eta_i
                row[i] = noise / eta_i
            row[i + 1] = 1.0
            omega[t] = (cur, row)
            eta[t, i] = eta_i
            if eta_i < BREAKDOWN_RTOL * scale[t]:
                continue
            Q[t, i + 1] = r / eta_i
            survivors.append(t)
        active = survivors
        if not active:
            break
    for ledger, j in zip(ledgers, m_eff):
        if ledger is not None:
            ledger.charge("lanczos", int(j))
    return [
        TridiagonalFactorization(
            alpha[t, :j], eta[t, : j - 1], Q[t, :j].T,
            beta=float(eta[t, j - 1]), reorth_repeats=int(repeats[t]),
            reorthogonalized=int(reorths[t]),
        )
        for t, j in enumerate(m_eff)
    ]


def tridiag_eig(fact):
    """Exact eigendecomposition of the tridiagonal T with first-row weights."""
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

