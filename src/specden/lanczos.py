"""Lanczos tridiagonalization, with partial reorthogonalization or none.

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

Gauss quadrature itself needs no orthogonality: finite-precision Lanczos
acts like exact Lanczos on a matrix whose eigenvalues lie in tiny clusters
around A's, and the ghost copies of a converged Ritz value share its
weight (Greenbaum, Linear Algebra Appl. 113, 1989).  A run asked for no
basis therefore keeps only each recurrence's last two vectors, with no
omega estimates and no Gram-Schmidt pass.  Up to the first step at which
the kept-basis run reorthogonalizes, it does that run's arithmetic bit for
bit.  Past it, where the ghost copies appear depends on round-off, so a
change of A by one unit in the last place moves the quadrature: slq's W1
on 500 evenly spaced eigenvalues moved by 1.5e-5 relative where the
kept-basis run's moved by 1e-14.  It can also miss an invariant
subspace: on ``low_rank:500`` (101 distinct eigenvalues) the plain
residual never fell below the breakdown threshold, so the run took all m
steps where the kept-basis run stops after 101.

``lanczos_lockstep`` runs k independent recurrences side by side so that
each step costs one block product ``A.apply_block`` instead of k single
products, and returns one ``TridiagonalFactorization`` per start; ``lanczos``
is its k = 1 case.  The engine charges no ledger: each caller charges its
runs' ``m_effective`` to its own stage.  The omega estimates are arrays
over the block of trials, updated for all running trials at once.  One loop runs the Gram-Schmidt
pass on the trials each step picks, one at a time: none with no basis, the
ones omega flags with a kept basis, and all in deflation's run
(``basis="full"``), which needs orthonormal Ritz vectors and tracks no
omega.  With no basis there is no ``Q`` to fit in memory, so any number of
recurrences can share the block product.  Every kept ``Q`` obeys one
memory rule, ``kept_columns``.  A non-finite alpha or eta means A's
products overflow float64, and the run raises ``OperatorError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import require_finite_products

# An off-diagonal below BREAKDOWN_RTOL * scale(T) signals an invariant
# subspace; iteration stops and the remaining applications are not made.
BREAKDOWN_RTOL = 1e-12

# A Gram-Schmidt pass that leaves less than REPEAT_RATIO of the vector's norm
# has cancelled enough to lose orthogonality, so it is repeated once.
REPEAT_RATIO = 1.0 / math.sqrt(2.0)

EPS = np.finfo(float).eps
# Largest estimated |q_i^T q_j| a run lets pass before it reorthogonalizes.
SEMI_ORTHOGONALITY = math.sqrt(EPS)

# Most memory the kept Lanczos bases of one ``lanczos_lockstep`` call may
# take together, read only by ``kept_columns``.  This bounds the peak
# footprint: the sparse-graph benchmark's peak memory (about 169 MB) is set
# by the largest bases that fit, slq@200's 15 x 200 x 3000 floats (72 MB).
LOCKSTEP_BASIS_BYTES = 96 * 2**20


def kept_columns(n, k=1):
    """Most columns each of k kept bases of n floats may have together."""
    return LOCKSTEP_BASIS_BYTES // (8 * n * k)


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
    second Gram-Schmidt pass.  ``Q`` is None for a run that kept no basis.
    """

    alpha: np.ndarray
    eta: np.ndarray
    Q: np.ndarray = None
    beta: float = math.nan
    reorth_repeats: int = 0
    reorthogonalized: int = 0

    @property
    def m_effective(self):
        return self.alpha.size


@dataclass
class RitzDecomposition:
    """Ritz values theta_j of T by descending magnitude, with the Gauss
    quadrature weights (e_1^T s_j)^2, which sum to 1, Ritz residuals
    beta |e_m^T s_j| (nan for a hand-built T) and, as columns of
    ``vectors``, the unit eigenvectors s_j of T s_j = theta_j s_j."""

    values: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray
    vectors: np.ndarray


def magnitude_order(values):
    """Descending |value|; ties broken by larger signed value first."""
    values = np.asarray(values, dtype=float)
    return np.lexsort((-values, -np.abs(values)))


def lanczos(A, g, m, ledger=None):
    """Run m Lanczos iterations from unit vector g, keeping the basis.

    Consumes exactly m applications of A (fewer on breakdown), charged to
    ``ledger`` as ``lanczos``.  Raises for a non-unit start or m > dimension.
    """
    g = np.asarray(g, dtype=float)
    (fact,) = lanczos_lockstep(A, g[:, None], m)
    if ledger is not None:
        ledger.charge("lanczos", fact.m_effective)
    return fact


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


def lanczos_lockstep(A, G, m, basis=True):
    """Run m Lanczos iterations from each unit column of the n x k block G.

    The k recurrences are independent: each step applies A once to the
    current vectors of every trial that has not broken down (m each, fewer
    on breakdown), and charges no ledger.  The omega estimates for q_i and
    q_{i-1} are two k x m arrays, one row per trial, and each step updates
    the rows of the running trials as one array expression.  A trial whose new row would pass
    SEMI_ORTHOGONALITY runs the DGKS step ``reorthogonalize`` on its
    residual, one flagged trial at a time; so does its next step, and each
    such step resets its row to eps.  The recurrence's rounding term is
    eps sqrt(n) scale(T), scale(T) being the running max of |alpha| and
    eta: with eps (eta_k + eta_i) the estimate fell behind the true loss on
    ``gaussian:500`` at m = n, which then grew to 1.  Breakdown is tested
    after any reorthogonalization.  The last step forms its three-term
    residual only for its norm beta, with no omega update and no flagged
    trial.  Outside the block product, every sum is a dot or
    matrix-vector product on one trial's contiguous rows, as in a
    single-vector run, so each trial is bit for bit its single run.
    With ``basis`` false the runs keep only q_i and q_{i-1}, track no omega
    and never reorthogonalize; with ``basis="full"`` they track no omega and
    every step, the last too, picks every trial for the one DGKS loop.  The
    breakdown test is as above.  Returns one ``TridiagonalFactorization`` per
    column of G, each a view into storage the k runs share.
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
    if basis not in (True, False, "full"):
        raise LanczosError(f"basis must be True, False or 'full': {basis!r}")
    full = basis == "full"
    omega = basis and not full

    Q = np.empty((k, m, n)) if basis else None
    alpha = np.empty((k, m))
    # Row t holds trial t's m_effective - 1 off-diagonals, then its beta.
    eta = np.empty((k, m))
    m_eff = np.zeros(k, dtype=int)
    repeats = np.zeros(k, dtype=int)
    reorths = np.zeros(k, dtype=int)
    if omega:
        # Row t of cur holds trial t's omega estimates q_i^T q_j for j <= i,
        # and of prev those for q_{i-1}; forced marks the trials whose step
        # i must reorthogonalize because step i - 1 found the basis slipping.
        prev = np.empty((k, m))
        cur = np.ones((k, m))
        forced = np.zeros(k, dtype=bool)
        noise_unit = EPS * math.sqrt(n)
    # Rows of U and U_prev are q_i and q_{i-1} of the running trials act,
    # entries of scale and b their scale(T) and eta_{i-1}.  rows picks act's
    # rows of the k-row arrays, as a cheaper slice until a trial breaks down.
    U, U_prev = np.array(G.T, order="C"), None
    if basis:
        Q[:, 0] = U
    act, rows = np.arange(k), slice(None)
    scale, b = np.full(k, 1e-300), np.zeros(k)
    for i in range(m):
        # Row-major products keep every trial's vector contiguous, and each
        # residual is formed in place in its row of the new product.
        W = np.ascontiguousarray(A.apply_block(U.T).T)
        a = np.array(list(map(np.dot, U, W)))
        alpha[rows, i] = a
        m_eff[rows] = i + 1
        scale = np.maximum(scale, np.abs(a))
        W -= a[:, None] * U
        if i > 0:
            W -= b[:, None] * U_prev
        # picked holds the positions in act of the trials whose residual
        # takes the DGKS pass, which also gives its norm.
        if full:
            eta_i, picked = np.empty(act.size), range(act.size)
        else:
            eta_i, picked = np.array([np.linalg.norm(r) for r in W]), ()
        if omega and i + 1 < m:
            noise = noise_unit * scale
            # eta_i (q_{i+1}^T q_j) for j < i by Simon's recurrence, noise
            # left out.
            e, c = eta[rows, :i], cur[rows, : i + 1]
            num = (
                e * c[:, 1:] + (alpha[rows, :i] - a[:, None]) * c[:, :-1]
                - b[:, None] * prev[rows, :i]
            )
            num[:, 1:] += e[:, :-1] * c[:, :-2]
            # |num_j + sign(num_j) noise| / eta_i, and noise / eta_i for j = i.
            worst = np.abs(num).max(axis=1, initial=0.0) + noise
            reorth = forced[rows] | (worst > SEMI_ORTHOGONALITY * eta_i)
            row = np.full((act.size, i + 2), EPS)
            keep = ~reorth
            row[keep, :i] = (
                num[keep] + np.copysign(noise[keep, None], num[keep])
            ) / eta_i[keep, None]
            row[keep, i] = noise[keep] / eta_i[keep]
            row[:, i + 1] = 1.0
            prev[rows, : i + 2] = row
            prev, cur = cur, prev
            # A step that reorthogonalizes forces the next, unless it was
            # forced.
            forced[rows] = reorth & ~forced[rows]
            picked = np.flatnonzero(reorth).tolist()
        for j in picked:
            t = act[j]
            eta_i[j], repeated = reorthogonalize(Q[t, : i + 1], W[j])
            repeats[t] += repeated
            reorths[t] += 1
        # An alpha that is not finite makes eta_i so: one test covers both.
        eta[rows, i] = require_finite_products(eta_i)
        if i + 1 == m:
            break
        alive = eta_i >= BREAKDOWN_RTOL * scale
        if not alive.all():
            act = rows = act[alive]
            scale, eta_i, U, W = scale[alive], eta_i[alive], U[alive], W[alive]
            if not act.size:
                break
        scale = np.maximum(scale, eta_i)
        U_prev, U, b = U, W / eta_i[:, None], eta_i
        if basis:
            Q[rows, i + 1] = U
    return [
        TridiagonalFactorization(
            alpha[t, :j], eta[t, : j - 1], Q[t, :j].T if basis else None,
            beta=float(eta[t, j - 1]), reorth_repeats=int(repeats[t]),
            reorthogonalized=int(reorths[t]),
        )
        for t, j in enumerate(m_eff)
    ]


def tridiag_eig(fact):
    """T's ``RitzDecomposition``, the one place T is diagonalized: the Gauss
    weights read row 1 of its eigenvectors, the residuals row m."""
    values, vectors = scipy.linalg.eigh_tridiagonal(fact.alpha, fact.eta)
    order = magnitude_order(values)
    values, vectors = values[order], vectors[:, order]
    return RitzDecomposition(
        values, vectors[0] ** 2, fact.beta * np.abs(vectors[-1]), vectors
    )


def tridiag_hat_eigvals(fact):
    """Ascending eigenvalues of T-hat, T without its first row and column,
    with no eigenvectors; empty when T is 1 x 1.  A simple Ritz value that
    is also one of these has no weight on the start vector: it is a
    spurious copy of a converged one (Cullum and Willoughby, J. Comput.
    Phys. 44, 1981)."""
    if fact.m_effective < 2:
        return np.empty(0)
    return scipy.linalg.eigvalsh_tridiagonal(fact.alpha[1:], fact.eta[1:])

