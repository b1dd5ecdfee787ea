"""Shared oracles and builders for the test suite.

Everything here is computed by a route independent of the library code it
checks: dense eigendecompositions, brute-force transportation LPs, and
exhaustive vertex enumeration for small moment-matching instances.
"""

import itertools

import numpy as np
import pytest
import scipy.optimize

from specden import DenseOperator, DiscreteDistribution, SeededStream
from specden.chebyshev import TBAR0, TBAR_SCALE
from specden.lanczos import (
    BREAKDOWN_RTOL,
    TridiagonalFactorization,
    lanczos,
    tridiag_eig,
)
from specden.metrics import DistributionError
from specden.operators import OperatorError
from specden.randgen import random_orthogonal, unit_sphere_vector


def cheb_eval(k, x):
    """T_k(x) by the three-term recurrence, restarted for each k; vectorized
    over x."""
    if k < 0:
        raise ValueError("polynomial degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    if k == 0:
        out = np.ones_like(x)
        return out if out.shape else 1.0
    prev, cur = np.ones_like(x), x.copy()
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.shape else float(cur)


def cheb_normalized(k, x):
    """Tbar_k(x): unit-norm Chebyshev polynomial under the 1/sqrt(1-x^2) weight."""
    if k == 0:
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, TBAR0)
        return out if out.shape else float(out)
    return TBAR_SCALE * cheb_eval(k, x)


def random_symmetric(n, seed, spectrum=None):
    """Dense operator with a known spectrum (default: uniform in [-1, 1])."""
    rng = np.random.default_rng(seed)
    if spectrum is None:
        spectrum = rng.uniform(-1.0, 1.0, size=n)
    V = random_orthogonal(n, SeededStream(seed, stream_id=123))
    return DenseOperator((V * spectrum) @ V.T), np.asarray(spectrum, dtype=float)


def dense_from_eigendecomposition(eigs, V):
    """Assemble V diag(eigs) V^T as a dense operator."""
    eigs = np.asarray(eigs, dtype=float)
    V = np.asarray(V, dtype=float)
    n = eigs.shape[0]
    if V.shape != (n, n):
        raise OperatorError(f"V has shape {V.shape}, expected ({n}, {n})")
    if not np.allclose(V.T @ V, np.eye(n), atol=1e-10):
        raise OperatorError("V is not orthonormal")
    return DenseOperator((V * eigs) @ V.T)


def equal_weight_ritz_density(A, m, stream):
    """Ritz values of m Lanczos steps from slq's start, each of mass 1/m_eff.

    The start vector is the one an slq trial drawing from ``stream`` uses;
    at m = n the Ritz values are the spectrum, so this recovers the exact
    density.
    """
    g = unit_sphere_vector(A.dimension, stream)
    values = tridiag_eig(lanczos(A, g, m)).values
    return DiscreteDistribution(values.copy(), np.full(values.size, 1.0 / values.size))


def full_reorthogonalization_lanczos(A, g, m):
    """Lanczos from unit g with two classical Gram-Schmidt passes against
    every earlier vector at every step: the fully orthogonal reference run.

    It stops on the library's breakdown rule, eta < BREAKDOWN_RTOL * scale
    with scale the running max of |alpha| and eta, and forms only the norm
    of the last step's residual, so its m_effective and beta mean what the
    library's do.
    """
    n = A.dimension
    Q = np.zeros((n, m))
    Q[:, 0] = g
    alpha, eta, scale = [], [], 1e-300
    for i in range(m):
        r = A.apply(Q[:, i])
        alpha.append(Q[:, i] @ r)
        scale = max(scale, abs(alpha[-1]))
        r -= alpha[-1] * Q[:, i]
        if i > 0:
            r -= eta[-1] * Q[:, i - 1]
            scale = max(scale, eta[-1])
        if i + 1 < m:
            for _ in range(2):
                r -= Q[:, : i + 1] @ (Q[:, : i + 1].T @ r)
        eta.append(np.linalg.norm(r))
        if i + 1 == m or eta[-1] < BREAKDOWN_RTOL * scale:
            break
        Q[:, i + 1] = r / eta[-1]
    j = len(alpha)
    return TridiagonalFactorization(
        np.array(alpha), np.array(eta[: j - 1]), Q[:, :j], beta=float(eta[-1])
    )


def tridiagonal(fact):
    """The dense m x m tridiagonal T of a Lanczos factorization."""
    T = np.diag(fact.alpha)
    if fact.m_effective > 1:
        T += np.diag(fact.eta, 1) + np.diag(fact.eta, -1)
    return T


def random_distribution(rng, max_atoms=6):
    k = rng.integers(1, max_atoms + 1)
    loc = rng.uniform(-2.0, 2.0, size=k)
    w = rng.uniform(0.1, 1.0, size=k)
    return DiscreteDistribution(loc, w / w.sum())


def transport_lp_w1(p, q):
    """Brute-force optimal-transport LP value between two discrete measures."""
    cost = np.abs(p.locations[:, None] - q.locations[None, :])
    np_, nq = len(p), len(q)
    c = cost.ravel()
    A_eq = []
    for i in range(np_):
        row = np.zeros((np_, nq))
        row[i, :] = 1.0
        A_eq.append(row.ravel())
    for j in range(nq):
        row = np.zeros((np_, nq))
        row[:, j] = 1.0
        A_eq.append(row.ravel())
    b_eq = np.concatenate([p.weights, q.weights])
    res = scipy.optimize.linprog(
        c, A_eq=np.array(A_eq), b_eq=b_eq, bounds=[(0, None)] * (np_ * nq),
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


def vertex_enumeration_l1(T, z):
    """Exact min of ||T q - z||_1 over the probability simplex.

    Optimal points are vertices of the simplex sliced by the hyperplanes
    T_i q = z_i; enumerate every candidate basic solution directly.  Only
    viable for tiny instances (d <= 8, N <= 3).
    """
    N, m = T.shape
    best = np.inf
    ones = np.ones(m)
    for k in range(N + 1):
        for active in itertools.combinations(range(N), k):
            for free in itertools.combinations(range(m), k + 1):
                M = np.vstack([ones[list(free)], T[np.ix_(list(active), list(free))]])
                rhs = np.concatenate([[1.0], z[list(active)]])
                try:
                    x = np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    continue
                if np.any(x < -1e-10):
                    continue
                q = np.zeros(m)
                q[list(free)] = np.clip(x, 0.0, None)
                q /= q.sum()
                best = min(best, float(np.abs(T @ q - z).sum()))
    return best


def sorted_eigenvalue_error(p, q, n):
    """(1/n) sum |lambda_i - lambda_i~| over descending-sorted atom lists.

    Both inputs must be expressible as n equal-weight atoms; equals
    wasserstein1 for such inputs.
    """
    lp = _equal_weight_atoms(p, n)
    lq = _equal_weight_atoms(q, n)
    return float(np.abs(np.sort(lp)[::-1] - np.sort(lq)[::-1]).sum() / n)


def _equal_weight_atoms(dist, n):
    ratios = dist.weights * n
    counts = np.rint(ratios)
    if np.any(np.abs(ratios - counts) > 1e-6) or counts.sum() != n:
        raise DistributionError("weights are not multiples of 1/n")
    return np.repeat(dist.locations, counts.astype(int))


def merge_atoms_loop(loc, w):
    """Sort atoms, then fold each into the previous group when their locations
    are equal, one atom at a time."""
    order = np.argsort(loc, kind="stable")
    loc, w = loc[order], w[order]
    keep_loc, keep_w = [loc[0]], [w[0]]
    for x, wx in zip(loc[1:], w[1:]):
        if x == keep_loc[-1]:
            keep_w[-1] += wx
        else:
            keep_loc.append(x)
            keep_w.append(wx)
    return np.array(keep_loc), np.array(keep_w)


def polynomial_identity_check(A, g, m, coeffs, ledger=None):
    """Residual ||p(A) g - Q p(T) Q^T g|| for a polynomial of degree < m.

    Checks the Krylov polynomial identity; coefficients are in the power
    basis, lowest degree first.
    """
    from specden.lanczos import LanczosError

    coeffs = np.asarray(coeffs, dtype=float)
    degree = coeffs.size - 1
    if degree >= m:
        raise LanczosError(f"polynomial degree {degree} must be < m = {m}")
    fact = lanczos(A, np.asarray(g, dtype=float), m, ledger=ledger)

    # Horner on the operator side: r = c_d g; r = A r + c_k g going down.
    g = np.asarray(g, dtype=float)
    r = coeffs[-1] * g
    for c in coeffs[-2::-1]:
        r = A.apply(r, ledger, stage="identity_check") + c * g
    T = tridiagonal(fact)
    x = fact.Q.T @ g
    y = coeffs[-1] * x
    for c in coeffs[-2::-1]:
        y = T @ y + c * x
    return float(np.linalg.norm(r - fact.Q @ y))


def dense_cheb_quadratic_form(matrix, g, N):
    """g^T Tbar_i(A) g for i = 0..N via eigendecomposition (oracle route)."""
    eigs, V = np.linalg.eigh(matrix)
    c = V.T @ g
    return np.array([float(c**2 @ cheb_normalized(i, eigs)) for i in range(N + 1)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
