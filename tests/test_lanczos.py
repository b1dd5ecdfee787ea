import math

import numpy as np
import pytest
import scipy.sparse as sp

from specden import (
    BudgetLedger,
    DiagonalOperator,
    SeededStream,
    SparseOperator,
    deflate,
)
import specden.lanczos as lanczos_module
from specden.bench import build_matrix
from specden.chebyshev import TBAR_SCALE
from specden.lanczos import (
    EPS,
    LanczosError,
    TridiagonalFactorization,
    lanczos,
    lanczos_lockstep,
    magnitude_order,
    reorthogonalize,
    tridiag_eig,
    tridiag_hat_eigvals,
)
from specden.randgen import random_orthogonal, unit_sphere_vector
from specden.sde import VR_L_CAP, _vr_density

from conftest import (
    cheb_normalized,
    full_reorthogonalization_lanczos,
    normalized_random_graph,
    polynomial_identity_check,
    random_symmetric,
    tridiagonal,
)


def test_hand_two_by_two_recurrence():
    A = DiagonalOperator(np.array([1.0, -1.0]))
    g = np.array([1.0, 1.0]) / np.sqrt(2.0)
    fact = lanczos(A, g, 2)
    np.testing.assert_allclose(fact.alpha, [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(fact.eta, [1.0], atol=1e-14)
    np.testing.assert_allclose(tridiagonal(fact), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_eigenvector_start_breaks_down_immediately():
    A = DiagonalOperator(np.array([3.0, 2.0, 1.0]))
    g = np.array([0.0, 1.0, 0.0])
    ledger = BudgetLedger()
    fact = lanczos(A, g, 3, ledger=ledger)
    assert fact.m_effective == 1
    assert fact.alpha[0] == pytest.approx(2.0)
    # Iterations after breakdown are not charged.
    assert ledger.total == 1


def test_full_run_reproduces_spectrum():
    A, spectrum = random_symmetric(30, seed=4)
    g = unit_sphere_vector(30, SeededStream(4))
    fact = lanczos(A, g, 30)
    ritz = np.sort(np.linalg.eigvalsh(tridiagonal(fact)))
    np.testing.assert_allclose(ritz, np.sort(spectrum), atol=1e-8)


def test_factorization_invariants():
    A, _ = random_symmetric(25, seed=8)
    g = unit_sphere_vector(25, SeededStream(8))
    fact = lanczos(A, g, 15)
    m = fact.m_effective
    np.testing.assert_allclose(fact.Q.T @ fact.Q, np.eye(m), atol=1e-8)
    np.testing.assert_allclose(fact.Q[:, 0], g)
    projected = fact.Q.T @ A.to_dense() @ fact.Q
    assert np.linalg.norm(projected - tridiagonal(fact)) <= 1e-6


def test_input_validation():
    A = DiagonalOperator(np.ones(4))
    with pytest.raises(LanczosError):
        lanczos(A, np.ones(4), 2)
    with pytest.raises(LanczosError):
        lanczos(A, np.eye(4)[0], 5)


def test_lockstep_matches_separate_runs_with_staggered_breakdown():
    # Five distinct eigenvalues, each three times: a generic start breaks
    # down after 5 steps, one in the span of two eigenvectors after 2.
    A = DiagonalOperator(np.repeat([1.0, 0.6, -0.2, -0.7, 0.9], 3))
    n, m = 15, 8
    rng = np.random.default_rng(3)
    two = np.zeros(n)
    two[[0, 4]] = rng.standard_normal(2)
    starts = [rng.standard_normal(n), two, rng.standard_normal(n)]
    G = np.column_stack([g / np.linalg.norm(g) for g in starts])
    ledgers = [BudgetLedger() for _ in starts]
    block = lanczos_lockstep(A, G, m, ledgers=ledgers)
    assert [fact.m_effective for fact in block] == [5, 2, 5]
    for t in range(3):
        single_ledger = BudgetLedger()
        single = lanczos(A, G[:, t], m, ledger=single_ledger)
        fact = block[t]
        assert fact.m_effective == single.m_effective
        np.testing.assert_allclose(fact.alpha, single.alpha, atol=1e-10)
        np.testing.assert_allclose(fact.eta, single.eta, atol=1e-10)
        assert ledgers[t].counts == {"lanczos": fact.m_effective}
        assert single_ledger.counts == ledgers[t].counts
        assert fact.Q.base is block[0].Q.base is not None


def test_lockstep_matches_separate_runs_on_dense():
    A, _ = random_symmetric(40, seed=9)
    G = np.column_stack(
        [unit_sphere_vector(40, SeededStream(9).substream(t)) for t in range(4)]
    )
    block = lanczos_lockstep(A, G, 20)
    for t in range(4):
        single = lanczos(A, G[:, t], 20)
        fact = block[t]
        assert fact.m_effective == single.m_effective == 20
        np.testing.assert_allclose(fact.alpha, single.alpha, atol=1e-10)
        np.testing.assert_allclose(fact.eta, single.eta, atol=1e-10)
        np.testing.assert_allclose(fact.Q.T @ fact.Q, np.eye(20), atol=1e-8)
    with pytest.raises(LanczosError):
        lanczos_lockstep(A, G, 20, ledgers=[BudgetLedger()])
    with pytest.raises(LanczosError):
        lanczos_lockstep(A, 2.0 * G, 20)
    with pytest.raises(LanczosError, match="basis must be"):
        lanczos_lockstep(A, G, 20, basis="partial")


def _bit_for_bit_cases():
    return {
        # 101 distinct eigenvalues: every run breaks down after 101 steps.
        "low_rank": (build_matrix("low_rank:500", seed=0), 200),
        "inverse": (build_matrix("inverse:500", seed=0), 200),
        "graph": (normalized_random_graph(3000), 150),
    }


@pytest.mark.parametrize(
    "case, basis",
    [
        pytest.param(case, basis, id=case if basis is True else f"{case}-full")
        for basis in (True, "full")
        for case in _bit_for_bit_cases()
    ],
)
def test_lockstep_trial_is_its_single_run_bit_for_bit(case, basis):
    # Each trial of a block does exactly its single run's arithmetic, so
    # its tridiagonal, beta and reorthogonalization counts are equal to the
    # bit; omega fires 17 to 90 times per trial on these cases, and the
    # full policy reorthogonalizes every step.
    A, m = _bit_for_bit_cases()[case]
    n = A.dimension
    G = np.column_stack(
        [unit_sphere_vector(n, SeededStream(5).substream(t)) for t in range(5)]
    )
    for t, fact in enumerate(lanczos_lockstep(A, G, m, basis=basis)):
        (single,) = lanczos_lockstep(A, G[:, [t]], m, basis=basis)
        assert fact.m_effective == single.m_effective == (101 if case == "low_rank" else m)
        np.testing.assert_array_equal(fact.alpha, single.alpha)
        np.testing.assert_array_equal(fact.eta, single.eta)
        assert fact.beta == single.beta
        if basis is True:
            assert fact.reorthogonalized == single.reorthogonalized >= 17
        else:
            assert fact.reorthogonalized == single.reorthogonalized == fact.m_effective
        assert fact.reorth_repeats == single.reorth_repeats


def basis_free(A, g, m):
    """One Lanczos run from g that keeps no basis, as slq's trials run."""
    return lanczos_lockstep(A, g[:, None], m, basis=False)[0]


@pytest.mark.parametrize("case", list(_bit_for_bit_cases()))
def test_basis_free_lockstep_trial_is_its_single_run_bit_for_bit(case):
    # Without a basis the runs never reorthogonalize, and the plain
    # recurrence on low_rank finds no invariant subspace, so every run
    # takes all m steps.
    A, m = _bit_for_bit_cases()[case]
    n = A.dimension
    G = np.column_stack(
        [unit_sphere_vector(n, SeededStream(5).substream(t)) for t in range(5)]
    )
    for t, fact in enumerate(lanczos_lockstep(A, G, m, basis=False)):
        single = basis_free(A, G[:, t], m)
        assert fact.Q is single.Q is None
        assert fact.m_effective == single.m_effective == m
        np.testing.assert_array_equal(fact.alpha, single.alpha)
        np.testing.assert_array_equal(fact.eta, single.eta)
        assert fact.beta == single.beta
        assert fact.reorthogonalized == fact.reorth_repeats == 0


@pytest.mark.parametrize("case", list(_bit_for_bit_cases()))
def test_basis_free_run_is_a_prefix_of_the_kept_basis_run(case, monkeypatch):
    # Up to the first step i at which the kept-basis run reorthogonalizes,
    # the basis-free run does its arithmetic: alpha_0..alpha_i and
    # eta_0..eta_{i-1} are equal to the bit, and alpha_{i+1} is not.  A
    # basis-free run to m/2 is in turn the leading part of one to m, its
    # beta being the longer run's eta_{m/2-1}.
    A, m = _bit_for_bit_cases()[case]
    n = A.dimension
    reorthogonalize_once = lanczos_module.reorthogonalize
    first = []

    def recording(basis, r):
        first.append(basis.shape[0] - 1)
        return reorthogonalize_once(basis, r)

    for t in range(5):
        g = unit_sphere_vector(n, SeededStream(5).substream(t))
        first.clear()
        monkeypatch.setattr(lanczos_module, "reorthogonalize", recording)
        kept = lanczos(A, g, m)
        monkeypatch.undo()
        i = first[0]
        free = basis_free(A, g, m)
        np.testing.assert_array_equal(free.alpha[: i + 1], kept.alpha[: i + 1])
        np.testing.assert_array_equal(free.eta[:i], kept.eta[:i])
        assert free.alpha[i + 1] != kept.alpha[i + 1]
        half = basis_free(A, g, m // 2)
        np.testing.assert_array_equal(half.alpha, free.alpha[: m // 2])
        np.testing.assert_array_equal(half.eta, free.eta[: m // 2 - 1])
        assert half.beta == free.eta[m // 2 - 1]


def test_reorthogonalize_repeats_the_pass_when_the_first_cancels():
    n, k = 200, 30
    basis = random_orthogonal(n, SeededStream(31))[:k]
    rng = np.random.default_rng(31)
    perp = rng.standard_normal(n)
    perp -= basis.T @ (basis @ perp)
    perp /= np.linalg.norm(perp)
    r = basis.T @ rng.standard_normal(k) + 1e-10 * perp
    eta, repeated = reorthogonalize(basis, r)
    assert repeated
    assert eta == np.linalg.norm(r)
    assert eta == pytest.approx(1e-10, rel=1e-4)
    assert np.abs(basis @ (r / eta)).max() <= 1e-14


def test_reorthogonalize_makes_one_pass_for_a_generic_vector():
    n, k = 200, 30
    basis = random_orthogonal(n, SeededStream(32))[:k]
    r = np.random.default_rng(32).standard_normal(n)
    once = r - basis.T @ (basis @ r)
    eta, repeated = reorthogonalize(basis, r)
    assert not repeated
    np.testing.assert_array_equal(r, once)
    assert eta == np.linalg.norm(once)


@pytest.mark.parametrize(
    "spec", ["power_law:500", "low_rank:500", "uniform:500", "inverse:500", "gaussian:500"]
)
def test_lockstep_basis_stays_orthonormal_up_to_m_equal_n(spec):
    # Partial reorthogonalization keeps the basis semi-orthogonal: every
    # |q_i^T q_j| within sqrt(eps), the level at which T is the tridiagonal
    # of an orthonormal basis to working accuracy, and every eta within
    # 2 ||A||.  gaussian:500 at m = n is where an omega recurrence with too
    # small a rounding term missed the loss, which then grew to 1.
    A = build_matrix(spec, seed=1)
    n = A.dimension
    norm = np.abs(np.linalg.eigvalsh(A.to_dense())).max()
    G = np.column_stack(
        [unit_sphere_vector(n, SeededStream(1).substream(t)) for t in range(2)]
    )
    for m in (n, 200):
        for fact in lanczos_lockstep(A, G, m):
            k = fact.m_effective
            assert np.abs(fact.Q.T @ fact.Q - np.eye(k)).max() <= math.sqrt(EPS)
            assert fact.eta.max() <= 2.0 * norm
            assert 0 <= fact.reorth_repeats <= fact.reorthogonalized < k


def _reference_cases():
    M = sp.random(500, 500, density=0.01, random_state=61)
    return {
        "dense": build_matrix("gaussian:500", seed=1),
        "sparse": SparseOperator(sp.csr_matrix(M + M.T)),
        # 101 distinct eigenvalues; every run breaks down at step 102.
        "diagonal": build_matrix("low_rank:500", seed=1),
    }


@pytest.mark.parametrize("case", list(_reference_cases()))
def test_partial_reorthogonalization_matches_the_full_reference(case):
    # The semi-orthogonal run gives the fully reorthogonalized run's
    # breakdown, Ritz values, quadrature weights and vr_slq set S.
    A = _reference_cases()[case]
    n = A.dimension
    norm = np.abs(np.linalg.eigvalsh(A.to_dense())).max()
    G = np.column_stack(
        [unit_sphere_vector(n, SeededStream(62).substream(t)) for t in range(2)]
    )
    for m in (n, 200):
        for t, fact in enumerate(lanczos_lockstep(A, G, m)):
            ref = full_reorthogonalization_lanczos(A, G[:, t], m)
            assert fact.m_effective == ref.m_effective
            if case == "diagonal":
                assert fact.m_effective == 102
            ritz, ritz_ref = tridiag_eig(fact), tridiag_eig(ref)
            assert np.abs(ritz.values - ritz_ref.values).max() <= 1e-10 * norm
            assert np.abs(ritz.weights - ritz_ref.weights).max() <= 1e-8
            l = min(fact.m_effective // 2, VR_L_CAP)
            assert _vr_density(fact, l, n)[1] == _vr_density(ref, l, n)[1]


def _residual_cases():
    dense, _ = random_symmetric(60, seed=51)
    M = sp.random(60, 60, density=0.1, random_state=52)
    sparse = SparseOperator(sp.csr_matrix(M + M.T))
    diagonal = DiagonalOperator(np.random.default_rng(53).uniform(-2.0, 2.0, 60))
    Z = random_orthogonal(60, SeededStream(54))[:4].T
    # Four distinct eigenvalues: the Krylov space has dimension 4, so a
    # 20-step run breaks down after 4 steps.
    low_rank = DiagonalOperator(np.repeat([3.0, -1.0, 0.5, 0.0], 15))
    return {
        "dense": dense,
        "sparse": sparse,
        "diagonal": diagonal,
        "deflated": deflate(dense, Z),
        "breakdown": low_rank,
    }


@pytest.mark.parametrize("case", list(_residual_cases()))
def test_ritz_residuals_come_from_the_recurrence(case):
    # ||A Q s_j - theta_j Q s_j|| = beta |e_m^T s_j| for every Ritz pair,
    # with the Ritz vectors Q s_j from a dense eigendecomposition of T.
    A = _residual_cases()[case]
    dense = A.to_dense()
    norm = np.abs(np.linalg.eigvalsh(dense)).max()
    G = np.column_stack(
        [unit_sphere_vector(A.dimension, SeededStream(55).substream(t)) for t in range(2)]
    )
    for fact in lanczos_lockstep(A, G, 20):
        assert fact.m_effective == (4 if case == "breakdown" else 20)
        theta, S = np.linalg.eigh(tridiagonal(fact))
        order = magnitude_order(theta)
        Y = fact.Q @ S[:, order]
        explicit = np.linalg.norm(dense @ Y - Y * theta[order], axis=0)
        assert np.abs(tridiag_eig(fact).residuals - explicit).max() <= 1e-12 * norm


def test_budget_is_exactly_m():
    A, _ = random_symmetric(20, seed=1)
    g = unit_sphere_vector(20, SeededStream(1))
    ledger = BudgetLedger()
    lanczos(A, g, 12, ledger=ledger)
    assert ledger.counts == {"lanczos": 12}


def test_tridiag_eig_hand_case():
    fact = TridiagonalFactorization(alpha=np.zeros(2), eta=np.array([1.0]), Q=np.eye(2))
    ritz = tridiag_eig(fact)
    np.testing.assert_allclose(ritz.values, [1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(ritz.weights, [0.5, 0.5], atol=1e-14)
    # A hand-built T has no recurrence residual beta.
    assert np.isnan(ritz.residuals).all()
    # One step: T is 1 x 1, its one Ritz pair (alpha, e_1) has all the
    # weight and residual beta |e_1^T e_1| = beta.
    fact = TridiagonalFactorization(
        alpha=np.array([-0.5]), eta=np.empty(0), Q=np.eye(1), beta=0.25
    )
    ritz = tridiag_eig(fact)
    np.testing.assert_array_equal(ritz.values, [-0.5])
    np.testing.assert_array_equal(ritz.weights, [1.0])
    np.testing.assert_array_equal(ritz.residuals, [0.25])


def test_tridiag_hat_eigvals_drop_the_first_row_and_column():
    rng = np.random.default_rng(63)
    fact = TridiagonalFactorization(alpha=rng.normal(size=8), eta=rng.uniform(size=7))
    T = tridiagonal(fact)
    np.testing.assert_allclose(
        tridiag_hat_eigvals(fact), np.linalg.eigvalsh(T[1:, 1:]), rtol=0, atol=1e-14
    )
    one_step = TridiagonalFactorization(alpha=np.array([0.5]), eta=np.empty(0))
    assert tridiag_hat_eigvals(one_step).size == 0


def test_tridiag_eig_diagonal_case():
    fact = TridiagonalFactorization(
        alpha=np.array([3.0, 2.0, 1.0]),
        eta=np.zeros(2),
        Q=np.eye(3),
    )
    ritz = tridiag_eig(fact)
    np.testing.assert_allclose(ritz.values, [3.0, 2.0, 1.0])
    np.testing.assert_allclose(ritz.weights, [1.0, 0.0, 0.0], atol=1e-14)


def test_tridiag_eig_residuals_and_weight_sum():
    rng = np.random.default_rng(17)
    fact = TridiagonalFactorization(
        alpha=rng.uniform(-1, 1, 50),
        eta=rng.uniform(0.01, 1, 49),
        Q=np.eye(50),
        beta=0.3,
    )
    ritz = tridiag_eig(fact)
    theta, S = np.linalg.eigh(tridiagonal(fact))
    order = magnitude_order(theta)
    assert np.abs(ritz.values - theta[order]).max() <= 1e-10
    assert np.abs(ritz.residuals - 0.3 * np.abs(S[-1, order])).max() <= 1e-10
    assert np.abs(ritz.weights - S[0, order] ** 2).max() <= 1e-10
    assert ritz.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_magnitude_sort_is_descending_with_sign_tiebreak():
    order = magnitude_order(np.array([0.5, -1.0, 1.0, -0.5]))
    np.testing.assert_array_equal(np.array([1.0, -1.0, 0.5, -0.5]), np.array([0.5, -1.0, 1.0, -0.5])[order])


def test_ritz_magnitudes_interlace_true_spectrum():
    A, spectrum = random_symmetric(40, seed=13)
    g = unit_sphere_vector(40, SeededStream(13))
    ritz = tridiag_eig(lanczos(A, g, 18))
    true_sorted = np.sort(np.abs(spectrum))[::-1]
    ritz_sorted = np.sort(np.abs(ritz.values))[::-1]
    for j, r in enumerate(ritz_sorted):
        assert r <= true_sorted[j] + 1e-8


def test_polynomial_identity_check():
    A, _ = random_symmetric(40, seed=6)
    g = unit_sphere_vector(40, SeededStream(6))
    assert polynomial_identity_check(A, g, 5, [1.0]) <= 1e-12
    assert polynomial_identity_check(A, g, 5, [0.0, 1.0]) <= 1e-8
    # Degree-5 Chebyshev polynomial in the power basis.
    coeffs = TBAR_SCALE * np.polynomial.chebyshev.cheb2poly([0, 0, 0, 0, 0, 1])
    assert polynomial_identity_check(A, g, 10, coeffs) <= 1e-6
    with pytest.raises(LanczosError):
        polynomial_identity_check(A, g, 3, [0.0, 0.0, 0.0, 1.0])


def test_slq_moment_identity_keystone():
    A, _ = random_symmetric(30, seed=22)
    g = unit_sphere_vector(30, SeededStream(22))
    m = 12
    ritz = tridiag_eig(lanczos(A, g, m))
    dense = A.to_dense()
    eigs, V = np.linalg.eigh(dense)
    c = (V.T @ g) ** 2
    for j in range(m):
        f_moment = float(ritz.weights @ cheb_normalized(j, ritz.values))
        true_moment = float(c @ cheb_normalized(j, eigs))
        assert abs(f_moment - true_moment) <= 1e-8
