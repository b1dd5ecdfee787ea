import numpy as np
import pytest

from specden import (
    BudgetLedger,
    DiagonalOperator,
    SeededStream,
    deflate,
)
from specden import block_krylov
from specden.bench import build_matrix
from specden.block_krylov import (
    block_krylov_deflation,
    build_krylov_block,
    orthonormalize_columns,
)
from specden.datasets import low_rank
from specden.lanczos import LanczosError, TridiagonalFactorization
from specden.metrics import exact_density, wasserstein1
from specden.operators import OperatorError, norm_estimate_cost
from specden.randgen import unit_sphere_vector
from specden.sde import SdeConfig, _moment_estimate, run

from conftest import random_symmetric


def test_rank_two_diagonal_fully_deflates():
    entries = np.zeros(20)
    entries[0], entries[1] = 1.0, 0.5
    A = DiagonalOperator(entries)
    res = block_krylov_deflation(A, l=2, q=5, stream=SeededStream(1))
    assert res.s >= 2
    np.testing.assert_allclose(sorted(res.lambdas, reverse=True)[:2], [1.0, 0.5], atol=1e-8)
    deflated = deflate(A, res.Z)
    assert np.max(np.abs(np.linalg.eigvalsh(deflated.to_dense()))) <= 1e-6


def test_zero_operator():
    A = DiagonalOperator(np.zeros(15))
    res = block_krylov_deflation(A, l=3, q=4, stream=SeededStream(2))
    assert res.s == 0 or np.allclose(res.lambdas, 0.0)
    if res.s:
        deflated = deflate(A, res.Z)
        assert np.max(np.abs(deflated.to_dense())) == 0.0


def test_close_top_pair_resolved(monkeypatch):
    spectrum = np.concatenate([[1.0, 0.99], np.random.default_rng(3).uniform(-0.5, 0.5, 98)])
    A, _ = random_symmetric(100, seed=3, spectrum=spectrum)
    monkeypatch.setattr(block_krylov, "DEFAULT_BETA", 4.0)
    res = block_krylov_deflation(A, l=5, q=14, stream=SeededStream(3))
    top2 = np.sort(np.abs(res.lambdas))[::-1][:2]
    np.testing.assert_allclose(top2, [1.0, 0.99], atol=1e-6)


def test_deflation_result_invariants(monkeypatch):
    A, _ = random_symmetric(60, seed=9)
    monkeypatch.setattr(block_krylov, "DEFAULT_BETA", 2.0)
    res = block_krylov_deflation(A, l=6, q=10, stream=SeededStream(9))
    threshold = res.gate  # ||A||_est / 60**2.0
    residuals = np.linalg.norm(A.apply_block(res.Z) - res.Z * res.lambdas, axis=0)
    assert np.all(residuals <= threshold + 1e-15)
    if res.s:
        np.testing.assert_allclose(res.Z.T @ res.Z, np.eye(res.s), atol=1e-8)
        mags = np.abs(res.lambdas)
        assert np.all(np.diff(mags) <= 1e-12)


def test_budget_formula_exact():
    A, _ = random_symmetric(40, seed=5)
    ledger = BudgetLedger()
    l, q = 3, 6
    res = block_krylov_deflation(A, l=l, q=q, stream=SeededStream(5), ledger=ledger)
    r = res.candidates_examined
    assert ledger.counts["krylov_subspace"] == l * (2 * q + 1)
    # Ritz pairs come from the recurrence's own products: no separate pass.
    assert "rayleigh_ritz" not in ledger.counts
    assert r == l * (2 * q + 1)
    # The gate's norm estimate is read from the Ritz values: no power iteration.
    assert ledger.counts == {"krylov_subspace": l * (2 * q + 1)}


def test_low_rank_range_fully_deflated():
    A = low_rank(500, stream=SeededStream(78))
    res = block_krylov_deflation(A, l=7, q=15, stream=SeededStream(0))
    nonzero = A.diagonal[A.diagonal != 0.0]
    assert nonzero.size == 100
    found = res.lambdas[np.abs(res.lambdas) > 1e-8]
    np.testing.assert_allclose(np.sort(found), np.sort(nonzero), atol=1e-10)
    np.testing.assert_allclose(res.Z.T @ res.Z, np.eye(res.s), atol=1e-10)


def test_exhausted_space_charges_n_columns():
    n, l, q = 30, 4, 5
    A, spectrum = random_symmetric(n, seed=17)
    ledger = BudgetLedger()
    res = block_krylov_deflation(A, l=l, q=q, stream=SeededStream(17), ledger=ledger)
    assert l * (2 * q + 1) > n
    assert ledger.counts["krylov_subspace"] == n
    assert res.candidates_examined == n
    np.testing.assert_allclose(res.Z.T @ res.Z, np.eye(res.s), atol=1e-10)
    # The whole space is spanned, so every Ritz pair is exact.
    assert res.s == n
    np.testing.assert_allclose(np.sort(res.lambdas), np.sort(spectrum), atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_repeated_top_eigenvalues_all_deflated(seed):
    # One start vector spans one direction of each eigenspace, so in exact
    # arithmetic its Krylov space holds one copy of 1.0 and one of 0.9.
    # Each step's product and three-term subtraction leave round-off along
    # the other copies, which the DGKS pass keeps, since it only removes
    # the span of the basis so far; the recurrence then converges to them.
    rng = np.random.default_rng(seed)
    top = np.repeat([1.0, 0.9], 5)
    A = DiagonalOperator(np.concatenate([top, rng.uniform(-0.1, 0.1, 490)]))
    ledger = BudgetLedger()
    res = block_krylov_deflation(A, l=4, q=15, stream=SeededStream(seed), ledger=ledger)
    assert res.s >= 10
    np.testing.assert_allclose(np.sort(res.lambdas)[::-1][:10], top, atol=1e-12, rtol=0)
    deflated = deflate(A, res.Z).to_dense()
    assert np.abs(np.linalg.eigvalsh(deflated)).max() <= 0.1
    assert ledger.counts == {"krylov_subspace": 124}


def test_exhausted_space_stops_early_and_funds_moments():
    # Seven distinct eigenvalues: the start vector's Krylov space has
    # dimension 7, so the recurrence stops after 7 of the l(2q + 1) = 27
    # products it may spend, and the moment stage spends the other 20: K = 25
    # products per probe, from which kpm reads 2K moments.
    A = DiagonalOperator(np.repeat(np.linspace(-1, 1, 7), 10))
    ledger = BudgetLedger()
    res = block_krylov_deflation(A, l=3, q=4, stream=SeededStream(0), ledger=ledger)
    assert res.candidates_examined == res.s == 7
    assert ledger.counts == {"krylov_subspace": 7}
    ledger = BudgetLedger()
    _, facts = _moment_estimate(A, 3, "kpm", 400, 2000, SeededStream(0), ledger)
    assert facts["s"] == 7
    assert ledger.counts["moments"] == 15 * 25
    assert facts["N"] == 2 * ((400 - 7 - norm_estimate_cost(70)) // 15) == 50


@pytest.mark.parametrize("spec", ["uniform:500", "gaussian:500", "inverse:500"])
@pytest.mark.parametrize("m", [124, 500])
def test_build_krylov_block_is_a_lanczos_factorization(spec, m):
    # With full reorthogonalization, at every step, the recurrence's
    # tridiagonal is the Rayleigh quotient Q^T A Q of an orthonormal basis.
    # The start must be a unit vector: build_krylov_block does not
    # normalize it.
    A = build_matrix(spec)
    x = unit_sphere_vector(A.dimension, SeededStream(0))
    with pytest.raises(LanczosError, match="unit norm"):
        build_krylov_block(A, 2.0 * x, m, None)
    fact = build_krylov_block(A, x, m, None)
    assert isinstance(fact, TridiagonalFactorization)
    assert fact.m_effective == m
    assert fact.reorthogonalized == fact.m_effective
    Q = fact.Q
    T = np.diag(fact.alpha) + np.diag(fact.eta, 1) + np.diag(fact.eta, -1)
    assert np.abs(Q.T @ A.apply_block(Q) - T).max() <= 1e-14
    assert np.abs(Q.T @ Q - np.eye(m)).max() <= 1e-14


def test_breakdown_stops_the_run_at_the_round_off_floor():
    # power_law:500's eigenvalues are 1 and 2^-k: after 41 steps what is
    # left of the spectrum is below 1e-12, so the residual falls below
    # BREAKDOWN_RTOL times the scale of T.  Every Ritz pair found is
    # admitted, and the remainder is within the gate of the point mass at
    # 0, so no moment is spent.
    A = build_matrix("power_law:500")
    estimate = run(A, SdeConfig("def_kpm", 200))
    assert estimate.ledger.counts == {"krylov_subspace": 41, "norm_estimate": 18}
    assert estimate.diagnostics["per_trial"][0]["s"] == 41
    assert wasserstein1(estimate.density, exact_density(A)) <= 1e-13


def test_validation():
    A = DiagonalOperator(np.ones(5))
    with pytest.raises(OperatorError):
        block_krylov_deflation(A, l=6, q=14, stream=SeededStream(0))
    with pytest.raises(OperatorError):
        block_krylov_deflation(A, l=2, q=-1, stream=SeededStream(0))


def test_orthonormalize_drops_dependent_columns():
    rng = np.random.default_rng(8)
    base = rng.standard_normal((10, 3))
    K = np.hstack([base, base[:, :2] @ np.array([[1.0, 2.0], [3.0, -1.0]])])
    Q = orthonormalize_columns(K)
    assert Q.shape == (10, 3)
    np.testing.assert_allclose(Q.T @ Q, np.eye(3), atol=1e-10)
    assert orthonormalize_columns(np.zeros((4, 2))).shape == (4, 0)
