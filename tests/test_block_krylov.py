import math

import numpy as np
import pytest

from specden import (
    BudgetLedger,
    DiagonalOperator,
    SeededStream,
    block_krylov_deflation,
    deflate,
)
from specden import block_krylov
from specden.block_krylov import default_depth, orthonormalize_columns
from specden.datasets import low_rank
from specden.operators import OperatorError

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
    res = block_krylov_deflation(A, l=5, q=default_depth(100), stream=SeededStream(3))
    top2 = np.sort(np.abs(res.lambdas))[::-1][:2]
    np.testing.assert_allclose(top2, [1.0, 0.99], atol=1e-6)


def test_deflation_result_invariants(monkeypatch):
    A, _ = random_symmetric(60, seed=9)
    monkeypatch.setattr(block_krylov, "DEFAULT_BETA", 2.0)
    res = block_krylov_deflation(A, l=6, q=10, stream=SeededStream(9))
    threshold = res.norm_estimate / 60**2.0
    assert np.all(res.residuals <= threshold + 1e-15)
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
    res = block_krylov_deflation(A, l=7, q=15)
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


def test_validation():
    A = DiagonalOperator(np.ones(5))
    with pytest.raises(OperatorError):
        block_krylov_deflation(A, l=6)
    with pytest.raises(OperatorError):
        block_krylov_deflation(A, l=2, q=-1)


def test_orthonormalize_drops_dependent_columns():
    rng = np.random.default_rng(8)
    base = rng.standard_normal((10, 3))
    K = np.hstack([base, base[:, :2] @ np.array([[1.0, 2.0], [3.0, -1.0]])])
    Q = orthonormalize_columns(K)
    assert Q.shape == (10, 3)
    np.testing.assert_allclose(Q.T @ Q, np.eye(3), atol=1e-10)
    assert orthonormalize_columns(np.zeros((4, 2))).shape == (4, 0)


def test_default_depth():
    assert default_depth(200) == math.ceil(2 * math.log2(200))
    assert default_depth(1) == 2
