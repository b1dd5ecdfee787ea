import math
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from specden import (
    ALGORITHMS,
    BudgetLedger,
    DenseOperator,
    DiagonalOperator,
    SdeConfig,
    SeededStream,
    SparseOperator,
    deflate,
    run,
)
from specden.operators import (
    DeflatedOperator,
    OperatorError,
    ScaledOperator,
    SymmetricOperator,
    norm_estimate_cost,
    spectral_norm_upper_bound,
)
from specden.randgen import random_orthogonal

from conftest import dense_from_eigendecomposition, random_symmetric


def backends():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((12, 12))
    dense = DenseOperator(M + M.T)
    diag = DiagonalOperator(rng.uniform(-1, 1, 12))
    sparse = SparseOperator(sp.random(12, 12, density=0.3, random_state=3).T @ sp.random(12, 12, density=0.3, random_state=3))
    Z = np.linalg.qr(rng.standard_normal((12, 3)))[0]
    return [
        dense,
        diag,
        sparse,
        ScaledOperator(dense, -0.7),
        DeflatedOperator(dense, Z),
    ]


@pytest.mark.parametrize("A", backends())
def test_randomized_symmetry(A):
    rng = np.random.default_rng(11)
    norm_est = max(np.abs(A.to_dense()).sum(), 1.0)
    for _ in range(5):
        u = rng.standard_normal(A.dimension)
        v = rng.standard_normal(A.dimension)
        lhs = u @ A.apply(v)
        rhs = v @ A.apply(u)
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v) * norm_est


@pytest.mark.parametrize("A", backends())
def test_apply_block_matches_column_loop_and_charges_per_column(A):
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((5, A.dimension))
    before = rows.copy()
    # Both layouts callers pass: a C-ordered block and a transposed view.
    for V in (np.ascontiguousarray(rows.T), rows.T):
        ledger = BudgetLedger()
        block = A.apply_block(V, ledger, stage="block")
        loop = np.column_stack([A.apply(V[:, j]) for j in range(V.shape[1])])
        np.testing.assert_allclose(block, loop, rtol=0, atol=1e-12)
        assert ledger.counts == {"block": V.shape[1]}
    np.testing.assert_array_equal(rows, before)


@pytest.mark.parametrize("A", backends())
def test_apply_is_the_one_column_case_of_apply_block(A):
    v = np.random.default_rng(13).standard_normal(A.dimension)
    ledger = BudgetLedger()
    out = A.apply(v, ledger, stage="one")
    np.testing.assert_array_equal(out, A.apply_block(v[:, None])[:, 0])
    assert ledger.counts == {"one": 1}


@pytest.mark.parametrize("A", backends())
def test_apply_does_not_mutate_input(A):
    v = np.random.default_rng(4).standard_normal(A.dimension)
    before = v.copy()
    A.apply(v)
    np.testing.assert_array_equal(v, before)


def _stored_arrays(A):
    for value in vars(A).values():
        if isinstance(value, np.ndarray):
            yield value
        elif sp.issparse(value):
            yield from (value.data, value.indices, value.indptr)
        elif isinstance(value, SymmetricOperator):
            yield from _stored_arrays(value)


@pytest.mark.parametrize("A", backends())
def test_to_dense_is_a_fresh_column_major_copy(A):
    # exact_density factors this array in place.
    D = A.to_dense()
    assert D.flags.f_contiguous
    assert not any(np.shares_memory(D, stored) for stored in _stored_arrays(A))
    np.testing.assert_allclose(D, A.apply_block(np.eye(A.dimension)), rtol=0, atol=1e-14)


def _symmetry_rule_with_abs_formed(M):
    return abs(M - M.T).max() <= 1e-10 * abs(M).max()


def _off_diagonal_gap(gap):
    # max|M| is 4, at the -4 entry, so the tolerance is 4e-10; max M alone
    # would read 2 and put it at 2e-10 (as -min M alone would for -M).
    return np.array([[-4.0, 1.0], [1.0 + gap, 2.0]])


SYMMETRY_VERDICTS = {
    "largest-entry-negative": (_off_diagonal_gap(3e-10), True),
    "largest-entry-positive": (-_off_diagonal_gap(3e-10), True),
    "gap-just-below": (_off_diagonal_gap(0.999 * 4e-10), True),
    "gap-just-above": (_off_diagonal_gap(1.001 * 4e-10), False),
    "zero": (np.zeros((3, 3)), True),
}


@pytest.mark.parametrize("case", list(SYMMETRY_VERDICTS))
@pytest.mark.parametrize("build", [DenseOperator, lambda M: SparseOperator(sp.csr_matrix(M))])
def test_symmetry_check_reads_max_abs_without_allocating_it(case, build):
    # max|M| is read as max(max M, -min M), and every verdict is the one
    # max|M - M^T| <= 1e-10 max|M| gives with |M| and |M - M^T| formed.
    M, accepted = SYMMETRY_VERDICTS[case]
    assert _symmetry_rule_with_abs_formed(M) == accepted
    if accepted:
        assert build(M).dimension == M.shape[0]
    else:
        with pytest.raises(OperatorError, match="not symmetric"):
            build(M)


def test_dimension_and_symmetry_validation():
    with pytest.raises(OperatorError):
        DenseOperator(np.ones((2, 3)))
    with pytest.raises(OperatorError):
        DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(OperatorError):
        SparseOperator(sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(OperatorError):
        DiagonalOperator(np.ones((2, 2)))
    A = DiagonalOperator(np.ones(3))
    with pytest.raises(OperatorError):
        A.apply(np.ones(4))


@pytest.mark.parametrize("build", [DenseOperator, lambda M: SparseOperator(sp.csr_matrix(M))])
def test_symmetry_check_is_relative_to_the_matrix_scale(build):
    skew = np.array([[1.0, 2.0], [0.0, 1.0]])
    # Scaling a non-symmetric matrix down does not make it symmetric.
    with pytest.raises(OperatorError, match="not symmetric"):
        build(1e-12 * skew)
    # A relative asymmetry of 1e-7 is far above round-off at any scale.
    slightly = np.array([[1.0, 1.0], [1.0 + 1e-7, 1.0]])
    for scale in (1e-12, 1.0, 1e12):
        with pytest.raises(OperatorError, match="not symmetric"):
            build(scale * slightly)
    # Round-off asymmetry, and the zero matrix, are accepted.
    M = np.random.default_rng(4).standard_normal((6, 6))
    M = M @ M.T
    M[0, 1] *= 1.0 + 1e-14
    for scale in (1e-12, 1.0, 1e12):
        assert build(scale * M).dimension == 6
    assert build(np.zeros((3, 3))).dimension == 3


def test_deflation_basis_must_be_orthonormal_to_1e_10_on_the_diagonal_too():
    base = DiagonalOperator(np.linspace(-1.0, 1.0, 8))
    Z = np.linalg.qr(np.random.default_rng(5).standard_normal((8, 3)))[0]
    # A first column of norm 1 + 4e-6 would leave the projector I - ZZ^T
    # idempotent only to ~8e-6.
    long_first = Z.copy()
    long_first[:, 0] *= 1.0 + 4e-6
    P = np.eye(8) - long_first @ long_first.T
    assert np.abs(P @ P - P).max() > 1e-6
    with pytest.raises(OperatorError, match="not orthonormal"):
        DeflatedOperator(base, long_first)
    skewed = Z.copy()
    skewed[:, 1] += 1e-9 * Z[:, 0]
    with pytest.raises(OperatorError, match="not orthonormal"):
        DeflatedOperator(base, skewed)
    # Round-off is accepted.
    assert DeflatedOperator(base, Z * (1.0 + 1e-14)).dimension == 8


def test_ledger_counts_every_apply():
    A = DiagonalOperator(np.arange(1.0, 6.0))
    ledger = BudgetLedger()
    v = np.ones(5)
    for _ in range(7):
        A.apply(v, ledger, stage="work")
    assert ledger.total == 7
    assert ledger.counts == {"work": 7}
    A.apply_block(np.ones((5, 4)), ledger, stage="block")
    assert ledger.counts["block"] == 4
    assert ledger.total == 11


def test_no_estimator_calls_apply(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("SymmetricOperator.apply called")

    monkeypatch.setattr(SymmetricOperator, "apply", refuse)
    A = DiagonalOperator(np.linspace(-1.0, 1.0, 100))
    for algorithm in ALGORITHMS:
        estimate = run(A, SdeConfig(algorithm, budget=200))
        assert estimate.ledger.total > 0


def test_non_finite_entries_are_rejected_before_the_symmetry_test():
    for bad in (math.nan, math.inf, -math.inf):
        M = np.eye(3)
        M[1, 0] = bad  # also asymmetric: the finite check must come first
        with pytest.raises(OperatorError, match="^matrix has a non-finite entry$"):
            DenseOperator(M)
        with pytest.raises(OperatorError, match="^matrix has a non-finite entry$"):
            SparseOperator(sp.csr_matrix(M))
        with pytest.raises(OperatorError, match="^matrix has a non-finite entry$"):
            DiagonalOperator([1.0, bad, 0.5])


def test_deflated_apply_charges_one_base_application():
    base = DiagonalOperator(np.array([3.0, 2.0, 1.0]))
    Z = np.eye(3)[:, :1]
    A = DeflatedOperator(base, Z)
    ledger = BudgetLedger()
    A.apply(np.ones(3), ledger)
    assert ledger.total == 1


def test_ledger_merge_and_negative_charge():
    a, b = BudgetLedger(), BudgetLedger()
    a.charge("x", 2)
    b.charge("x", 1)
    b.charge("y", 5)
    a.merge(b)
    assert a.counts == {"x": 3, "y": 5}
    assert "total: 8" in a.report()
    with pytest.raises(ValueError):
        a.charge("x", -1)


def test_ledger_concurrent_increments_are_exact():
    ledger = BudgetLedger()

    def work():
        for _ in range(500):
            ledger.charge("stage")

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert ledger.total == 4000


def test_dense_from_eigendecomposition_examples():
    A = dense_from_eigendecomposition(np.array([1.0, -1.0]), np.eye(2))
    np.testing.assert_allclose(A.apply(np.array([1.0, 0.0])), [1.0, 0.0])
    Z = dense_from_eigendecomposition(np.zeros(3), np.eye(3))
    np.testing.assert_allclose(Z.apply(np.array([1.0, 2.0, 3.0])), np.zeros(3))
    rng = np.random.default_rng(0)
    eigs = rng.uniform(-2, 2, 8)
    V = random_orthogonal(8, SeededStream(5))
    A = dense_from_eigendecomposition(eigs, V)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(A.to_dense())), np.sort(eigs), atol=1e-10
    )
    with pytest.raises(OperatorError):
        dense_from_eigendecomposition(eigs, V[:, :4])
    with pytest.raises(OperatorError):
        dense_from_eigendecomposition(eigs, V * 2.0)


def test_deflate_examples():
    base = DiagonalOperator(np.array([3.0, 2.0, 1.0]))
    A = deflate(base, np.eye(3)[:, :1])
    np.testing.assert_allclose(A.apply(np.eye(3)[:, 0]), np.zeros(3), atol=1e-14)
    np.testing.assert_allclose(A.apply(np.eye(3)[:, 1]), 2.0 * np.eye(3)[:, 1])
    with pytest.raises(OperatorError):
        deflate(base, np.ones((3, 2)))


def test_deflate_keeps_a_read_only_view_of_z():
    # def_* at budget 3200 on n = 20000 deflate s = 1183 columns: a copy of
    # Z would hold a second 189 MB basis.
    Z = np.eye(4)[:, :2].copy()
    A = deflate(DiagonalOperator(np.arange(4.0)), Z)
    assert np.shares_memory(A.Z, Z)
    assert not A.Z.flags.writeable
    assert Z.flags.writeable
    with pytest.raises(ValueError):
        A.Z[0, 0] = 2.0


def test_deflating_top_eigenvectors_exposes_third_eigenvalue():
    A, _ = random_symmetric(10, seed=21)
    eigs, V = np.linalg.eigh(A.to_dense())
    order = np.argsort(-np.abs(eigs))
    Z = V[:, order[:2]]
    deflated = deflate(A, Z)
    top = np.max(np.abs(np.linalg.eigvalsh(deflated.to_dense())))
    assert abs(top - abs(eigs[order[2]])) <= 1e-8


def test_spectral_norm_upper_bound_examples():
    def bound(diagonal):
        A = DiagonalOperator(np.asarray(diagonal, dtype=float))
        return spectral_norm_upper_bound(A, None, SeededStream(0, stream_id=991))

    assert 5.0 <= bound([5.0, 1.0, 0.1]) <= 10.0
    assert 1.0 <= bound(np.ones(6)) <= 2.0
    assert bound(np.zeros(4)) == 0.0


def test_spectral_norm_upper_bound_factor_two_over_seeds():
    for seed in range(20):
        A, spectrum = random_symmetric(50, seed=seed)
        true = np.max(np.abs(spectrum))
        L = spectral_norm_upper_bound(A, None, SeededStream(seed))
        assert 1.0 <= L / true <= 2.0 + 1e-9


def test_spectral_norm_upper_bound_deterministic_and_costed():
    A, _ = random_symmetric(30, seed=3)
    s = SeededStream(9)
    assert spectral_norm_upper_bound(A, None, s) == spectral_norm_upper_bound(A, None, s)
    ledger = BudgetLedger()
    spectral_norm_upper_bound(A, ledger, s)
    assert ledger.total == norm_estimate_cost(30)
    assert norm_estimate_cost(30) == 2 * math.ceil(math.log2(32))


def test_sign_symmetric_spectrum_is_not_missed():
    # Power iteration on A alone would stall on a +/- symmetric spectrum.
    A = DiagonalOperator(np.array([1.0, -1.0, 0.3, -0.3]))
    L = spectral_norm_upper_bound(A, None, SeededStream(2))
    assert 1.0 <= L <= 2.0
