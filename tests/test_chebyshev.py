import math

import numpy as np
import pytest

from specden import BudgetLedger, DiagonalOperator, SeededStream, deflate
from specden.chebyshev import (
    TBAR0,
    TBAR_SCALE,
    adjust_moments_for_deflation,
    cheb_normalized_rows,
    estimate_moments,
    probe_moments,
)
from specden.randgen import unit_sphere_vector

from conftest import (
    cheb_eval,
    cheb_normalized,
    dense_cheb_quadratic_form,
    random_symmetric,
)


def test_cheb_normalized_rows_equal_per_degree_polynomials():
    x = np.linspace(-1.0, 1.0, 2001)
    rows = list(cheb_normalized_rows(52, x))
    assert len(rows) == 52
    for k, row in enumerate(rows, start=1):
        np.testing.assert_array_equal(row, cheb_normalized(k, x))
    assert list(cheb_normalized_rows(0, x)) == []


def test_cheb_eval_base_cases_and_recurrence():
    assert cheb_eval(0, 0.7) == 1.0
    assert cheb_eval(1, 0.3) == pytest.approx(0.3)
    assert cheb_eval(2, 0.5) == pytest.approx(-0.5)
    assert cheb_eval(3, 0.5) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        cheb_eval(-1, 0.0)


def test_cheb_eval_against_trig_identity():
    theta = np.linspace(0.0, math.pi, 101)
    x = np.cos(theta)
    for k in range(65):
        np.testing.assert_allclose(cheb_eval(k, x), np.cos(k * theta), atol=1e-10)


def test_normalized_polynomials():
    assert cheb_normalized(0, 0.123) == pytest.approx(TBAR0)
    assert cheb_normalized(2, 0.0) == pytest.approx(-TBAR_SCALE)
    x = np.linspace(-1.0, 1.0, 2001)
    for k in range(1, 20):
        assert np.max(np.abs(cheb_normalized(k, x))) <= TBAR_SCALE + 1e-12


def test_normalized_at_zero():
    # Tbar_k(0) is 0 for odd k and +-sqrt(2/pi), alternating, for even k.
    for k, value in enumerate(cheb_normalized_rows(29, 0.0), start=1):
        assert value == (0.0 if k % 2 else TBAR_SCALE * (1.0 if k % 4 == 0 else -1.0))
        assert value == pytest.approx(float(cheb_normalized(k, 0.0)), abs=1e-12)


def test_orthonormality_under_chebyshev_weight():
    # Gauss-Chebyshev quadrature with 10^4 nodes: <Tbar_i, w Tbar_j> = delta_ij.
    M = 10_000
    nodes = np.cos((2 * np.arange(M) + 1) * math.pi / (2 * M))
    for i in range(0, 6):
        fi = cheb_normalized(i, nodes)
        for j in range(i, 6):
            fj = cheb_normalized(j, nodes)
            inner = math.pi / M * float(fi @ fj)
            assert abs(inner - (1.0 if i == j else 0.0)) <= 1e-6


def test_quadratic_form_identity_and_zero_operator():
    g = unit_sphere_vector(15, SeededStream(2))
    ident = DiagonalOperator(np.ones(15))
    tau = probe_moments(ident, 3, g[None, :])
    assert tau[0] == pytest.approx(TBAR_SCALE)
    zero = DiagonalOperator(np.zeros(15))
    tau = probe_moments(zero, 3, g[None, :])
    assert tau[1] == pytest.approx(-TBAR_SCALE)
    with pytest.raises(ValueError):
        probe_moments(ident, -1, g[None, :])


def test_quadratic_form_matches_matrix_function_oracle():
    A, _ = random_symmetric(20, seed=5)
    scaled = DiagonalOperator(np.linalg.eigvalsh(A.to_dense()))
    g = unit_sphere_vector(20, SeededStream(9))
    ours = probe_moments(scaled, 8, g[None, :])
    oracle = dense_cheb_quadratic_form(scaled.to_dense(), g, 8)
    np.testing.assert_allclose(ours, oracle[1:], atol=1e-10)


def test_quadratic_form_budget_is_exact():
    A = DiagonalOperator(np.linspace(-1, 1, 10))
    g = unit_sphere_vector(10, SeededStream(0))
    ledger = BudgetLedger()
    probe_moments(A, 7, g[None, :], ledger)
    assert ledger.counts == {"moments": 7}


def test_estimate_moments_identity_and_b1():
    A = DiagonalOperator(np.ones(12))
    for b in (1, 3, 10):
        m = estimate_moments(A, 4, b, SeededStream(1))
        assert m[0] == pytest.approx(TBAR_SCALE)
    # b = 1 is exactly one quadratic form with the first Hutchinson vector.
    A2 = DiagonalOperator(np.linspace(-0.9, 0.9, 12))
    stream = SeededStream(6)
    single = estimate_moments(A2, 5, 1, stream)
    g = unit_sphere_vector(12, stream.substream(0))
    direct = probe_moments(A2, 5, g[None, :])
    np.testing.assert_allclose(single, direct, atol=1e-14)


def test_estimate_moments_lockstep_matches_probe_loop_and_oracle():
    A, _ = random_symmetric(20, seed=5)
    N, b = 8, 6
    stream = SeededStream(3)
    ledger = BudgetLedger()
    ours = estimate_moments(A, N, b, stream, ledger)
    assert ledger.counts == {"moments": N * b}
    probes = [unit_sphere_vector(20, stream.substream(j)) for j in range(b)]
    loop = np.mean([probe_moments(A, N, g[None, :]) for g in probes], axis=0)
    oracle = np.mean(
        [dense_cheb_quadratic_form(A.to_dense(), g, N) for g in probes], axis=0
    )
    np.testing.assert_allclose(ours, loop, rtol=0, atol=1e-14)
    np.testing.assert_allclose(ours, oracle[1:], rtol=0, atol=1e-10)


def test_estimate_moments_projects_its_probes_off_Z():
    A, _ = random_symmetric(20, seed=9)
    Z = np.linalg.qr(np.random.default_rng(2).standard_normal((20, 3)))[0]
    A = deflate(A, Z)
    N, b = 7, 5
    stream = SeededStream(4)
    ledger = BudgetLedger()
    ours = estimate_moments(A, N, b, stream, ledger, Z)
    assert ledger.counts == {"moments": N * b}
    G = np.stack([unit_sphere_vector(20, stream.substream(j)) for j in range(b)])
    G -= (G @ Z) @ Z.T
    G /= np.linalg.norm(G, axis=1, keepdims=True)
    np.testing.assert_array_equal(ours, probe_moments(A, N, G))


def test_estimate_moments_budget_and_validation():
    A = DiagonalOperator(np.linspace(-1, 1, 10))
    ledger = BudgetLedger()
    estimate_moments(A, 6, 4, SeededStream(0), ledger)
    assert ledger.total == 24
    with pytest.raises(ValueError):
        estimate_moments(A, 6, 0, SeededStream(0))


def test_estimate_moments_concentrates_on_exact_trace():
    eigs = np.linspace(-0.8, 0.8, 40)
    A = DiagonalOperator(eigs)
    exact = np.array([float(np.mean(cheb_normalized(i, eigs))) for i in range(1, 6)])
    errors = []
    for seed in range(20):
        m = estimate_moments(A, 5, 50, SeededStream(seed))
        errors.append(np.abs(m - exact).max())
    frob = max(
        np.linalg.norm(cheb_normalized(i, eigs)) for i in range(1, 6)
    )
    # Statistical envelope: 5 sqrt(log(1/0.01)) * ||Tbar_i(A)||_F / n.
    assert np.quantile(errors, 0.95) <= 5.0 * math.sqrt(math.log(100)) * frob / 40


def test_adjust_moments_for_deflation():
    m = np.array([0.3, -0.1, 0.2])
    same = adjust_moments_for_deflation(m, 10, 0)
    # s = 0 returns an equal copy, not (n tau) / n rounded.
    assert same is not m
    np.testing.assert_array_equal(same, m)
    # Affine inversion: feeding tau~ = (1-s/n) x + (s/n) Tbar(0) returns x.
    n, s = 10, 2
    x = np.array([0.4, -0.3, 0.25])
    at_zero = np.array([cheb_normalized(i, 0.0) for i in (1, 2, 3)])
    mixed = ((n - s) * x + s * at_zero) / n
    np.testing.assert_allclose(adjust_moments_for_deflation(mixed, n, s), x, atol=1e-12)
    # Odd moments just rescale because odd Chebyshev polynomials vanish at 0.
    odd = adjust_moments_for_deflation(np.array([0.5]), 10, 4)
    assert odd[0] == pytest.approx(10 * 0.5 / 6)
    with pytest.raises(ValueError):
        adjust_moments_for_deflation(m, 5, 5)
