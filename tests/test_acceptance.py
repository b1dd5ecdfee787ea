"""Acceptance suite: one test per headline criterion.

Each test prints a single summary line on success so a full run reads as a
checklist.  Oracles are independent routes: dense eigendecompositions,
brute-force transport LPs, and exhaustive vertex enumeration.
"""

import math

import numpy as np
import pytest

from specden import (
    BudgetLedger,
    DiagonalOperator,
    SdeConfig,
    SeededStream,
    run,
    schatten1_estimate,
    wasserstein1,
)
from specden.block_krylov import block_krylov_deflation
from specden.chebyshev import estimate_moments
from specden.datasets import inverse_spectrum, low_rank, power_law_spectrum
from specden.lanczos import lanczos, lanczos_lockstep, tridiag_eig
from specden.metrics import DiscreteDistribution, exact_density
from specden.moment_matching import moment_matrix, solve_moment_matching
from specden.operators import deflate
from specden.randgen import unit_sphere_vector

from conftest import (
    cheb_normalized,
    dense_cheb_quadratic_form,
    equal_weight_ritz_density,
    random_distribution,
    random_symmetric,
    transport_lp_w1,
    tridiagonal,
    vertex_enumeration_l1,
)


def test_criterion_1_slq_moment_identity():
    A, _ = random_symmetric(60, seed=101)
    g = unit_sphere_vector(60, SeededStream(101))
    # A kept-basis run, and a run to m = n without a basis, as slq's trials
    # run, past the four steps at which the kept-basis run reorthogonalizes.
    worst = 0.0
    for m, fact in [
        (25, lanczos(A, g, 25)),
        (60, lanczos_lockstep(A, g[:, None], 60, basis=False)[0]),
    ]:
        ritz = tridiag_eig(fact)
        oracle = dense_cheb_quadratic_form(A.to_dense(), g, m - 1)
        for j in range(m):
            f_moment = float(ritz.weights @ cheb_normalized(j, ritz.values))
            worst = max(worst, abs(f_moment - oracle[j]))
    assert worst <= 1e-8
    print(f"[acceptance 1] SLQ moment identity: max deviation {worst:.2e} PASS")


def test_criterion_2_exact_recovery():
    worst_eig, worst_w1 = 0.0, 0.0
    for n, seed in ((25, 201), (40, 202)):
        A, spectrum = random_symmetric(n, seed=seed)
        g = unit_sphere_vector(n, SeededStream(seed))
        fact = lanczos(A, g, n)
        ritz = np.sort(np.linalg.eigvalsh(tridiagonal(fact)))
        worst_eig = max(worst_eig, np.abs(ritz - np.sort(spectrum)).max())
        f = equal_weight_ritz_density(A, n, SeededStream(seed))
        worst_w1 = max(worst_w1, wasserstein1(f, exact_density(A)))
    assert worst_eig <= 1e-8
    assert worst_w1 <= 1e-8
    print(
        f"[acceptance 2] exact recovery: spectrum err {worst_eig:.2e}, "
        f"W1 {worst_w1:.2e} PASS"
    )


def test_criterion_3_w1_oracle_equivalence():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        p = random_distribution(rng)
        q = random_distribution(rng)
        worst = max(worst, abs(wasserstein1(p, q) - transport_lp_w1(p, q)))
    assert worst <= 1e-10
    print(f"[acceptance 3] W1 vs transport LP on 200 pairs: max gap {worst:.2e} PASS")


def test_criterion_4_deflation_norm_contract():
    n, l = 200, 10
    q = math.ceil(2 * math.log2(n))
    worst_ratio = 0.0
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        top = np.linspace(1.0, 0.6, l)
        tail = rng.uniform(-0.25, 0.25, n - l)
        A, spectrum = random_symmetric(n, seed=400 + seed, spectrum=np.concatenate([top, tail]))
        sigma = np.sort(np.abs(spectrum))[::-1]
        res = block_krylov_deflation(A, l=l, q=q, stream=SeededStream(seed))
        deflated = deflate(A, res.Z) if res.s else A
        norm = np.max(np.abs(np.linalg.eigvalsh(deflated.to_dense())))
        bound = 2 * sigma[l] + 1e-4 * sigma[0]
        worst_ratio = max(worst_ratio, norm / bound)
        assert norm <= bound
    print(
        f"[acceptance 4] deflated norm within 2 sigma_(l+1) bound, worst "
        f"norm/bound {worst_ratio:.3f} over 10 seeds PASS"
    )


def _median_w1(A, exact, algo, budget, trials=10):
    scores = []
    for trial in range(trials):
        config = SdeConfig(algo, budget=budget, seed=1000 * budget + trial, grid_d=2000)
        est = run(A, config)
        scores.append(wasserstein1(est.density, exact))
    return float(np.median(scores))


def test_criterion_5_implicit_deflation_trend():
    budgets = (100, 200, 400)
    report = []
    for name, A in (
        ("low_rank(500)", low_rank(500, stream=SeededStream(77))),
        ("power_law(500)", power_law_spectrum(500)),
    ):
        exact = exact_density(A)
        wins = 0
        for budget in budgets:
            med = {
                algo: _median_w1(A, exact, algo, budget)
                for algo in ("vr_slq", "slq", "cmm")
            }
            ordered = med["vr_slq"] <= med["slq"] <= med["cmm"]
            wins += ordered
            report.append(f"{name} B={budget}: " + ", ".join(f"{k}={v:.4f}" for k, v in med.items()))
        assert wins >= 2, f"ordering held at only {wins}/3 budgets for {name}:\n" + "\n".join(report)
    print("[acceptance 5] vr_slq <= slq <= cmm trend PASS\n  " + "\n  ".join(report))


def test_criterion_6_explicit_deflation_trend():
    A = low_rank(500, stream=SeededStream(78))
    exact = exact_density(A)
    report = []
    for budget in (200, 400):
        med_def = _median_w1(A, exact, "def_cmm", budget)
        med_cmm = _median_w1(A, exact, "cmm", budget)
        report.append(f"B={budget}: def_cmm={med_def:.4f}, cmm={med_cmm:.4f}")
        assert med_def < med_cmm, "; ".join(report)
    print("[acceptance 6] def_cmm < cmm on low_rank(500) PASS: " + "; ".join(report))


def test_criterion_7_hutchinson_concentration():
    n = 2000
    rng = np.random.default_rng(700)
    eigs = rng.uniform(-1.0, 1.0, n)
    A = DiagonalOperator(eigs)
    exact_traces = np.array(
        [float(np.mean(cheb_normalized(i, eigs))) for i in range(1, 6)]
    )
    frob = np.array(
        [float(np.linalg.norm(cheb_normalized(i, eigs))) for i in range(1, 6)]
    )
    deviations = np.empty((200, 5))
    for seed in range(200):
        # Three products on the probe give six moments; the first five count.
        m = estimate_moments(A, 3, 1, SeededStream(700 + seed))[:5]
        deviations[seed] = np.abs(m - exact_traces)
    p95 = np.quantile(deviations, 0.95, axis=0)
    limits = 10.0 * frob / n
    assert np.all(p95 <= limits), (p95, limits)
    print(
        "[acceptance 7] Hutchinson concentration PASS: p95/limit = "
        + ", ".join(f"{a / b:.2f}" for a, b in zip(p95, limits))
    )


def test_criterion_8_schatten1():
    n = 400
    A = inverse_spectrum(n)
    H = float(np.sum(1.0 / np.arange(1, n + 1)))
    hits, errors = 0, []
    for seed in range(10):
        M = schatten1_estimate(A, 0.25, seed=seed)
        errors.append(abs(M - H) / H)
        hits += abs(M - H) <= 0.25 * H
    assert hits >= 8, errors
    print(
        f"[acceptance 8] Schatten-1 within 25% of H_400 in {hits}/10 seeds "
        f"(max rel err {max(errors):.3f}) PASS"
    )


def test_criterion_9_moment_matching_oracle():
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(12):
        N = int(rng.integers(1, 4))
        d = int(rng.integers(N, 9))
        moments = rng.uniform(-0.6, 0.6, N)
        q = solve_moment_matching(moments, d)
        assert np.all(q >= 0)
        assert abs(q.sum() - 1.0) <= 1e-9
        T = moment_matrix(N, d)
        z = moments / np.arange(1, N + 1)
        gap = abs(np.abs(T @ q - z).sum() - vertex_enumeration_l1(T, z))
        worst = max(worst, gap)
    assert worst <= 1e-8
    print(f"[acceptance 9] LP objective matches vertex oracle, max gap {worst:.2e} PASS")


def test_criterion_10_budget_honesty():
    A, _ = random_symmetric(50, seed=1000)
    g_stream = SeededStream(1000)

    est = run(A, SdeConfig("slq", budget=20, trials=1, seed=1000))
    assert est.diagnostics["m"] == 20
    assert est.ledger.total == 20

    est = run(A, SdeConfig("vr_slq", budget=30, trials=1, seed=1000))
    assert (est.diagnostics["m"], est.diagnostics["l"]) == (20, 10)
    assert est.ledger.total == 20  # m, no breakdown on dense A; residuals are free

    ledger = BudgetLedger()
    l, q = 4, 6
    res = block_krylov_deflation(A, l=l, q=q, stream=g_stream, ledger=ledger)
    # One application per basis column; l(2q + 1) = 52 columns exhaust n = 50.
    krylov = min(50, l * (2 * q + 1))
    assert res.candidates_examined == krylov
    assert ledger.total == res.candidates_examined

    ledger = BudgetLedger()
    K, b = 7, 3
    tau = estimate_moments(DiagonalOperator(np.linspace(-1, 1, 50)), K, b, g_stream, ledger)
    # K products on each of b probes give 2K moments.
    assert ledger.total == K * b and tau.size == 2 * K
    print("[acceptance 10] ledger totals match analytic budget formulas PASS")
