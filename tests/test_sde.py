import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from specden import (
    BudgetLedger,
    DiagonalOperator,
    SdeConfig,
    SeededStream,
    average_densities,
    exact_density,
    run,
    schatten1_estimate,
    wasserstein1,
)
from specden import block_krylov, lanczos as lanczos_module, sde
from specden.block_krylov import block_krylov_deflation
from specden.bench import build_matrix
from specden.chebyshev import cheb_normalized_rows
from specden.lanczos import (
    TridiagonalFactorization,
    lanczos,
    lanczos_lockstep,
    tridiag_eig,
)
from specden.metrics import DiscreteDistribution
from specden.moment_matching import EXACT_RESIDUAL
from specden.operators import norm_estimate_cost
from specden.randgen import unit_sphere_vector
from specden.sde import (
    BudgetExhaustedError,
    _allocate_block_size,
    _moment_estimate,
    _vr_density,
    _vr_sizing,
)

from conftest import equal_weight_ritz_density, random_symmetric


def lanczos_trial(A, m, stream, ledger=None, basis=True):
    """One trial's Lanczos run from the start vector run() draws from
    ``stream``, charged to ``ledger`` as run() charges it."""
    g = unit_sphere_vector(A.dimension, stream)
    (fact,) = lanczos_lockstep(A, g[:, None], m, basis)
    if ledger is not None:
        ledger.charge("lanczos", fact.m_effective)
    return fact


def slq_density(A, m, stream, ledger=None):
    """One slq trial's density from the start vector run() draws: vr_slq's
    density at l = 0, from a run that keeps its basis when run() would for
    one trial."""
    basis = m <= lanczos_module.kept_columns(A.dimension)
    fact = lanczos_trial(A, m, stream, ledger, basis=basis)
    density, _ = _vr_density(fact, 0, A.dimension)
    return density


def vr_slq_density(A, m, l, stream, ledger=None):
    """One vr_slq trial's density from the start vector run() draws."""
    density, _ = _vr_density(lanczos_trial(A, m, stream, ledger), l, A.dimension)
    return density


def test_slq_hand_case_through_lanczos():
    # For A = diag(1, -1) and g = (1, 1)/sqrt(2), the SLQ density is exactly
    # half mass at +1 and half at -1, so W1 against the true spectrum is 0.
    A = DiagonalOperator(np.array([1.0, -1.0]))
    g = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ritz = tridiag_eig(lanczos(A, g, 2))
    f = DiscreteDistribution(ritz.values.copy(), ritz.weights.copy())
    assert wasserstein1(f, exact_density(A)) <= 1e-12


def test_slq_weights_sum_and_trial_averaging():
    A, _ = random_symmetric(12, seed=31)
    single = slq_density(A, 12, SeededStream(0))
    assert single.weights.sum() == pytest.approx(1.0, abs=1e-10)
    few = average_densities([slq_density(A, 12, SeededStream(0).substream(t)) for t in range(2)])
    many = average_densities(
        [slq_density(A, 12, SeededStream(0).substream(t)) for t in range(300)]
    )
    exact = exact_density(A)
    assert wasserstein1(many, exact) <= 0.05
    assert wasserstein1(many, exact) <= wasserstein1(few, exact) + 1e-12


def test_slq_uniform_weight_diagnostic_recovers_spectrum():
    A, _ = random_symmetric(25, seed=32)
    f = equal_weight_ritz_density(A, 25, SeededStream(7))
    assert wasserstein1(f, exact_density(A)) <= 1e-8


def test_slq_budget_and_support_containment():
    A, spectrum = random_symmetric(40, seed=33)
    ledger = BudgetLedger()
    f = slq_density(A, 18, SeededStream(3), ledger)
    assert ledger.total == 18
    top = np.max(np.abs(spectrum))
    assert np.max(np.abs(f.locations)) <= top + 1e-10


def test_vr_slq_gates_low_rank_atoms_at_exactly_one_over_n():
    entries = np.zeros(50)
    entries[:3] = [1.0, -0.7, 0.4]
    A = DiagonalOperator(entries)
    f = vr_slq_density(A, 20, 5, SeededStream(4))
    for target in entries[:3]:
        idx = np.argmin(np.abs(f.locations - target))
        assert abs(f.locations[idx] - target) <= 1e-8
        assert f.weights[idx] == 1.0 / 50
    assert f.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_vr_slq_empty_gate_equals_slq(monkeypatch):
    A, _ = random_symmetric(40, seed=35)
    # beta huge -> residual threshold below machine precision, nothing admits.
    monkeypatch.setattr(block_krylov, "DEFAULT_BETA", 50.0)
    f_vr = vr_slq_density(A, 10, 5, SeededStream(8))
    f_slq = slq_density(A, 10, SeededStream(8))
    np.testing.assert_allclose(f_vr.locations, f_slq.locations)
    np.testing.assert_allclose(f_vr.weights, f_slq.weights)


def test_vr_slq_budget_is_the_lanczos_steps():
    entries = np.zeros(50)
    entries[:3] = [1.0, -0.7, 0.4]
    A = DiagonalOperator(entries)
    ledger = BudgetLedger()
    m, l = 20, 5
    vr_slq_density(A, m, l, SeededStream(4), ledger=ledger)
    # Krylov space has dimension 4 here, so Lanczos breaks down at 4; the
    # residual tests read the recurrence and spend no product.
    assert ledger.counts == {"lanczos": 4}


def test_vr_slq_every_atom_converged_gives_exact_density():
    # Full Krylov space: all n Ritz pairs pass both gates, so S has n atoms
    # and no mass is left to park at zero.
    A = DiagonalOperator(np.array([1.0, 0.5, -0.3, -0.8]))
    f = vr_slq_density(A, 4, 4, SeededStream(2))
    np.testing.assert_allclose(np.sort(f.locations), [-0.8, -0.3, 0.5, 1.0], atol=1e-12)
    np.testing.assert_array_equal(f.weights, np.full(4, 0.25))


def test_vr_slq_spreads_mass_when_unconverged_weight_underflows(monkeypatch):
    # The second Ritz vector's first component squares to 0.0, so the mass
    # left outside S is spread uniformly over the unconverged atoms.
    fact = TridiagonalFactorization(
        alpha=np.array([1.0, 0.5]), eta=np.array([1e-200]), Q=np.eye(2), beta=0.0
    )
    monkeypatch.setattr(block_krylov, "DEFAULT_BETA", 1.0)
    f, converged = _vr_density(fact, 1, 2)
    assert converged == 1
    np.testing.assert_allclose(f.locations, [0.5, 1.0])
    np.testing.assert_allclose(f.weights, [0.5, 0.5])


def test_vr_sizing_fits_budget():
    for budget in (3, 10, 100, 1000):
        m, l = _vr_sizing(budget, 500, sde.VR_L_CAP)
        assert m + l <= budget
        assert l == min(m // 2, 100)
        assert _vr_sizing(budget, 500, 0) == (min(budget, 500), 0)


def test_sde_with_deflation_on_exact_low_rank():
    n, r = 80, 4
    entries = np.zeros(n)
    entries[:r] = [1.0, -0.8, 0.6, 0.5]
    A = DiagonalOperator(entries)
    budget, d = 400, 2000
    ledger = BudgetLedger()
    density, facts = _moment_estimate(A, r, "cmm", budget, d, SeededStream(2), ledger)
    assert facts["s"] >= r
    exact = exact_density(A)
    L = max(facts["L"], 1e-12)
    assert wasserstein1(density, exact) <= 2 * L / d + 1e-4 * 1.0
    assert ledger.total <= budget


def test_sde_with_deflation_zero_remainder_takes_no_moments():
    # Block Lanczos deflates the whole range of a rank-5 diagonal, so the
    # remainder is round-off: a point mass at 0, with no moment estimated.
    n = 200
    entries = np.zeros(n)
    entries[:5] = [1.0, -0.9, 0.45, 0.3, -0.2]
    A = DiagonalOperator(entries)
    budget = 300
    l = _allocate_block_size(n, budget)
    ledger = BudgetLedger()
    density, facts = _moment_estimate(A, l, "cmm", budget, 2000, SeededStream(4), ledger)
    assert 5 <= facts["s"] < n
    assert facts["N"] == 0
    assert "moments" not in ledger.counts
    assert ledger.total <= budget
    # The same deflation, rerun on its own, gives the gate.
    defl = block_krylov_deflation(
        A, l, q=sde.DEFAULT_KRYLOV_DEPTH, stream=SeededStream(4).substream(1)
    )
    gate = defl.gate
    assert facts["L"] <= gate
    assert wasserstein1(density, exact_density(A)) <= gate


def test_sde_with_deflation_s_zero_equals_plain_cmm(monkeypatch):
    A, _ = random_symmetric(60, seed=41)
    # beta so strict that no Ritz pair is ever admitted.
    monkeypatch.setattr(block_krylov, "DEFAULT_BETA", 50.0)
    budget, d = 300, 2000
    ledger = BudgetLedger()
    density, facts = _moment_estimate(A, 2, "cmm", budget, d, SeededStream(9), ledger)
    assert facts["s"] == 0
    assert "rayleigh_ritz" not in ledger.counts
    remaining = budget - ledger.counts["krylov_subspace"]
    plain, _ = _moment_estimate(A, 0, "cmm", remaining, d, SeededStream(9), BudgetLedger())
    np.testing.assert_allclose(density.locations, plain.locations)
    np.testing.assert_allclose(density.weights, plain.weights)


def test_deflated_moments_are_those_of_a_probability_measure(monkeypatch):
    # The probes are drawn as for any moment trial, then projected off the
    # deflated eigenvectors Z and renormalized.  tau is then exactly the
    # moments of (1/b) sum_j sum_i (g_j . v_i)^2 delta(lambda_i / L) over the
    # eigenpairs of the remainder on the complement of span Z.
    n, b = 80, sde.DEFAULT_HUTCHINSON_B
    spectrum = np.concatenate(
        [[1.0, -0.9, 0.8], np.random.default_rng(5).uniform(-0.3, 0.3, n - 3)]
    )
    A, _ = random_symmetric(n, seed=5, spectrum=spectrum)
    seen = {}

    def recording_kpm(tau, d):
        seen["tau"] = tau
        return kpm_density(tau, d)

    def recording_deflate(base, Z):
        seen["Z"] = Z
        return deflate(base, Z)

    kpm_density, deflate = sde.kpm_density, sde.deflate
    monkeypatch.setattr(sde, "kpm_density", recording_kpm)
    monkeypatch.setattr(sde, "deflate", recording_deflate)
    stream = SeededStream(7)
    _, facts = _moment_estimate(A, 1, "kpm", 200, 2000, stream, BudgetLedger())
    Z, tau, L = seen["Z"], seen["tau"], facts["L"]
    assert 1 <= facts["s"] == Z.shape[1] < n and facts["N"] == tau.size >= 5

    G = np.stack([unit_sphere_vector(n, stream.substream(3).substream(j)) for j in range(b)])
    G -= G @ Z @ Z.T
    G /= np.linalg.norm(G, axis=1, keepdims=True)
    W = scipy.linalg.null_space(Z.T)
    lam, V = np.linalg.eigh(W.T @ A.to_dense() @ W)
    mass = ((G @ W @ V) ** 2).sum(axis=0) / b
    assert mass.sum() == pytest.approx(1.0, abs=1e-12)
    expected = cheb_normalized_rows(tau.size, lam / L) @ mass
    np.testing.assert_allclose(tau, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("l", [0, 2])
def test_cmm_matches_the_first_K_moments_and_kpm_reads_all_2K(monkeypatch, l):
    # K products on each probe give 2K moments.  kpm reconstructs from all of
    # them; cmm matches tau_1 ... tau_K, the same numbers bit for bit.  Both
    # spend the same ledger: K = remaining // b products on each probe.
    n, b, budget = 300, sde.DEFAULT_HUTCHINSON_B, 400
    A = DiagonalOperator(np.linspace(-1.0, 1.0, n))
    seen = {}

    def recording(method, reconstruct):
        def wrapped(tau, d, *args):
            seen[method] = tau.copy()
            return reconstruct(tau, d, *args)
        return wrapped

    monkeypatch.setattr(sde, "solve_moment_matching", recording("cmm", sde.solve_moment_matching))
    monkeypatch.setattr(sde, "kpm_density", recording("kpm", sde.kpm_density))
    ledgers = {}
    for method in ("cmm", "kpm"):
        ledger = ledgers[method] = BudgetLedger()
        _, facts = _moment_estimate(A, l, method, budget, 2000, SeededStream(3), ledger)
        assert facts["N"] == seen[method].size
    assert ledgers["cmm"].counts == ledgers["kpm"].counts
    counts = ledgers["kpm"].counts
    K = (budget - counts.get("krylov_subspace", 0) - norm_estimate_cost(n)) // b
    assert counts["norm_estimate"] == norm_estimate_cost(n) and counts["moments"] == K * b
    assert seen["cmm"].size == K >= 1 and seen["kpm"].size == 2 * K
    np.testing.assert_array_equal(seen["cmm"], seen["kpm"][:K])


@pytest.mark.parametrize("budget", [400, 600])
def test_def_cmm_matches_the_remainder_moments_on_nnls_columns(budget):
    # These two cells ran the full-grid LP ("lp") when the probes spanned the
    # whole space and the moments were then corrected for the s deflated
    # zero eigenvalues: no measure had the corrected moments.
    A = build_matrix("inverse:500")
    facts = run(A, SdeConfig("def_cmm", budget=budget, seed=1)).diagnostics["per_trial"][0]
    assert facts["s"] >= 1 and facts["N"] >= 1
    assert facts["solver"] == "nnls"
    assert facts["residual"] <= EXACT_RESIDUAL


def test_sde_with_deflation_budget_exhaustion():
    A, _ = random_symmetric(60, seed=42)
    with pytest.raises(BudgetExhaustedError):
        run(A, SdeConfig("def_cmm", budget=5, seed=0))


def test_moment_trial_too_small_for_one_moment_spends_nothing():
    # Norm estimation alone needs 16 products at n = 200, more than budget.
    A = DiagonalOperator(np.linspace(-1.0, 1.0, 200))
    ledger = BudgetLedger()
    with pytest.raises(BudgetExhaustedError):
        _moment_estimate(A, 0, "cmm", 10, 2000, SeededStream(0), ledger)
    assert ledger.total == 0
    # The least budget that runs is one norm estimate plus one product per
    # probe, which gives kpm two moments.
    least = norm_estimate_cost(200) + sde.DEFAULT_HUTCHINSON_B
    with pytest.raises(BudgetExhaustedError):
        run(A, SdeConfig("kpm", budget=least - 1))
    assert run(A, SdeConfig("kpm", budget=least)).diagnostics["per_trial"][0]["N"] == 2


def test_cmm_grid_too_coarse_for_N_spends_no_moment():
    # N = (327 - 12) // 15 = 21 > d = 20: the trial raises once L is known,
    # before any probe is drawn, with the same message moment matching gives.
    A = DiagonalOperator(np.linspace(-1.0, 1.0, 50))
    ledger = BudgetLedger()
    with pytest.raises(ValueError, match="grid resolution d=20 must be >= N=21"):
        _moment_estimate(A, 0, "cmm", 327, 20, SeededStream(0), ledger)
    assert ledger.counts == {"norm_estimate": 12}


def test_kpm_grid_too_coarse_for_N_spends_no_moment():
    # kpm obeys cmm's grid rule for the moments it reads: K = 21 products per
    # probe give N = 42 > d = 20, so it spends only the norm estimate.
    A = DiagonalOperator(np.linspace(-1.0, 1.0, 50))
    ledger = BudgetLedger()
    with pytest.raises(ValueError, match="grid resolution d=20 must be >= N=42"):
        _moment_estimate(A, 0, "kpm", 327, 20, SeededStream(0), ledger)
    assert ledger.counts == {"norm_estimate": 12}


def test_def_cmm_grid_too_coarse_for_N_spends_no_moment():
    # Only the Krylov block and the remainder's norm estimate are spent.
    A = DiagonalOperator(np.linspace(-1.0, 1.0, 50))
    ledger = BudgetLedger()
    with pytest.raises(ValueError, match="grid resolution d=5 must be >= N="):
        _moment_estimate(A, 1, "cmm", 400, 5, SeededStream(0), ledger)
    assert set(ledger.counts) == {"krylov_subspace", "norm_estimate"}


def test_zero_remainder_needs_no_grid():
    # The Krylov run deflates all of a rank-2 diagonal: the point mass at 0
    # stands in for the remainder whatever N the budget would fund.  The
    # start vector's Krylov space is exhausted after 3 columns, its parts
    # along 1.0, 0.5 and the zero eigenspace.
    A = DiagonalOperator([1.0, 0.5] + [0.0] * 48)
    ledger = BudgetLedger()
    _, facts = _moment_estimate(A, 4, "cmm", 2000, 5, SeededStream(0), ledger)
    assert facts["s"] == 3 and facts["N"] == 0
    assert ledger.counts == {"krylov_subspace": 3, "norm_estimate": 12}


def test_block_krylov_and_vr_slq_gate_on_the_largest_ritz_value(monkeypatch):
    # One rule, max|Ritz value| / n^beta, each over every Ritz value of its
    # own Krylov space; no |Ritz value| exceeds ||A||, and with a separated
    # top eigenvalue both come within 1e-6 of it.
    spectrum = np.concatenate([[1.0, -0.9], np.random.default_rng(44).uniform(-0.5, 0.5, 58)])
    A, _ = random_symmetric(60, seed=44, spectrum=spectrum)
    n, norm = A.dimension, np.abs(spectrum).max()
    gate, seen = block_krylov.deflation_gate, []

    def recording_gate(values, n):
        seen.append(np.array(values))
        return gate(values, n)

    monkeypatch.setattr(block_krylov, "deflation_gate", recording_gate)
    monkeypatch.setattr(sde, "deflation_gate", recording_gate)
    defl = block_krylov_deflation(A, 3, q=4, stream=SeededStream(44))
    fact = lanczos_trial(A, 30, SeededStream(45))
    _vr_density(fact, 5, n)

    krylov_ritz, lanczos_ritz = seen
    assert krylov_ritz.size == defl.candidates_examined
    np.testing.assert_array_equal(lanczos_ritz, tridiag_eig(fact).values)
    for ritz in seen:
        top = np.abs(ritz).max()
        assert gate(ritz, n) == top / n**block_krylov.DEFAULT_BETA
        assert norm * (1 - 1e-6) <= top <= norm * (1 + 1e-12)
    assert defl.gate == gate(krylov_ritz, n)
    norm_estimate = defl.gate * n**block_krylov.DEFAULT_BETA
    assert norm_estimate == pytest.approx(np.abs(krylov_ritz).max(), rel=1e-14)


def test_def_kpm_least_budget_is_one_norm_estimate_one_column_one_moment():
    # A rank-1 block of depth q, the remainder's one norm estimate and one
    # product per probe, which gives two moments: block Krylov spends
    # nothing on a norm estimate of its own.
    n, q, b = 200, sde.DEFAULT_KRYLOV_DEPTH, sde.DEFAULT_HUTCHINSON_B
    A = DiagonalOperator(np.linspace(-1.0, 1.0, n))
    least = norm_estimate_cost(n) + block_krylov.basis_capacity(1, q, n) + b
    est = run(A, SdeConfig("def_kpm", budget=least, seed=0))
    assert est.ledger.counts == {
        "krylov_subspace": block_krylov.basis_capacity(1, q, n),
        "norm_estimate": norm_estimate_cost(n),
        "moments": b,
    }
    assert est.diagnostics["per_trial"][0]["l"] == 1
    assert est.diagnostics["per_trial"][0]["N"] == 2
    with pytest.raises(BudgetExhaustedError, match="rank-1 Krylov block"):
        run(A, SdeConfig("def_kpm", budget=least - 1, seed=0))


def test_deflation_run_obeys_the_kept_basis_cap(monkeypatch):
    # The deflation run keeps its basis, so it is held to kept_columns(n)
    # like every kept basis; the products the cap leaves unspent become
    # moments, and the trial still spends no more than its budget.
    A = build_matrix("inverse:500", 0)
    config = SdeConfig("def_kpm", budget=400, seed=0)
    free = run(A, config)
    assert free.ledger.counts["krylov_subspace"] == 9 * 31
    monkeypatch.setattr(lanczos_module, "LOCKSTEP_BASIS_BYTES", 60 * 8 * 500)
    assert lanczos_module.kept_columns(500) == 60
    capped = run(A, config)
    assert capped.ledger.counts["krylov_subspace"] == 60
    assert capped.ledger.total <= 400
    (facts,) = capped.diagnostics["per_trial"]
    assert (facts["l"], facts["m"]) == (9, 60)
    assert facts["N"] > free.diagnostics["per_trial"][0]["N"]
    # Where not one column fits (n above 12.5 million at 96 MiB), the run
    # still takes the one it needs.
    monkeypatch.setattr(lanczos_module, "LOCKSTEP_BASIS_BYTES", 0)
    assert run(A, config).ledger.counts["krylov_subspace"] == 1


def test_schatten1_spends_the_budget_of_a_capped_deflation_run(monkeypatch):
    # l = 40 asks for min(n, 40 * 31) = 400 columns; under the cap the run
    # and the budget schatten1_estimate sets both see 60.
    n, eps = 400, 0.5
    A = DiagonalOperator(1.0 / np.arange(1, n + 1))
    monkeypatch.setattr(lanczos_module, "LOCKSTEP_BASIS_BYTES", 60 * 8 * n)
    ledger = BudgetLedger()
    schatten1_estimate(A, eps, ledger)
    l, K = 40, math.ceil(math.sqrt(n))
    assert ledger.counts["krylov_subspace"] == 60
    assert ledger.total == sde._deflated_trial_cost(n, l, K)


def test_config_validation():
    with pytest.raises(ValueError):
        SdeConfig("nope", budget=10)
    with pytest.raises(ValueError):
        SdeConfig("slq", budget=0)
    with pytest.raises(ValueError):
        SdeConfig("slq", budget=10, trials=0)
    # A float count fails here, not later inside Lanczos.
    for name, value in [("budget", 20.5), ("trials", 2.0), ("grid_d", 2e3), ("seed", 1.5)]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SdeConfig("slq", **{"budget": 20, name: value})
    # bool is an Integral, but True is no count: it once ran a one-step,
    # one-trial estimate.
    for name in ("budget", "trials", "grid_d", "seed"):
        for value in (True, np.bool_(True), False):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                SdeConfig("slq", **{"budget": 20, name: value})
    SdeConfig("slq", budget=np.int64(20), grid_d=np.int32(50), seed=np.int64(3))
    assert SdeConfig("slq", budget=10).resolved_trials() == 15
    assert SdeConfig("cmm", budget=100).resolved_trials() == 1


@pytest.mark.parametrize("algo", ["cmm", "kpm", "def_cmm", "def_kpm", "slq", "vr_slq"])
def test_run_every_algorithm_mass_and_budget(algo):
    A, _ = random_symmetric(60, seed=50)
    config = SdeConfig(algo, budget=250, trials=2, seed=5)
    est = run(A, config)
    assert np.all(est.density.weights >= 0)
    assert est.density.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert est.ledger.total <= config.budget * 2
    # Determinism end to end.
    est2 = run(A, config)
    np.testing.assert_array_equal(est.density.locations, est2.density.locations)
    np.testing.assert_array_equal(est.density.weights, est2.density.weights)


@pytest.mark.parametrize("algo", ["slq", "vr_slq"])
def test_run_lanczos_trials_keep_per_trial_budget_and_diagnostics(algo):
    # Six distinct eigenvalues: every Lanczos run breaks down after 6 steps.
    A = DiagonalOperator(np.repeat(np.linspace(-0.9, 0.8, 6), 5))
    for budget in (1, 2, 5, 9, 30):
        config = SdeConfig(algo, budget=budget, trials=4, seed=7)
        est = run(A, config)
        per_trial = est.diagnostics["per_trial"]
        assert len(per_trial) == config.trials
        spent = []
        for t, facts in enumerate(per_trial):
            # The trial's own ledger, from the same start run on its own.
            ledger = BudgetLedger()
            stream = SeededStream(7).substream(t)
            m, l = (min(budget, 30), 0) if algo == "slq" else _vr_sizing(budget, 30, 100)
            assert (est.diagnostics["m"], est.diagnostics["l"]) == (m, l)
            if l == 0:
                lanczos_trial(A, m, stream, ledger)
            else:
                vr_slq_density(A, m, l, stream, ledger=ledger)
            assert facts["m_effective"] == ledger.counts["lanczos"]
            assert ("converged" in facts) == (algo == "vr_slq")
            # A repeated Gram-Schmidt pass only follows a first one, and the
            # last step, or the breakdown, is never the only step.
            assert (
                0 <= facts["reorth_repeats"] <= facts["reorthogonalized"]
                < facts["m_effective"]
            )
            assert ledger.total <= budget
            spent.append(ledger.counts)
        merged = {}
        for counts in spent:
            for stage, c in counts.items():
                merged[stage] = merged.get(stage, 0) + c
        assert est.ledger.counts == merged


@pytest.fixture
def lockstep_calls(monkeypatch):
    """(trial count, basis) of each lanczos_lockstep call that sde makes."""
    calls = []

    def recording(A, G, m, basis=True):
        calls.append((G.shape[1], basis))
        return lanczos_lockstep(A, G, m, basis)

    monkeypatch.setattr(sde, "lanczos_lockstep", recording)
    return calls


@pytest.mark.parametrize("spare_bytes, basis", [(0, True), (-1, False)])
def test_run_slq_trials_share_one_lockstep_call(
    monkeypatch, lockstep_calls, spare_bytes, basis
):
    # slq never splits into groups: its trials keep their bases while all of
    # them fit in LOCKSTEP_BASIS_BYTES, and otherwise run with none.
    A = build_matrix("low_rank:500", 0)
    monkeypatch.setattr(
        lanczos_module, "LOCKSTEP_BASIS_BYTES", 5 * 8 * 200 * 500 + spare_bytes
    )
    est = run(A, SdeConfig("slq", budget=200, trials=5, seed=3))
    assert lockstep_calls == [(5, basis)]
    for facts in est.diagnostics["per_trial"]:
        assert (facts["reorthogonalized"] > 0) == basis
        if not basis:
            assert facts["reorth_repeats"] == 0


def test_run_vr_slq_runs_basis_free_when_its_bases_do_not_fit(
    monkeypatch, lockstep_calls
):
    # vr_slq follows slq's basis rule: under a cap of two bases its five
    # trials share one basis-free call, and the run holds less than one
    # basis, as a cap smaller than one basis promises.
    A = build_matrix("low_rank:500", 0)
    m, _ = _vr_sizing(200, A.dimension, sde.VR_L_CAP)
    basis_bytes = 8 * m * A.dimension
    monkeypatch.setattr(lanczos_module, "LOCKSTEP_BASIS_BYTES", 2 * basis_bytes)
    tracemalloc.start()
    try:
        est = run(A, SdeConfig("vr_slq", budget=200, trials=5, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lockstep_calls == [(5, False)]
    assert peak < basis_bytes
    assert est.ledger.counts == {"lanczos": 5 * m}
    for facts in est.diagnostics["per_trial"]:
        assert facts["reorthogonalized"] == 0
        assert facts.keys() == {
            "m_effective", "reorthogonalized", "reorth_repeats", "merged",
            "spurious", "converged",
        }


def test_ghost_filter_merges_a_cluster_into_one_atom():
    # T's two end blocks are equal and couple only through 1e-9, so 0.5 is
    # a Ritz value twice over, as a ghost copy is; its atom carries both
    # copies' weights, and S counts it once.
    fact = TridiagonalFactorization(
        alpha=np.array([0.5, 0.0, 0.5]), eta=np.array([1e-9, 1e-9]), beta=0.0
    )
    ritz = tridiag_eig(fact)
    assert np.abs(ritz.values[:2] - 0.5).max() <= sde.GHOST_RTOL * np.finfo(float).eps
    values, weights, residuals, _ = sde._ghost_filter(ritz, fact)
    assert values.size == 2 and values[0] == pytest.approx(0.5, abs=1e-15)
    assert weights[0] == ritz.weights[:2].sum()
    assert residuals[0] == 0.0

    n, facts = 4, {}
    f, converged = _vr_density(fact, 1, n, facts)
    assert converged == 1
    assert facts == {"merged": 1, "spurious": 1}
    assert f.weights[f.locations > 0.4].sum() == 1.0 / n


def test_ghost_filter_keeps_a_spurious_value_out_of_S():
    # 0.9 is T-hat's eigenvalue, and T's top Ritz value only through 1e-12:
    # with no weight on the start vector, it is spurious, and keeps its
    # quadrature weight where a kept-basis run would give it mass 1/n.
    alpha, eta, n = np.array([0.1, 0.9]), np.array([1e-12]), 100
    free = TridiagonalFactorization(alpha, eta, beta=0.0)
    kept = TridiagonalFactorization(alpha, eta, Q=np.eye(2), beta=0.0)
    ritz = tridiag_eig(free)
    assert ritz.values[0] == 0.9 and ritz.weights[0] < 1e-20
    _, _, _, spurious = sde._ghost_filter(ritz, free)
    np.testing.assert_array_equal(spurious, [True, False])

    facts = {}
    f, converged = _vr_density(free, 1, n, facts)
    assert converged == 0
    assert facts == {"merged": 0, "spurious": 1}
    assert f.weights[f.locations == 0.9].sum() < 1e-20
    f, converged = _vr_density(kept, 1, n)
    assert converged == 1
    assert f.weights[f.locations == 0.9].sum() == 1.0 / n


def test_basis_free_vr_slq_gives_each_eigenvalue_at_most_its_mass(monkeypatch):
    # Without a basis, each of the three separated top eigenvalues comes back
    # as several Ritz values that pass S's tests; counted twice, one would
    # carry 2/n.  Every trial's S holds each of them exactly once.
    n = 2000
    spectrum = np.concatenate([[1.0, 0.8, 0.6], np.linspace(-0.3, 0.3, n - 3)])
    A = DiagonalOperator(spectrum)
    monkeypatch.setattr(lanczos_module, "LOCKSTEP_BASIS_BYTES", 0)
    deflated, with_atoms = [], sde._with_deflated_atoms

    def recording(lambdas, remainder, n):
        deflated.append(np.array(lambdas))
        return with_atoms(lambdas, remainder, n)

    monkeypatch.setattr(sde, "_with_deflated_atoms", recording)
    est = run(A, SdeConfig("vr_slq", budget=300, trials=3, seed=0))
    assert len(deflated) == 3
    for lambdas, facts in zip(deflated, est.diagnostics["per_trial"]):
        assert facts["reorthogonalized"] == 0 and facts["merged"] > 0
        for top in spectrum[:3]:
            assert np.count_nonzero(np.abs(lambdas - top) <= 1e-8) == 1
    for top in spectrum[:3]:
        mass = est.density.weights[np.abs(est.density.locations - top) <= 1e-8]
        assert mass.sum() <= (1 + 1e-12) / n


def test_run_per_trial_diagnostics_for_moment_methods():
    A, _ = random_symmetric(60, seed=50)
    for algo in ("kpm", "def_kpm"):
        est = run(A, SdeConfig(algo, budget=250, trials=3, seed=5))
        per_trial = est.diagnostics["per_trial"]
        assert len(per_trial) == 3
        keys = {"L", "N"} if algo == "kpm" else {"l", "s", "m", "L", "N"}
        assert all(set(facts) == keys for facts in per_trial)
        for facts in per_trial:
            if algo == "def_kpm" and facts["s"] == 60:
                # A fully deflated spectrum takes no moment stage.
                assert facts["N"] == 0 and facts["L"] == 0
            else:
                assert facts["N"] >= 1


def test_run_keeps_deflation_facts_per_trial_only():
    A, _ = random_symmetric(60, seed=50)
    est = run(A, SdeConfig("def_cmm", budget=250, trials=2, seed=5))
    assert not {"l", "q", "s", "N", "L", "norm_estimate"} & set(est.diagnostics)
    per_trial = est.diagnostics["per_trial"]
    assert len(per_trial) == 2
    assert all(set(facts) == {"l", "s", "m", "N", "L"} for facts in per_trial)


def test_run_reports_each_moment_matching_solve():
    A = DiagonalOperator(np.linspace(-1.0, 1.0, 300))
    for algo in ("cmm", "def_cmm"):
        est = run(A, SdeConfig(algo, budget=400, trials=2, seed=3))
        for facts in est.diagnostics["per_trial"]:
            assert facts["N"] >= 1
            assert facts["solver"] == "nnls"
            assert facts["residual"] <= EXACT_RESIDUAL
            assert 1 <= facts["support"] <= facts["N"] + 1
            assert 1 <= facts["nnls_columns"] <= SdeConfig.grid_d + 1


@pytest.mark.parametrize(
    "spec, matrix_seed, budget, seed",
    [("uniform:500", 1, 400, 0), ("uniform:500", 1, 400, 1), ("low_rank:500", 0, 600, 0)],
)
def test_cmm_finishes_where_the_simplex_lp_stalled(spec, matrix_seed, budget, seed):
    # The full-grid simplex LP alone took 13-17 s (uniform) and over 500 s
    # (low_rank) on these calls; "nnls" shows that it no longer runs.
    A = build_matrix(spec, matrix_seed)
    est = run(A, SdeConfig("cmm", budget=budget, seed=seed))
    facts = est.diagnostics["per_trial"][0]
    assert facts["solver"] == "nnls"
    assert facts["residual"] <= EXACT_RESIDUAL
    assert 1 <= facts["support"] <= facts["N"] + 1


def test_cmm_on_the_paper_grid_is_pinned():
    # cmm@800 on the paper grid, the shape of perfbench lp-grid's cmm@800:
    # the NNLS match reads every bit of the d = 20000 moment rows, so a
    # changed row shows as a changed support, column count or W1.
    A = build_matrix("low_rank:500", 0)
    est = run(A, SdeConfig("cmm", budget=800, seed=0, grid_d=20000))
    assert est.ledger.counts == {"norm_estimate": 18, "moments": 780}
    (facts,) = est.diagnostics["per_trial"]
    assert facts["solver"] == "nnls"
    assert (facts["N"], facts["L"]) == (52, 1.9999994626943254)
    assert (facts["support"], facts["nnls_columns"]) == (24, 532)
    w1 = wasserstein1(est.density, exact_density(A))
    assert w1 == pytest.approx(0.008780880629593694, rel=1e-9)


def test_cmm_full_grid_lp_is_pinned():
    # cmm@1200 on gaussian:500: no grid measure matches the N = 78 moments
    # to EXACT_RESIDUAL (the grid's best L1 match is about 1.7e-8), so NNLS
    # ends on the full grid and the LP runs on all d + 1 columns.
    A = build_matrix("gaussian:500", 0)
    est = run(A, SdeConfig("cmm", budget=1200, seed=0, grid_d=2000))
    assert est.ledger.counts == {"norm_estimate": 18, "moments": 1170}
    (facts,) = est.diagnostics["per_trial"]
    assert facts["solver"] == "lp"
    assert (facts["N"], facts["support"], facts["nnls_columns"]) == (78, 35, 2001)
    assert facts["residual"] > EXACT_RESIDUAL
    w1 = wasserstein1(est.density, exact_density(A))
    assert w1 == pytest.approx(0.02680320397386869, rel=1e-9)


def test_schatten1_identity_zero_and_harmonic():
    n = 100
    assert abs(schatten1_estimate(DiagonalOperator(np.ones(n)), 0.5) - n) <= 0.5 * n
    assert abs(schatten1_estimate(DiagonalOperator(np.zeros(n)), 0.5)) <= 1e-6
    n = 200
    H = float(np.sum(1.0 / np.arange(1, n + 1)))
    hits = 0
    for seed in range(3):
        M = schatten1_estimate(DiagonalOperator(1.0 / np.arange(1, n + 1)), 0.2, seed=seed)
        if abs(M - H) <= 0.2 * H:
            hits += 1
    assert hits >= 2
    with pytest.raises(ValueError):
        schatten1_estimate(DiagonalOperator(np.ones(4)), 1.5)


def test_schatten1_clamps_oversized_block_with_warning():
    A = DiagonalOperator(np.ones(9))
    with pytest.warns(UserWarning):
        M = schatten1_estimate(A, 0.3)
    assert abs(M - 9) <= 0.3 * 9


# W1 against exact_density, ledger counts and decided diagnostics of run()
# on one fixed diagonal matrix, so that a change to what an estimator
# computes shows here.  cmm is left out: another HiGHS version may return a
# different optimal vertex of the same LP.
PINNED_RUNS = [
    ("slq", 60, 0.003024226940134769, {"lanczos": 900},
     {"m": 60, "l": 0, "m_effective": [60] * 15}),
    ("slq", 200, 0.0028331305370572564, {"lanczos": 3000},
     {"m": 200, "l": 0, "m_effective": [200] * 15}),
    ("vr_slq", 60, 0.002867344395080891, {"lanczos": 600},
     {"m": 40, "l": 20, "m_effective": [40] * 15, "converged": [6] * 15}),
    ("vr_slq", 200, 0.002254683571291753, {"lanczos": 1995},
     {"m": 133, "l": 66, "m_effective": [133] * 15,
      "converged": [32, 31, 31, 32, 32, 32, 33, 31, 31, 30, 33, 32, 32, 32, 32]}),
    # kpm reads two moments per product on each of its 15 probes: N = 2K.
    ("kpm", 60, 0.7651294765969757, {"norm_estimate": 16, "moments": 30},
     {"N": [4], "L": [1.9706388600327789]}),
    ("kpm", 200, 0.10717984805040147, {"norm_estimate": 16, "moments": 180},
     {"N": [24], "L": [1.9706388600327789]}),
    # Block size 4 sizes a 124-column Krylov space from one start vector; it
    # deflates all six large eigenvalues and the 21 outermost of the small
    # ones, leaving K = 4 products on probes projected off the 27
    # eigenvectors, which give N = 8 moments of the remainder.
    ("def_kpm", 200, 0.0271479284858661,
     {"krylov_subspace": 124, "norm_estimate": 16, "moments": 60},
     {"N": [8], "l": [4], "s": [27], "L": [0.3462190039747821]}),
    # The same deflation run; cmm matches N = K = 4 moments of the remainder.
    # cmm's exact match is not unique (ROADMAP item 5), so round-off could
    # pick another matching density.  Here it does not: one and two BLAS
    # threads read the same W1 bits, and a one-ulp change to every k-th
    # diagonal entry (k = 2..11) moved W1 by at most 1.3e-14 relative,
    # well inside rel=1e-9.
    ("def_cmm", 200, 0.018535288355653098,
     {"krylov_subspace": 124, "norm_estimate": 16, "moments": 60},
     {"N": [4], "l": [4], "s": [27], "L": [0.3462190039747821]}),
]


def decided_diagnostics(diagnostics):
    """What run() decided: the Lanczos sizes m and l, and each per-trial fact
    but the reorthogonalization counts, as a list over the trials.  Those
    follow the omega estimates, which round-off from another BLAS may move."""
    facts = {key: diagnostics[key] for key in ("m", "l") if key in diagnostics}
    for key in ("m_effective", "converged", "N", "l", "s", "L"):
        values = [t[key] for t in diagnostics["per_trial"] if key in t]
        if values:
            assert key not in facts
            facts[key] = values
    return facts


def test_run_results_are_pinned():
    A = DiagonalOperator(
        np.concatenate([np.linspace(0.6, 1.0, 6), np.linspace(-0.2, 0.2, 194)])
    )
    exact = exact_density(A)
    for algo, budget, w1, counts, decided in PINNED_RUNS:
        est = run(A, SdeConfig(algo, budget=budget, seed=0))
        assert wasserstein1(est.density, exact) == pytest.approx(w1, rel=1e-9, abs=0)
        assert est.ledger.counts == counts, (algo, budget)
        facts = decided_diagnostics(est.diagnostics)
        assert facts.keys() == decided.keys(), (algo, budget)
        for key, value in decided.items():
            assert facts[key] == pytest.approx(value, rel=1e-9, abs=0), (algo, budget, key)
    # Budget 60 cannot fund def_kpm's rank-1 Krylov block.
    with pytest.raises(BudgetExhaustedError, match="rank-1 Krylov block"):
        run(A, SdeConfig("def_kpm", budget=60, seed=0))

    # The 15 bases of slq@60 at n = 20000 take 144 MB, more than
    # LOCKSTEP_BASIS_BYTES, so its trials run basis-free.  There round-off
    # moves where the ghost Ritz values appear: a one-ulp change to every
    # k-th diagonal entry (k = 2..11) moved W1 by 0.07-0.9% relative, and
    # two BLAS threads instead of one by 0.6%, hence the looser pin.  The
    # kept-basis run's W1 is 20% lower, and seeds 2-4 read 3-19% higher.
    A = DiagonalOperator(1.0 / np.arange(1, 20001))
    assert 60 > lanczos_module.kept_columns(A.dimension, 15)
    est = run(A, SdeConfig("slq", budget=60, seed=0))
    assert wasserstein1(est.density, exact_density(A)) == pytest.approx(
        5.598495063373472e-05, rel=3e-2, abs=0
    )
    assert est.ledger.counts == {"lanczos": 900}
    assert decided_diagnostics(est.diagnostics) == {
        "m": 60, "l": 0, "m_effective": [60] * 15
    }
    assert [t["reorthogonalized"] for t in est.diagnostics["per_trial"]] == [0] * 15


@pytest.mark.parametrize("algo", sde.ALGORITHMS)
def test_each_runner_obeys_its_row_not_the_name(algo):
    # Handed the config of an algorithm whose row gives the same runner and
    # differs in every parameter, a runner given algo's row parameters
    # returns algo's run() bit for bit.
    A = DiagonalOperator(
        np.concatenate([np.linspace(0.6, 1.0, 6), np.linspace(-0.2, 0.2, 194)])
    )
    runner, params, trials = sde.TRIAL_RUNNERS[algo]
    other = next(
        name for name, (other_runner, other_params, _) in sde.TRIAL_RUNNERS.items()
        if other_runner is runner
        and all(other_params[key] != value for key, value in params.items())
    )
    ledgers = [BudgetLedger() for _ in range(trials)]
    diagnostics = {}
    densities, per_trial = runner(
        A, SdeConfig(other, budget=200, seed=0), SeededStream(0), ledgers,
        diagnostics, **params,
    )
    est = run(A, SdeConfig(algo, budget=200, seed=0))
    density = average_densities(densities)
    np.testing.assert_array_equal(density.locations, est.density.locations)
    np.testing.assert_array_equal(density.weights, est.density.weights)
    merged = BudgetLedger()
    for ledger in ledgers:
        merged.merge(ledger)
    assert merged.counts == est.ledger.counts
    assert repr(dict(diagnostics, per_trial=per_trial)) == repr(
        {k: v for k, v in est.diagnostics.items() if k not in ("trials", "per_trial_budget")}
    )


def test_public_names_resolve():
    import specden

    assert [name for name in specden.__all__ if not hasattr(specden, name)] == []
    assert len(set(specden.__all__)) == len(specden.__all__)
    # run() and what it takes and returns; internals come from their modules.
    assert sorted(specden.__all__) == [
        "ALGORITHMS",
        "BudgetExhaustedError",
        "BudgetLedger",
        "DenseOperator",
        "DiagonalOperator",
        "DiscreteDistribution",
        "SdeConfig",
        "SdeEstimate",
        "SeededStream",
        "SparseOperator",
        "SymmetricOperator",
        "average_densities",
        "deflate",
        "exact_density",
        "run",
        "schatten1_estimate",
        "wasserstein1",
    ]
    # No exported function shadows the submodule of the same name.
    import specden.lanczos as module

    assert callable(module.lanczos_lockstep)
