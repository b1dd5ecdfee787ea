import numpy as np
import pytest

from specden import (
    BudgetLedger,
    DiagonalOperator,
    SdeConfig,
    SeededStream,
    average_densities,
    block_krylov_deflation,
    exact_density,
    run,
    schatten1_estimate,
    wasserstein1,
)
from specden import sde
from specden.lanczos import TridiagonalFactorization, lanczos, tridiag_eig
from specden.metrics import DiscreteDistribution
from specden.operators import norm_estimate_cost
from specden.randgen import unit_sphere_vector
from specden.sde import (
    BudgetExhaustedError,
    _allocate_block_size,
    _moment_estimate,
    _slq_density,
    _vr_density,
    _vr_sizing,
)

from conftest import equal_weight_ritz_density, random_symmetric


def lanczos_trial(A, m, stream, ledger=None):
    """One trial's Lanczos run from the start vector run() draws from ``stream``."""
    g = unit_sphere_vector(A.dimension, stream)
    return lanczos(A, g, m, ledger=ledger)


def slq_density(A, m, stream, ledger=None):
    """One slq trial's density from the start vector run() draws."""
    return _slq_density(lanczos_trial(A, m, stream, ledger))


def vr_slq_density(A, m, l, stream, beta=sde.DEFAULT_BETA, ledger=None):
    """One vr_slq trial's density from the start vector run() draws."""
    density, _ = _vr_density(A, lanczos_trial(A, m, stream, ledger), l, beta, ledger)
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


def test_vr_slq_empty_gate_equals_slq():
    A, _ = random_symmetric(40, seed=35)
    # beta huge -> residual threshold below machine precision, nothing admits.
    f_vr = vr_slq_density(A, 10, 5, SeededStream(8), beta=50.0)
    f_slq = slq_density(A, 10, SeededStream(8))
    np.testing.assert_allclose(f_vr.locations, f_slq.locations)
    np.testing.assert_allclose(f_vr.weights, f_slq.weights)


def test_vr_slq_budget_is_m_plus_tested():
    entries = np.zeros(50)
    entries[:3] = [1.0, -0.7, 0.4]
    A = DiagonalOperator(entries)
    ledger = BudgetLedger()
    m, l = 20, 5
    vr_slq_density(A, m, l, SeededStream(4), ledger=ledger)
    # Krylov space has dimension 4 here, so Lanczos breaks down at 4 and
    # only min(l, 4) residual tests run.
    assert ledger.counts["lanczos"] == 4
    assert ledger.counts["residual_test"] == 4


def test_vr_slq_every_atom_converged_gives_exact_density():
    # Full Krylov space: all n Ritz pairs pass both gates, so S has n atoms
    # and no mass is left to park at zero.
    A = DiagonalOperator(np.array([1.0, 0.5, -0.3, -0.8]))
    f = vr_slq_density(A, 4, 4, SeededStream(2))
    np.testing.assert_allclose(np.sort(f.locations), [-0.8, -0.3, 0.5, 1.0], atol=1e-12)
    np.testing.assert_array_equal(f.weights, np.full(4, 0.25))


def test_vr_slq_spreads_mass_when_unconverged_weight_underflows():
    # The second Ritz vector's first component squares to 0.0, so the mass
    # left outside S is spread uniformly over the unconverged atoms.
    A = DiagonalOperator(np.array([1.0, 0.5]))
    fact = TridiagonalFactorization(
        alpha=np.array([1.0, 0.5]), eta=np.array([1e-200]), Q=np.eye(2)
    )
    ledger = BudgetLedger()
    f, converged = _vr_density(A, fact, 1, 1.0, ledger)
    assert converged == 1
    np.testing.assert_allclose(f.locations, [0.5, 1.0])
    np.testing.assert_allclose(f.weights, [0.5, 0.5])
    assert ledger.counts == {"residual_test": 1}


def test_vr_sizing_fits_budget():
    for budget in (3, 10, 100, 1000):
        m, l = _vr_sizing(budget, 500)
        assert m + l <= budget
        assert l == min(m // 2, 100)


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
    # The same deflation, rerun on its own, gives the gate's norm estimate.
    defl = block_krylov_deflation(
        A, l, q=sde.DEFAULT_KRYLOV_DEPTH, stream=SeededStream(4).substream(1)
    )
    gate = defl.norm_estimate / n**sde.DEFAULT_BETA
    assert facts["L"] <= gate
    assert wasserstein1(density, exact_density(A)) <= gate


def test_sde_with_deflation_s_zero_equals_plain_cmm(monkeypatch):
    A, _ = random_symmetric(60, seed=41)
    # beta so strict that no Ritz pair is ever admitted.
    monkeypatch.setattr(sde, "DEFAULT_BETA", 50.0)
    budget, d = 300, 2000
    ledger = BudgetLedger()
    density, facts = _moment_estimate(A, 2, "cmm", budget, d, SeededStream(9), ledger)
    assert facts["s"] == 0
    assert "rayleigh_ritz" not in ledger.counts
    spent_on_krylov = ledger.counts["krylov_subspace"] + norm_estimate_cost(60)
    remaining = budget - spent_on_krylov
    plain, _ = _moment_estimate(A, 0, "cmm", remaining, d, SeededStream(9), BudgetLedger())
    np.testing.assert_allclose(density.locations, plain.locations)
    np.testing.assert_allclose(density.weights, plain.weights)


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
    # The least budget that runs is one norm estimate plus one moment.
    least = norm_estimate_cost(200) + sde.DEFAULT_HUTCHINSON_B
    with pytest.raises(BudgetExhaustedError):
        run(A, SdeConfig("kpm", budget=least - 1))
    assert run(A, SdeConfig("kpm", budget=least)).diagnostics["per_trial"][0]["N"] == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SdeConfig("nope", budget=10)
    with pytest.raises(ValueError):
        SdeConfig("slq", budget=0)
    with pytest.raises(ValueError):
        SdeConfig("slq", budget=10, trials=0)
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
            m, l = (min(budget, 30), 0) if algo == "slq" else _vr_sizing(budget, 30)
            if l == 0:
                lanczos_trial(A, m, stream, ledger)
            else:
                vr_slq_density(A, m, l, stream, ledger=ledger)
            assert facts["m_effective"] == ledger.counts["lanczos"]
            # At most one repeated Gram-Schmidt pass per step after the first.
            assert 0 <= facts["reorth_repeats"] < facts["m_effective"]
            assert ledger.total <= budget
            spent.append(ledger.counts)
        merged = {}
        for counts in spent:
            for stage, c in counts.items():
                merged[stage] = merged.get(stage, 0) + c
        assert est.ledger.counts == merged


def test_run_lockstep_groups_do_not_change_results(monkeypatch):
    A = DiagonalOperator(np.linspace(-1.0, 1.0, 40))
    for algo in ("slq", "vr_slq"):
        config = SdeConfig(algo, budget=30, trials=5, seed=3)
        whole = run(A, config)
        # Room for two slq bases per group: slq runs groups of 2, 2 and 1.
        monkeypatch.setattr(sde, "LOCKSTEP_BASIS_BYTES", 2 * 8 * 30 * 40)
        grouped = run(A, config)
        monkeypatch.undo()
        np.testing.assert_array_equal(whole.density.locations, grouped.density.locations)
        np.testing.assert_array_equal(whole.density.weights, grouped.density.weights)
        assert whole.ledger.counts == grouped.ledger.counts
        assert whole.diagnostics == grouped.diagnostics


def test_run_per_trial_diagnostics_for_moment_methods():
    A, _ = random_symmetric(60, seed=50)
    for algo in ("kpm", "def_kpm"):
        est = run(A, SdeConfig(algo, budget=250, trials=3, seed=5))
        per_trial = est.diagnostics["per_trial"]
        assert len(per_trial) == 3
        keys = {"L", "N"} if algo == "kpm" else {"l", "s", "L", "N"}
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
    assert all(set(facts) == {"l", "s", "N", "L"} for facts in per_trial)


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
