"""End-to-end spectral density estimators under a matvec budget.

``run`` is the one entry point for six algorithms in two families.  The
moment family is Chebyshev moment matching (cmm) and the kernel polynomial
method (kpm), each plain or after explicit block-Krylov deflation (def_cmm,
def_kpm); plain cmm/kpm are the deflated methods at block size 0.  The
Lanczos family is stochastic Lanczos quadrature (slq) and its
variance-reduced variant (vr_slq).  Budgets are per invocation; multi-trial
averaging gives each trial the full budget and reports the merged ledger.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .block_krylov import DEFAULT_BETA, block_krylov_deflation
from .chebyshev import adjust_moments_for_deflation, estimate_moments
# sde.lanczos has no caller; it stays while perfbench/tracing.py wraps it.
from .lanczos import lanczos, lanczos_lockstep, tridiag_eig
from .metrics import DiscreteDistribution, average_densities
from .moment_matching import kpm_density, rescale_density, solve_moment_matching
from .operators import (
    BudgetLedger,
    ScaledOperator,
    deflate,
    norm_estimate_cost,
    spectral_norm_upper_bound,
)
from .randgen import SeededStream, unit_sphere_vector

# Benchmark protocol constants: 15 Hutchinson vectors, 15 block-Krylov
# iterations, the deflation gate ||A||_est / n^DEFAULT_BETA (imported from
# block_krylov), 15 averaging trials for the Lanczos-based estimators, and a
# 1:3 split of the budget between moment estimation and block Krylov.
DEFAULT_HUTCHINSON_B = 15
DEFAULT_KRYLOV_DEPTH = 15
DEFAULT_SLQ_TRIALS = 15
MOMENT_SHARE = 0.25

VR_C = 5.0
VR_DELTA = 0.01
VR_L_CAP = 100

# Most memory the Lanczos bases of one lockstep group of trials may take;
# more trials run as further, equal-sized groups, each still sharing one
# block product per step.  This bounds the peak footprint, and it keeps
# reorthogonalization's working set small: on a 2-core Xeon, 15 bases at
# n = 3000, m = 400 (144 MB) in one group raised peak memory by 8% and ran
# slower than two groups.
LOCKSTEP_BASIS_BYTES = 96 * 2**20


class BudgetExhaustedError(RuntimeError):
    """Budget too small to reach the moment-estimation stage."""


@dataclass
class SdeConfig:
    """Settings for one spectral density estimation run.

    The Hutchinson vector count, the block-Krylov depth and the deflation
    gate exponent are the protocol constants above, not settings.
    """

    algorithm: str
    budget: int
    trials: int = None
    grid_d: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.grid_d < 1:
            raise ValueError("grid resolution must be positive")

    def resolved_trials(self):
        if self.trials is not None:
            return self.trials
        return DEFAULT_SLQ_TRIALS if self.algorithm in ("slq", "vr_slq") else 1


@dataclass
class SdeEstimate:
    """Density estimate plus the exact matvec accounting that produced it."""

    density: DiscreteDistribution
    ledger: BudgetLedger
    diagnostics: dict = field(default_factory=dict)


def _slq_density(fact):
    """SLQ density of one Lanczos run: sum_j w_j^2 delta(x - lambda_j(T)).

    w_j is the first component of the j-th eigenvector of T.
    """
    ritz = tridiag_eig(fact)
    return DiscreteDistribution(ritz.values.copy(), ritz.weights)


def _vr_density(A, fact, l, beta, ledger):
    """vr_slq's density from one Lanczos run, and the size of its set S.

    A top-magnitude Ritz pair (lambda_j, Q v_j) joins the converged set S
    when its residual ||A Q v_j - lambda_j Q v_j|| is at most
    ||A||_est / n^beta and its quadrature weight w_j^2 is at most
    VR_C sqrt(log(l / VR_DELTA)) / n.  Atoms in S get mass 1/n; the
    remaining atoms keep their SLQ weights rescaled so total mass is 1.
    The top min(l, m_effective) Ritz vectors are tested in one block
    product, charging one ``residual_test`` unit each.
    """
    n = A.dimension
    ritz = tridiag_eig(fact)
    values, weights = ritz.values, ritz.weights
    k = values.size

    # The tridiagonal's own norm is a free estimate of ||A|| for the
    # residual threshold; Ritz values never exceed the true norm.
    norm_est = float(np.abs(values).max())
    threshold = norm_est / n**beta
    weight_cap = VR_C * math.sqrt(math.log(l / VR_DELTA)) / n

    tested = min(l, k)
    Y = fact.Q @ ritz.vectors[:, :tested]
    AY = A.apply_block(Y, ledger, stage="residual_test")
    resid = np.linalg.norm(AY - Y * values[:tested], axis=0)
    in_S = np.zeros(k, dtype=bool)
    in_S[:tested] = (resid <= threshold) & (weights[:tested] <= weight_cap)

    s = int(in_S.sum())
    if s == 0:
        return DiscreteDistribution(values.copy(), weights.copy()), s
    out_weights = np.empty(k)
    out_weights[in_S] = 1.0 / n
    rest = ~in_S
    rest_mass = 1.0 - s / n
    rest_total = float(weights[rest].sum())
    if rest.sum() == 0:
        # Every Ritz atom converged; park any leftover mass at zero.
        if rest_mass > 1e-15:
            return DiscreteDistribution(
                np.append(values, 0.0), np.append(out_weights, rest_mass)
            ), s
        return DiscreteDistribution(values.copy(), out_weights / out_weights.sum()), s
    if rest_total == 0.0:
        # Degenerate rescue: no quadrature mass left outside S, spread the
        # remainder uniformly over the unconverged Ritz values.
        out_weights[rest] = rest_mass / rest.sum()
    else:
        out_weights[rest] = weights[rest] * (rest_mass / rest_total)
    return DiscreteDistribution(values.copy(), out_weights), s


def _allocate_block_size(n, budget):
    """Largest block size l fitting the 1:3 moments-to-Krylov budget split.

    Block Lanczos to depth q spends one application per basis column, at
    most min(n, l(2q + 1)); the worst case adds both norm estimates and one
    moment.  Raises BudgetExhaustedError when not even l = 1 fits.
    """
    q, b = DEFAULT_KRYLOV_DEPTH, DEFAULT_HUTCHINSON_B
    per_column = 2 * q + 1
    target = max(1, int((1.0 - MOMENT_SHARE) * budget) // per_column)
    for l in range(min(n, target), 0, -1):
        worst = 2 * norm_estimate_cost(n) + min(n, l * per_column) + b
        if worst <= budget:
            return l
    raise BudgetExhaustedError(
        f"budget {budget} cannot fund even a rank-1 Krylov block at depth "
        f"{q} ({per_column} applications per column) plus norm estimation "
        f"({2 * norm_estimate_cost(n)}) and one moment ({b})"
    )


def _moment_estimate(A, l, method, budget, d, stream, ledger):
    """cmm or kpm density after deflating A with a rank-l Krylov block.

    With l > 0, block Lanczos to depth DEFAULT_KRYLOV_DEPTH finds s
    converged large-magnitude eigenpairs; they become exact atoms of mass
    1/n each, and the deflated remainder carries the other (n - s)/n of the
    mass.  l = 0 is plain cmm/kpm on the whole spectrum.  The moment stage
    estimates the remainder's norm bound L, spends the rest of ``budget`` on
    N = remaining // b Chebyshev moments of (1/L) A with
    b = DEFAULT_HUTCHINSON_B, removes the contribution of the s deflated
    zero eigenvalues, reconstructs a density on a d-point grid and rescales
    it to [-L, L].  A remainder whose L is within the deflation gate
    ||A||_est / n^beta (with l = 0: the zero operator) lies within L of the
    point mass at 0 in W1, which stands in for it with no moment.  Returns
    (density, facts); facts holds L and N, and l and s when l > 0.
    """
    n = A.dimension
    b = DEFAULT_HUTCHINSON_B
    start = ledger.total
    s, zero_below, facts = 0, 0.0, {}
    if l > 0:
        defl = block_krylov_deflation(
            A, l, q=DEFAULT_KRYLOV_DEPTH, beta=DEFAULT_BETA,
            stream=stream.substream(1), ledger=ledger,
        )
        s = defl.s
        facts = {"l": l, "s": s}
        if s >= n:
            density = DiscreteDistribution(defl.lambdas.copy(), np.full(n, 1.0 / n))
            return density, dict(facts, N=0, L=0.0)
        if s > 0:
            A = deflate(A, defl.Z)
        zero_below = defl.norm_estimate / n**DEFAULT_BETA

    remaining = budget - (ledger.total - start) - norm_estimate_cost(n)
    N = remaining // b
    if N < 1:
        raise BudgetExhaustedError(
            f"no budget left for moment estimation: {remaining} applications "
            f"remain after norm estimation but {b} per moment are needed; "
            f"consumption so far:\n{ledger.report()}"
        )
    L = spectral_norm_upper_bound(A, ledger, stream.substream(2))
    if L <= zero_below:
        density, N = DiscreteDistribution.point_mass(0.0), 0
    else:
        moments = estimate_moments(
            ScaledOperator(A, 1.0 / L), N, b, stream.substream(3), ledger
        )
        adjusted = adjust_moments_for_deflation(moments, n, s)
        if method == "cmm":
            grid = solve_moment_matching(adjusted, d)
        else:
            grid = kpm_density(adjusted, d)
        density = rescale_density(grid, L)
    facts.update(N=N, L=L)

    if s > 0:
        density = DiscreteDistribution(
            np.concatenate([defl.lambdas, density.locations]),
            np.concatenate([np.full(s, 1.0 / n), density.weights * ((n - s) / n)]),
        )
    spent = ledger.total - start
    if spent > budget:
        raise RuntimeError(f"ledger total {spent} exceeded budget {budget}")
    return density, facts


def _vr_sizing(budget, n):
    """Largest (m, l) with m + min(m // 2, cap) within budget; l may be 0."""
    for m in range(min(n, budget), 0, -1):
        l = min(m // 2, VR_L_CAP)
        if m + l <= budget:
            return m, l
    return 1, 0


def _lanczos_trials(A, config, root, ledgers, diagnostics):
    """slq or vr_slq: the trials' Lanczos runs advance in lockstep groups.

    Trial t starts from a unit vector drawn from ``root.substream(t)`` and
    charges ``ledgers[t]``.  Returns the densities
    and the per-trial diagnostics.
    """
    n = A.dimension
    if config.algorithm == "slq":
        m, l = min(config.budget, n), 0
        diagnostics["m"] = m
    else:
        m, l = _vr_sizing(config.budget, n)
        diagnostics.update(m=m, l=l)
    trials = len(ledgers)
    per_group = max(1, LOCKSTEP_BASIS_BYTES // (8 * m * n))
    densities, per_trial = [], []
    for group in np.array_split(np.arange(trials), math.ceil(trials / per_group)):
        # One group's basis at a time: it is freed when the call returns.
        group_densities, group_facts = _lanczos_group(
            A, config, m, l, root, group, ledgers
        )
        densities += group_densities
        per_trial += group_facts
    return densities, per_trial


def _lanczos_group(A, config, m, l, root, group, ledgers):
    """Densities and diagnostics of the trials in ``group``, run in lockstep."""
    n = A.dimension
    starts = np.column_stack(
        [unit_sphere_vector(n, root.substream(int(t))) for t in group]
    )
    group_ledgers = [ledgers[t] for t in group]
    block = lanczos_lockstep(A, starts, m, ledgers=group_ledgers)
    densities, per_trial = [], []
    for j, ledger in enumerate(group_ledgers):
        fact = block.trial(j)
        facts = {
            "m_effective": fact.m_effective,
            "reorth_repeats": int(block.reorth_repeats[j]),
        }
        if config.algorithm == "slq":
            density = _slq_density(fact)
        elif l == 0:
            density, facts["converged"] = _slq_density(fact), 0
        else:
            density, facts["converged"] = _vr_density(A, fact, l, DEFAULT_BETA, ledger)
        densities.append(density)
        per_trial.append(facts)
    return densities, per_trial


def _moment_trials(A, config, root, ledgers, diagnostics):
    """cmm, kpm, def_cmm or def_kpm: trial t runs from ``root.substream(t)``.

    Plain cmm/kpm are def_cmm/def_kpm with block size l = 0.
    """
    method = config.algorithm.removeprefix("def_")
    l = 0
    if method != config.algorithm:
        l = _allocate_block_size(A.dimension, config.budget)
    densities, per_trial = [], []
    for t, ledger in enumerate(ledgers):
        density, facts = _moment_estimate(
            A, l, method, config.budget, config.grid_d, root.substream(t), ledger
        )
        densities.append(density)
        per_trial.append(facts)
    return densities, per_trial


# Algorithm -> runner of all its trials.  A runner takes (A, config, root
# stream, one ledger per trial, run-level diagnostics to fill) and returns
# the trials' densities and per-trial diagnostics.
TRIAL_RUNNERS = {
    "cmm": _moment_trials,
    "kpm": _moment_trials,
    "def_cmm": _moment_trials,
    "def_kpm": _moment_trials,
    "slq": _lanczos_trials,
    "vr_slq": _lanczos_trials,
}
ALGORITHMS = tuple(TRIAL_RUNNERS)


def run(A, config):
    """Dispatch one algorithm with trial averaging; returns an SdeEstimate.

    Each trial receives the full budget (enforced per trial); the returned
    ledger is the merge across trials.  ``diagnostics["per_trial"]`` holds
    one dict per trial, and is the only place for per-trial facts: Lanczos
    ``m_effective`` and ``reorth_repeats`` (and vr_slq's converged-set size
    ``converged``) or the moment stage's ``L`` and ``N`` (and, with
    deflation, ``l`` and ``s``).
    """
    budget = config.budget
    trials = config.resolved_trials()
    ledgers = [BudgetLedger() for _ in range(trials)]
    diagnostics = {"trials": trials, "per_trial_budget": budget}
    densities, per_trial = TRIAL_RUNNERS[config.algorithm](
        A, config, SeededStream(config.seed), ledgers, diagnostics
    )

    merged = BudgetLedger()
    for t, ledger in enumerate(ledgers):
        if ledger.total > budget:
            raise RuntimeError(
                f"trial {t} consumed {ledger.total} applications, "
                f"budget is {budget}"
            )
        merged.merge(ledger)
    diagnostics["per_trial"] = per_trial
    return SdeEstimate(average_densities(densities), merged, diagnostics)


def schatten1_estimate(A, eps, ledger=None, seed=0):
    """Estimate the Schatten-1 norm (sum of singular values) of A.

    Runs the def_cmm pipeline with block size ceil(sqrt(n) / eps) and
    enough moments for accuracy ~1/sqrt(n) on the deflated tail, then
    returns n times the mean absolute atom location.
    """
    n = A.dimension
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    l = math.ceil(math.sqrt(n) / eps)
    if l > n:
        warnings.warn(f"block size {l} exceeds dimension {n}; clamping to {n}")
        l = n
    q = DEFAULT_KRYLOV_DEPTH
    b = DEFAULT_HUTCHINSON_B
    N = math.ceil(math.sqrt(n))
    budget = 2 * norm_estimate_cost(n) + min(n, l * (2 * q + 1)) + N * b
    density, _ = _moment_estimate(
        A, l, "cmm", budget, SdeConfig.grid_d, SeededStream(seed),
        BudgetLedger() if ledger is None else ledger,
    )
    return n * density.mean_abs()
