"""End-to-end spectral density estimators under a matvec budget.

Six algorithms share one entry point: Chebyshev moment matching (cmm),
kernel polynomial method (kpm), both with explicit deflation (def_cmm,
def_kpm), stochastic Lanczos quadrature (slq), and its variance-reduced
variant (vr_slq).  Budgets are per invocation; multi-trial averaging gives
each trial the full budget and reports the merged ledger.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .block_krylov import DEFAULT_BETA, block_krylov_deflation
from .chebyshev import adjust_moments_for_deflation, estimate_moments
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

ALGORITHMS = ("cmm", "kpm", "def_cmm", "def_kpm", "slq", "vr_slq")

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
    deflation_block: int = None
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
        if self.deflation_block is not None and self.deflation_block < 0:
            raise ValueError("deflation block size must be nonnegative")
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


def slq(A, m, stream, ledger=None):
    """Stochastic Lanczos quadrature density from one random start.

    f = sum_j w_j^2 delta(x - lambda_j(T)) with w_j the first component of
    the j-th eigenvector of T; consumes m applications (fewer on breakdown).
    """
    g = unit_sphere_vector(A.dimension, stream)
    return _slq_density(lanczos(A, g, m, ledger=ledger))


def _slq_density(fact):
    ritz = tridiag_eig(fact)
    return DiscreteDistribution(ritz.values.copy(), ritz.weights)


def vr_slq(A, m, l, beta=DEFAULT_BETA, stream=None, ledger=None):
    """Variance-reduced SLQ: converged top Ritz atoms get weight exactly 1/n.

    A top-magnitude Ritz pair (lambda_j, Q v_j) joins the converged set S
    when its residual ||A Q v_j - lambda_j Q v_j|| is at most
    ||A||_est / n^beta and its quadrature weight w_j^2 is at most
    VR_C sqrt(log(l / VR_DELTA)) / n.  Atoms in S get mass 1/n; the
    remaining atoms keep their SLQ weights rescaled so total mass is 1.
    Consumes m applications for Lanczos plus one per residual test.
    """
    if stream is None:
        stream = SeededStream(0)
    if not 1 <= l <= m:
        raise ValueError(f"need 1 <= l <= m, got l={l}, m={m}")
    g = unit_sphere_vector(A.dimension, stream)
    fact = lanczos(A, g, m, ledger=ledger)
    density, _ = _vr_density(A, fact, l, beta, ledger)
    return density


def _vr_density(A, fact, l, beta, ledger):
    """vr_slq's density from one Lanczos run, and the size of its set S.

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


def _moment_stage(A, n, s, budget, d, method, stream, ledger, zero_below=0.0):
    """Shared tail of the moment-based estimators.

    Estimates the norm of A (the possibly deflated operator), spends the
    rest of ``budget`` on N = remaining // b Chebyshev moments of (1/L) A
    with b = DEFAULT_HUTCHINSON_B, removes the contribution of s deflated
    zero eigenvalues, reconstructs a grid density, and rescales to [-L, L].
    An operator whose norm bound L is at most ``zero_below`` is taken as
    zero: every eigenvalue lies in [-L, L], so the point mass at 0 is within
    L of its density in W1, and no moment is estimated.  Returns
    (density, L, N).
    """
    L = spectral_norm_upper_bound(A, ledger, stream.substream(2))
    if L <= zero_below:
        return DiscreteDistribution.point_mass(0.0), L, 0
    b = DEFAULT_HUTCHINSON_B
    remaining = budget - norm_estimate_cost(n)
    N = remaining // b
    if N < 1:
        raise BudgetExhaustedError(
            f"no budget left for moment estimation: {remaining} applications "
            f"remain after norm estimation but {b} per moment are needed; "
            f"consumption so far:\n{ledger.report() if ledger else '(no ledger)'}"
        )
    moments = estimate_moments(
        ScaledOperator(A, 1.0 / L), N, b, stream.substream(3), ledger
    )
    adjusted = adjust_moments_for_deflation(moments, n, s)
    if method == "cmm":
        grid = solve_moment_matching(adjusted, d)
    else:
        grid = kpm_density(adjusted, d)
    return rescale_density(grid, L), L, N


def cmm(A, budget, stream, ledger=None, d=2000):
    """Plain Chebyshev moment matching on the whole spectrum."""
    density, _, _ = _moment_stage(A, A.dimension, 0, budget, d, "cmm", stream, ledger)
    return density


def kpm(A, budget, stream, ledger=None, d=2000):
    """Plain Jackson-damped kernel polynomial density."""
    density, _, _ = _moment_stage(A, A.dimension, 0, budget, d, "kpm", stream, ledger)
    return density


def _allocate_block_size(n, budget, q, b):
    """Largest block size l fitting the 1:3 moments-to-Krylov budget split.

    Block Lanczos to depth q spends one application per basis column, at
    most min(n, l(2q + 1)); the worst case adds both norm estimates and one
    moment.
    """
    per_column = 2 * q + 1
    target = max(1, int((1.0 - MOMENT_SHARE) * budget) // per_column)
    for l in range(min(n, target), 0, -1):
        worst = 2 * norm_estimate_cost(n) + min(n, l * per_column) + b
        if worst <= budget:
            return l
    return 0


def sde_with_deflation(A, config, ledger=None, stream=None):
    """Moment matching (or KPM) after explicit block-Krylov deflation.

    Converged large-magnitude eigenpairs become s exact atoms of mass 1/n
    each; the deflated remainder is handled by the moment pipeline and
    contributes the other (n - s)/n of the mass.  A remainder whose norm
    bound is within the deflation gate ||A||_est / n^beta is a point mass
    at 0, estimated with no moments.
    """
    if config.algorithm not in ("def_cmm", "def_kpm"):
        raise ValueError(f"algorithm {config.algorithm!r} does not use deflation")
    method = "cmm" if config.algorithm == "def_cmm" else "kpm"
    if ledger is None:
        ledger = BudgetLedger()
    if stream is None:
        stream = SeededStream(config.seed)
    n = A.dimension
    budget = config.budget
    b, q, beta = DEFAULT_HUTCHINSON_B, DEFAULT_KRYLOV_DEPTH, DEFAULT_BETA
    start = ledger.total

    l = config.deflation_block
    if l is None:
        l = _allocate_block_size(n, budget, q, b)
    if l < 1:
        raise BudgetExhaustedError(
            f"budget {budget} cannot fund even a rank-1 Krylov block at depth "
            f"{q} ({2 * q + 1} applications per column) plus norm estimation "
            f"({2 * norm_estimate_cost(n)}) and one moment ({b})"
        )

    defl = block_krylov_deflation(
        A, l, q=q, beta=beta, stream=stream.substream(1), ledger=ledger
    )
    s = defl.s
    diagnostics = {"l": l, "q": q, "s": s, "norm_estimate": defl.norm_estimate}

    if s >= n:
        density = DiscreteDistribution(defl.lambdas.copy(), np.full(n, 1.0 / n))
        diagnostics.update(L=0.0, N=0)
        return SdeEstimate(density, ledger, diagnostics)

    deflated = deflate(A, defl.Z) if s > 0 else A
    remaining = budget - (ledger.total - start)
    gate = defl.norm_estimate / n**beta
    tail, L, N = _moment_stage(
        deflated, n, s, remaining, config.grid_d, method, stream, ledger,
        zero_below=gate,
    )
    diagnostics.update(L=L, N=N)

    if s == 0:
        density = tail
    else:
        locations = np.concatenate([defl.lambdas, tail.locations])
        weights = np.concatenate(
            [np.full(s, 1.0 / n), tail.weights * ((n - s) / n)]
        )
        density = DiscreteDistribution(locations, weights)
    spent = ledger.total - start
    if spent > budget:
        raise RuntimeError(f"ledger total {spent} exceeded budget {budget}")
    return SdeEstimate(density, ledger, diagnostics)


def _vr_sizing(budget, n):
    """Largest (m, l) with m + min(m // 2, cap) within budget; l may be 0."""
    for m in range(min(n, budget), 0, -1):
        l = min(m // 2, VR_L_CAP)
        if m + l <= budget:
            return m, l
    return 1, 0


def _lanczos_trials(A, config, root, ledgers, diagnostics):
    """slq or vr_slq: the trials' Lanczos runs advance in lockstep groups.

    Trial t starts from the same vector a single-trial run draws from
    ``root.substream(t)`` and charges ``ledgers[t]``.  Returns the densities
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
        facts = {"m_effective": fact.m_effective}
        if config.algorithm == "slq":
            density = _slq_density(fact)
        elif l == 0:
            density, facts["converged"] = _slq_density(fact), 0
        else:
            density, facts["converged"] = _vr_density(A, fact, l, DEFAULT_BETA, ledger)
        densities.append(density)
        per_trial.append(facts)
    return densities, per_trial


def run(A, config):
    """Dispatch one algorithm with trial averaging; returns an SdeEstimate.

    Each trial receives the full budget (enforced per trial); the returned
    ledger is the merge across trials.  ``diagnostics["per_trial"]`` holds
    one dict per trial, and is the only place for per-trial facts: Lanczos
    ``m_effective`` (and vr_slq's converged-set size ``converged``) or the
    moment stage's ``L`` and ``N`` (and, with deflation, ``l`` and ``s``).
    """
    n = A.dimension
    budget = config.budget
    trials = config.resolved_trials()
    root = SeededStream(config.seed)
    ledgers = [BudgetLedger() for _ in range(trials)]
    diagnostics = {"trials": trials, "per_trial_budget": budget}

    if config.algorithm in ("slq", "vr_slq"):
        densities, per_trial = _lanczos_trials(A, config, root, ledgers, diagnostics)
    else:
        densities, per_trial = [], []
        for t, ledger in enumerate(ledgers):
            stream = root.substream(t)
            if config.algorithm in ("cmm", "kpm"):
                density, L, N = _moment_stage(
                    A, n, 0, budget, config.grid_d, config.algorithm, stream, ledger
                )
                per_trial.append({"L": L, "N": N})
            else:
                est = sde_with_deflation(A, config, ledger, stream)
                density = est.density
                per_trial.append({k: est.diagnostics[k] for k in ("l", "s", "N", "L")})
            densities.append(density)

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

    Runs the deflation pipeline with block size ceil(sqrt(n) / eps) and
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
    config = SdeConfig("def_cmm", budget=budget, deflation_block=l, seed=seed)
    est = sde_with_deflation(A, config, ledger)
    return n * est.density.mean_abs()
