"""End-to-end spectral density estimators under a matvec budget.

``run`` is the one entry point for six algorithms in two families.  The
moment family is Chebyshev moment matching (cmm) and the kernel polynomial
method (kpm), each plain or after explicit deflation by a one-vector Krylov
run (def_cmm, def_kpm); plain cmm/kpm are the deflated methods at block
size 0.  The Lanczos family is stochastic Lanczos quadrature (slq) and its
variance-reduced variant (vr_slq).  Budgets are per invocation; multi-trial
averaging gives each trial the full budget and reports the merged ledger.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .block_krylov import basis_capacity, block_krylov_deflation, deflation_gate
# sde.adjust_moments_for_deflation and sde.lanczos have no caller; they stay
# while perfbench/tracing.py wraps them.
from .chebyshev import adjust_moments_for_deflation, estimate_moments
from .lanczos import (
    EPS,
    kept_columns,
    lanczos,
    lanczos_lockstep,
    magnitude_order,
    tridiag_eig,
    tridiag_hat_eigvals,
)
from .metrics import DiscreteDistribution, average_densities
from .moment_matching import (
    check_grid,
    kpm_density,
    rescale_density,
    solve_moment_matching,
)
from .operators import (
    BudgetLedger,
    ScaledOperator,
    deflate,
    norm_estimate_cost,
    spectral_norm_upper_bound,
)
from .randgen import SeededStream, unit_sphere_vector

# Benchmark protocol constants: 15 Hutchinson vectors, Krylov depth 15 (the
# one-vector deflation run of block size l spends at most 31 l products),
# 15 averaging trials for the Lanczos-based estimators, and a 1:3 budget
# split between moments and the Krylov run.  The deflation gate is
# block_krylov.deflation_gate.
DEFAULT_HUTCHINSON_B = 15
DEFAULT_KRYLOV_DEPTH = 15
DEFAULT_SLQ_TRIALS = 15
MOMENT_SHARE = 0.25

VR_C = 5.0
VR_DELTA = 0.01
VR_L_CAP = 100

# Ritz values of a basis-free vr_slq run within GHOST_RTOL eps max|theta| m
# of each other are copies of one eigenvalue (``_ghost_filter``).  With every
# run of the n = 500 grid made basis-free, W1 moved little for multipliers
# from 0.5 to 1000.
GHOST_RTOL = 5.0


class BudgetExhaustedError(RuntimeError):
    """Budget too small to reach the moment-estimation stage."""


@dataclass
class SdeConfig:
    """Settings for one spectral density estimation run.

    The Hutchinson vector count, the Krylov depth and the deflation
    gate are protocol constants, not settings.
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
        for name in ("budget", "trials", "grid_d", "seed"):
            value = getattr(self, name)
            if name == "trials" and value is None:
                continue
            # bool is an Integral: True would pass as a budget of 1.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    def resolved_trials(self):
        if self.trials is not None:
            return self.trials
        return TRIAL_RUNNERS[self.algorithm][2]


@dataclass
class SdeEstimate:
    """Density estimate plus the exact matvec accounting that produced it."""

    density: DiscreteDistribution
    ledger: BudgetLedger
    diagnostics: dict = field(default_factory=dict)


def _vr_density(fact, l, n, facts=None):
    """vr_slq's density from one Lanczos run on an n x n operator, and the
    size of its set S.

    The SLQ density of the run is sum_j w_j^2 delta(x - lambda_j(T)), where
    w_j is the first component of the j-th eigenvector s_j of T.  With
    l = 0 (slq) it is returned as is and S is empty.  Otherwise one of the
    top-l-magnitude Ritz pairs joins S when its residual, which
    ``tridiag_eig`` reads from the recurrence with no product, is within
    ``deflation_gate`` and its quadrature weight w_j^2 is at most
    VR_C sqrt(log(l / VR_DELTA)) / n.  Atoms in S get mass 1/n; the
    remaining atoms keep their SLQ weights, renormalized to carry the other
    (n - s)/n, and when every Ritz atom is in S that mass sits at 0.

    A run that kept no basis (``fact.Q`` is None) brings back each converged
    eigenvalue as several Ritz values, each of which would pass both tests.
    Its pairs go through ``_ghost_filter`` first: the copies of one
    eigenvalue become one atom, and spurious values stay out of S with their
    weights in the remainder; S is then chosen among the top l atoms as
    above.  The filter's counts ``merged`` and ``spurious`` go into
    ``facts``.
    """
    ritz = tridiag_eig(fact)
    values, weights, residuals = ritz.values, ritz.weights, ritz.residuals
    if l == 0:
        return DiscreteDistribution(values, weights), 0

    threshold = deflation_gate(values, n)
    spurious = np.zeros(values.size, dtype=bool)
    if fact.Q is None:
        values, weights, residuals, spurious = _ghost_filter(ritz, fact)
        if facts is not None:
            facts.update(
                merged=ritz.values.size - values.size, spurious=int(spurious.sum())
            )
    weight_cap = VR_C * math.sqrt(math.log(l / VR_DELTA)) / n
    in_S = (residuals <= threshold) & (weights <= weight_cap) & ~spurious
    in_S[l:] = False

    s = int(in_S.sum())
    if in_S.all():
        remainder = DiscreteDistribution.point_mass(0.0)
    else:
        rest_weights = weights[~in_S]
        if rest_weights.sum() == 0.0:
            # Degenerate rescue: no quadrature mass left outside S, spread the
            # remainder uniformly over the unconverged Ritz values.
            rest_weights = np.ones(rest_weights.size)
        remainder = DiscreteDistribution(
            values[~in_S], rest_weights / rest_weights.sum()
        )
    return _with_deflated_atoms(values[in_S], remainder, n), s


def _ghost_filter(ritz, fact):
    """A basis-free run's Ritz pairs with its ghosts told apart, by Cullum
    and Willoughby's test (J. Comput. Phys. 44, 1981): (values, weights,
    residuals, spurious) in descending magnitude.

    Ritz values within tol = GHOST_RTOL eps max|theta| m of their neighbours
    are copies of one eigenvalue and merge into one atom at the cluster's
    smallest value, with the copies' weights summed, which is the
    eigenvalue's Gauss weight (Greenbaum, Linear Algebra Appl. 113, 1989),
    and their smallest residual.  An atom of one Ritz value within tol of an
    eigenvalue of T-hat (``tridiag_hat_eigvals``) is spurious.
    """
    order = np.argsort(ritz.values, kind="stable")
    values = ritz.values[order]
    tol = GHOST_RTOL * EPS * np.abs(values).max() * fact.m_effective
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)
    sizes = np.diff(starts, append=values.size)
    atoms = values[starts]
    weights = np.add.reduceat(ritz.weights[order], starts)
    residuals = np.minimum.reduceat(ritz.residuals[order], starts)

    mu = tridiag_hat_eigvals(fact)
    spurious = np.zeros(atoms.size, dtype=bool)
    if mu.size:
        # Distance from each atom to the nearest eigenvalue of T-hat.
        right = np.searchsorted(mu, atoms).clip(max=mu.size - 1)
        left = (right - 1).clip(min=0)
        gap = np.minimum(np.abs(atoms - mu[left]), np.abs(atoms - mu[right]))
        spurious = (sizes == 1) & (gap <= tol)
    keep = magnitude_order(atoms)
    return atoms[keep], weights[keep], residuals[keep], spurious[keep]


def _with_deflated_atoms(lambdas, remainder, n):
    """The deflating estimators' mass rule: the s deflated eigenvalues as
    atoms of mass 1/n each, plus the distribution ``remainder`` carrying the
    other (n - s)/n.  With s = n, ``remainder`` is not read."""
    s = lambdas.size
    if s == n:
        return DiscreteDistribution(lambdas, np.full(n, 1.0 / n))
    return DiscreteDistribution(
        np.concatenate([lambdas, remainder.locations]),
        np.concatenate([np.full(s, 1.0 / n), remainder.weights * ((n - s) / n)]),
    )


def _deflated_trial_cost(n, l, K):
    """Most applications a rank-l deflated moment trial with K products per
    probe spends.

    The one-vector Krylov run spends one application per basis column, at
    most ``basis_capacity``; the remainder's norm estimate and K products on
    each of b Hutchinson vectors, which give 2K moments, come on top.
    """
    q, b = DEFAULT_KRYLOV_DEPTH, DEFAULT_HUTCHINSON_B
    return norm_estimate_cost(n) + basis_capacity(l, q, n) + K * b


def _allocate_block_size(n, budget):
    """Largest block size l within the 1:3 moments-to-Krylov budget split,
    at 2q + 1 products per column, whose trial, with one product per probe,
    fits the budget; products the basis cap leaves unspent become moments.

    Raises BudgetExhaustedError when not even l = 1 fits.
    """
    q, b = DEFAULT_KRYLOV_DEPTH, DEFAULT_HUTCHINSON_B
    per_column = 2 * q + 1
    target = max(1, int((1.0 - MOMENT_SHARE) * budget) // per_column)
    for l in range(min(n, target), 0, -1):
        if _deflated_trial_cost(n, l, 1) <= budget:
            return l
    raise BudgetExhaustedError(
        f"budget {budget} cannot fund even a rank-1 Krylov block at depth "
        f"{q} ({per_column} applications per column) plus norm estimation "
        f"({norm_estimate_cost(n)}) and one product per probe ({b})"
    )


def _moment_estimate(A, l, method, budget, d, stream, ledger):
    """cmm or kpm density after deflating A with a rank-l Krylov block.

    With l > 0, Lanczos from one start vector, m <= ``basis_capacity``
    products long, finds s converged large-magnitude eigenpairs; they become
    exact atoms of mass 1/n each, and the remainder carries the other
    (n - s)/n.  l = 0 is plain cmm/kpm on the whole spectrum.  The moment
    stage estimates the remainder's norm bound L and spends the rest of
    ``budget`` (more when the Krylov space is exhausted or the basis cap
    ends the run before l(2q + 1) columns) as K = remaining // b products
    on each of b = DEFAULT_HUTCHINSON_B unit probes, projected off the
    deflated eigenvectors so that their moments are those of the remainder
    alone.  The K products give 2K Chebyshev moments of (1/L) A
    (``estimate_moments``): kpm reconstructs from all N = 2K, and cmm
    matches the first N = K, since matching 2K made its NNLS several times
    slower on large grids.  The density on a d-point grid is rescaled to
    [-L, L].  A remainder whose L is within the Krylov run's
    ``deflation_gate`` (with l = 0: the zero operator) lies within L of the
    point mass at 0 in W1, which stands in for it with no moment.  Any other
    remainder is checked against the grid (``check_grid(N, d)``) before its
    probes are drawn, so a grid too coarse for N spends no moment product.
    Returns (density, facts); facts holds L and N, the number of moments the
    reconstruction read, l, s and the run's length m when l > 0, and cmm's
    solver, residual, support and nnls_columns when it solves for a density.
    """
    n = A.dimension
    b = DEFAULT_HUTCHINSON_B
    start = ledger.total
    lambdas, Z, zero_below, facts = np.empty(0), None, 0.0, {}
    if l > 0:
        defl = block_krylov_deflation(
            A, l, q=DEFAULT_KRYLOV_DEPTH, stream=stream.substream(1), ledger=ledger
        )
        lambdas = defl.lambdas
        facts = {"l": l, "s": defl.s, "m": defl.candidates_examined}
        if defl.s == n:
            return _with_deflated_atoms(lambdas, None, n), dict(facts, N=0, L=0.0)
        if defl.s > 0:
            Z = defl.Z
            A = deflate(A, Z)
        zero_below = defl.gate

    remaining = budget - (ledger.total - start) - norm_estimate_cost(n)
    K = remaining // b
    if K < 1:
        raise BudgetExhaustedError(
            f"no budget left for moment estimation: {remaining} applications "
            f"remain after norm estimation but {b}, one product per probe, "
            f"are needed; consumption so far:\n{ledger.report()}"
        )
    L = spectral_norm_upper_bound(A, ledger, stream.substream(2))
    if L <= zero_below:
        density, N = DiscreteDistribution.point_mass(0.0), 0
    else:
        N = K if method == "cmm" else 2 * K
        check_grid(N, d)
        tau = estimate_moments(
            ScaledOperator(A, 1.0 / L), K, b, stream.substream(3), ledger, Z
        )[:N]
        if method == "cmm":
            q = solve_moment_matching(tau, d, facts)
        else:
            q = kpm_density(tau, d)
        density = rescale_density(q, L)
    facts.update(N=N, L=L)

    density = _with_deflated_atoms(lambdas, density, n)
    spent = ledger.total - start
    if spent > budget:
        raise RuntimeError(f"ledger total {spent} exceeded budget {budget}")
    return density, facts


def _vr_sizing(budget, n, cap):
    """Largest m <= n with m + l within budget, where l = min(m // 2, cap)
    Ritz pairs are tested; slq is the case cap = 0.  Returns (m, l).

    vr_slq reads the l residuals from the Lanczos recurrence, so the l
    products reserved here go unspent.  Spending them as more Lanczos steps
    (m = budget, as slq does) would change vr_slq's ledger and W1, and make
    its kept basis, and with it each Gram-Schmidt pass, up to half as long
    again."""
    for m in range(min(n, budget), 0, -1):
        l = min(m // 2, cap)
        if m + l <= budget:
            return m, l


def _lanczos_trials(A, config, root, ledgers, diagnostics, cap):
    """slq (cap = 0) or vr_slq (cap = VR_L_CAP): the trials' Lanczos runs
    advance in one ``lanczos_lockstep`` call.  A kept basis stops at an
    exhausted Krylov space and makes the result insensitive to round-off
    in A, so the runs keep their bases while m <= ``kept_columns(n,
    trials)``.  Beyond that they keep none: slq reads only Gauss quadrature,
    which survives the loss of orthogonality, and vr_slq keeps the ghost
    copies that the loss brings out of its set S (``_ghost_filter``).

    Trial t starts from a unit vector drawn from ``root.substream(t)`` and
    charges ``ledgers[t]``; with cap > 0 its facts also hold the size of its
    set S and, for a run that kept no basis, ``_vr_density``'s ghost-filter
    counts.  Returns the densities and per-trial diagnostics.
    """
    n = A.dimension
    m, l = _vr_sizing(config.budget, n, cap)
    diagnostics.update(m=m, l=l)
    basis = m <= kept_columns(n, len(ledgers))
    starts = np.column_stack(
        [unit_sphere_vector(n, root.substream(t)) for t in range(len(ledgers))]
    )
    densities, per_trial = [], []
    for ledger, fact in zip(ledgers, lanczos_lockstep(A, starts, m, basis)):
        ledger.charge("lanczos", fact.m_effective)
        facts = {
            "m_effective": fact.m_effective,
            "reorthogonalized": fact.reorthogonalized,
            "reorth_repeats": fact.reorth_repeats,
        }
        density, converged = _vr_density(fact, l, n, facts)
        if cap:
            facts["converged"] = converged
        densities.append(density)
        per_trial.append(facts)
    return densities, per_trial


def _moment_trials(A, config, root, ledgers, diagnostics, method, deflated):
    """cmm or kpm (``method``), deflated or not: trial t runs from
    ``root.substream(t)``.

    Plain cmm/kpm are def_cmm/def_kpm with block size l = 0.
    """
    l = _allocate_block_size(A.dimension, config.budget) if deflated else 0
    densities, per_trial = [], []
    for t, ledger in enumerate(ledgers):
        density, facts = _moment_estimate(
            A, l, method, config.budget, config.grid_d, root.substream(t), ledger
        )
        densities.append(density)
        per_trial.append(facts)
    return densities, per_trial


# Algorithm -> (runner of all its trials, the runner's parameters, default
# trial count).  A runner takes (A, config, root stream, one ledger per
# trial, run-level diagnostics to fill, **parameters) and returns the
# trials' densities and per-trial diagnostics; it reads no algorithm name.
TRIAL_RUNNERS = {
    "cmm": (_moment_trials, {"method": "cmm", "deflated": False}, 1),
    "kpm": (_moment_trials, {"method": "kpm", "deflated": False}, 1),
    "def_cmm": (_moment_trials, {"method": "cmm", "deflated": True}, 1),
    "def_kpm": (_moment_trials, {"method": "kpm", "deflated": True}, 1),
    "slq": (_lanczos_trials, {"cap": 0}, DEFAULT_SLQ_TRIALS),
    "vr_slq": (_lanczos_trials, {"cap": VR_L_CAP}, DEFAULT_SLQ_TRIALS),
}
ALGORITHMS = tuple(TRIAL_RUNNERS)


def run(A, config):
    """Dispatch one algorithm with trial averaging; returns an SdeEstimate.

    The algorithm's ``TRIAL_RUNNERS`` row gives its runner, the runner's
    parameters and the default trial count.  Each trial receives the full
    budget (enforced per trial); the returned ledger is the merge across
    trials.  ``diagnostics["per_trial"]`` holds one dict per trial, and is
    the only place for per-trial facts: Lanczos ``m_effective``,
    ``reorthogonalized`` and ``reorth_repeats`` (and vr_slq's converged-set
    size ``converged``, and where its run kept no basis, the number of Ritz
    values ``merged`` into another's atom and of atoms rejected as
    ``spurious``) or the moment stage's ``L`` and ``N``, the number of
    moments its reconstruction read (and, with deflation, ``l``, ``s`` and
    the deflation run's length ``m``; for cmm, the moment-matching
    ``solver``, ``residual``, ``support`` and ``nnls_columns``, the column
    count of its last NNLS solve).
    """
    budget = config.budget
    trials = config.resolved_trials()
    ledgers = [BudgetLedger() for _ in range(trials)]
    diagnostics = {"trials": trials, "per_trial_budget": budget}
    runner, params, _ = TRIAL_RUNNERS[config.algorithm]
    densities, per_trial = runner(
        A, config, SeededStream(config.seed), ledgers, diagnostics, **params
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
    budget = _deflated_trial_cost(n, l, math.ceil(math.sqrt(n)))
    density, _ = _moment_estimate(
        A, l, "cmm", budget, SdeConfig.grid_d, SeededStream(seed),
        BudgetLedger() if ledger is None else ledger,
    )
    return n * density.mean_abs()
