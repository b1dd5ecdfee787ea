import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from numpy.polynomial.chebyshev import chebval

from specden import DiscreteDistribution, moment_matching, wasserstein1
from specden.chebyshev import TBAR0, cheb_normalized_rows
from specden.metrics import exact_density
from specden.moment_matching import (
    EXACT_RESIDUAL,
    SolverError,
    chebyshev_series,
    grid_points,
    jackson_coefficients,
    kpm_density,
    moment_matrix,
    rescale_density,
    solve_moment_matching,
)

from conftest import cheb_normalized, random_symmetric, vertex_enumeration_l1


def exact_moments(eigs, N):
    """Exact normalized Chebyshev moments of a uniform spectrum (oracle)."""
    return np.array([float(np.mean(cheb_normalized(i, eigs))) for i in range(1, N + 1)])


def grid_to_distribution(q):
    return DiscreteDistribution(grid_points(q.size - 1), q)


def test_moment_matrix_rows_bounded():
    T = moment_matrix(5, 64)
    assert T.shape == (5, 65)
    for i in range(1, 6):
        assert np.max(np.abs(T[i - 1])) <= np.sqrt(2 / np.pi) / i + 1e-12


def test_atom_at_zero_recovered():
    d = 200
    moments = np.array([float(cheb_normalized(i, 0.0)) for i in range(1, 9)])
    q = solve_moment_matching(moments, d)
    z = moments / np.arange(1, 9)
    objective = np.abs(moment_matrix(8, d) @ q - z).sum()
    assert objective <= 1e-7
    w1 = wasserstein1(grid_to_distribution(q), DiscreteDistribution.point_mass(0.0))
    assert w1 <= 2 / d + 1e-6


def test_zero_first_moment():
    q = solve_moment_matching(np.array([0.0]), 64)
    # moment_matrix divides row i by i, so row 1 is exactly Tbar_1 on the grid.
    assert abs(moment_matrix(1, 64)[0] @ q) <= 1e-7


def test_diagonal_spectrum_recovery_and_validation():
    eigs = np.linspace(-0.95, 0.95, 64)
    N = 30
    q = solve_moment_matching(exact_moments(eigs, N), 2048)
    w1 = wasserstein1(
        grid_to_distribution(q),
        DiscreteDistribution(eigs, np.full(64, 1 / 64)),
    )
    assert w1 <= 40 / N
    assert w1 <= 0.1  # should be far better than the loose contract bound
    with pytest.raises(ValueError):
        solve_moment_matching(exact_moments(eigs, 30), d=10)


def test_small_instance_matches_vertex_enumeration(rng):
    for _ in range(8):
        N = int(rng.integers(1, 4))
        d = int(rng.integers(N, 9))
        moments = rng.uniform(-0.5, 0.5, N)
        q = solve_moment_matching(moments, d)
        T = moment_matrix(N, d)
        z = moments / np.arange(1, N + 1)
        ours = np.abs(T @ q - z).sum()
        oracle = vertex_enumeration_l1(T, z)
        assert abs(ours - oracle) <= 1e-8
        assert np.all(q >= 0)
        assert q.sum() == pytest.approx(1.0, abs=1e-9)


def test_objective_never_worsens_with_finer_grid():
    moments = exact_moments(np.linspace(-0.8, 0.6, 32), 10)
    z = moments / np.arange(1, 11)
    objectives = []
    for d in (64, 256, 1024):
        q = solve_moment_matching(moments, d)
        objectives.append(np.abs(moment_matrix(10, d) @ q - z).sum())
    assert objectives[1] <= objectives[0] + 1e-9
    assert objectives[2] <= objectives[1] + 1e-9


@pytest.mark.parametrize("x0", [0.3, -0.7, 0.0])
def test_one_moment_gives_the_nearest_grid_atom(x0):
    # Unit-norm columns make NNLS pick the atom whose moment is closest;
    # unscaled NNLS splits the mass between -1 and 1.
    d = 2000
    q = solve_moment_matching(np.array([float(cheb_normalized(1, x0))]), d)
    w1 = wasserstein1(grid_to_distribution(q), DiscreteDistribution.point_mass(x0))
    assert w1 <= 2 / d


def record_nnls_widths(monkeypatch):
    """Column counts of every NNLS solve from here on, in call order."""
    widths = []
    nnls = moment_matching.scipy.optimize.nnls

    def recording_nnls(A, b, **kwargs):
        widths.append(A.shape[1])
        return nnls(A, b, **kwargs)

    monkeypatch.setattr(moment_matching.scipy.optimize, "nnls", recording_nnls)
    return widths


def test_exact_moments_are_matched_on_the_paper_grid_by_nnls(monkeypatch):
    # A full-grid LP at d = 20000 would take seconds to minutes; "nnls"
    # shows that only the LP on NNLS's atoms ran.  NNLS itself must stay on
    # its screened columns: on all 20001 it took most of this test's time.
    widths = record_nnls_widths(monkeypatch)
    N, d = 52, 20000
    moments = exact_moments(np.linspace(-0.95, 0.95, 64), N)
    diagnostics = {}
    q = solve_moment_matching(moments, d, diagnostics)
    T, z = moment_matrix(N, d), moments / np.arange(1, N + 1)
    assert np.abs(T @ q - z).sum() <= EXACT_RESIDUAL
    # The diagnostic sums T q over q's support, from a row-major copy of
    # those columns; over all d + 1 columns, or column-major, BLAS adds in
    # another order (here 2.4e-17 apart).
    support = np.flatnonzero(q)
    residual = np.abs(np.ascontiguousarray(T[:, support]) @ q[support] - z).sum()
    assert diagnostics == {
        "solver": "nnls",
        "residual": pytest.approx(residual, rel=1e-12, abs=0.0),
        "support": np.count_nonzero(q),
        "nnls_columns": widths[-1],
    }
    assert diagnostics["support"] <= N + 1
    assert max(widths) <= (d + 1) / 10


@pytest.mark.parametrize(
    "atoms, weights",
    [([1], [1.0]), ([1, 1001], [0.5, 0.5]), ([1, 500, 1999], [0.2, 0.3, 0.5])],
    ids=["point_mass", "two_atoms", "three_atoms"],
)
def test_grid_atoms_off_the_strided_columns_are_matched_by_nnls(
    monkeypatch, atoms, weights
):
    # N = 12, d = 2000 starts NNLS on every 19th column; these atoms are not
    # among them, and all but the point mass need the gradient to add them.
    widths = record_nnls_widths(monkeypatch)
    N, d = 12, 2000
    moments = moment_matrix(N, d)[:, atoms] @ np.array(weights) * np.arange(1, N + 1)
    diagnostics = {}
    q = solve_moment_matching(moments, d, diagnostics)
    assert diagnostics["solver"] == "nnls"
    assert diagnostics["support"] == len(atoms)
    np.testing.assert_allclose(q[atoms], weights, rtol=0, atol=1e-12)
    assert diagnostics["nnls_columns"] == widths[-1]
    assert max(widths) <= (d + 1) / 10


@pytest.mark.parametrize(
    "N, d", [(1, 64), (5, 2000), (52, 20000), (104, 20000), (300, 2000)]
)
def test_in_place_system_and_support_columns_equal_the_table_formula(N, d):
    # The table formula: chebvander's N + 1 rows, T beside it, the scaled
    # system M beside T and norm's squared copy of M.
    rng = np.random.default_rng(N + d)
    z = rng.uniform(-0.6, 0.6, N) / np.arange(1, N + 1)
    T = cheb_normalized_rows(N, grid_points(d)) / np.arange(1, N + 1)[:, None]
    M = np.vstack([T - z[:, None], np.ones(d + 1)])
    scale = np.linalg.norm(M, axis=0)
    M_in_place, scale_in_place = moment_matching._scaled_system(z, d)
    assert np.array_equal(scale_in_place, scale)
    assert np.array_equal(M_in_place, M / scale)
    assert np.array_equal(moment_matrix(N, d), T)
    support = np.sort(rng.choice(d + 1, min(N + 1, d + 1), replace=False))
    columns = moment_matching._moment_rows(N, grid_points(d)[support])
    assert np.array_equal(columns, T[:, support])


def test_moment_matching_holds_one_moment_system():
    # The moments of a spectrum, matched by NNLS on screened columns: the
    # solve's peak is the scaled system M, one (N + 1) x (d + 1) array.
    # Holding T, M and norm's squared copy of M at once peaked at about 3x.
    N, d = 52, 20000
    moments = exact_moments(np.linspace(-0.95, 0.95, 64), N)
    diagnostics = {}
    tracemalloc.start()
    try:
        solve_moment_matching(moments, d, diagnostics)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diagnostics["solver"] == "nnls"
    assert peak <= 1.5 * 8 * (N + 1) * (d + 1)


def full_grid_nnls_matches(T, z):
    """Whether column-scaled NNLS on all d + 1 columns matches T q = z exactly."""
    N, n_q = T.shape
    M = np.vstack([T - z[:, None], np.ones(n_q)])
    scale = np.linalg.norm(M, axis=0)
    try:
        y, _ = scipy.optimize.nnls(M / scale, np.concatenate([np.zeros(N), [1.0]]))
    except RuntimeError:
        return False
    q = y / scale
    return q.sum() > 0 and np.abs(T @ (q / q.sum()) - z).sum() <= EXACT_RESIDUAL


def random_moment_problems(kind, count=30, seed=17):
    """(tau, d) pairs with N = 1-12 and d in {40, 200, 2000}."""
    rng = np.random.default_rng([seed, ["grid", "off_grid", "random"].index(kind)])
    for _ in range(count):
        N = int(rng.integers(1, 13))
        d = int(rng.choice([40, 200, 2000]))
        if kind == "random":
            yield rng.uniform(-0.6, 0.6, N), d
            continue
        k = int(rng.integers(1, 8))
        if kind == "grid":
            x = grid_points(d)[rng.choice(d + 1, k, replace=False)]
        else:
            x = rng.uniform(-1.0, 1.0, k)
        w = rng.dirichlet(np.ones(k))
        yield np.array([w @ cheb_normalized(i, x) for i in range(1, N + 1)]), d


def seven_grid_atoms():
    # Stopping once no column outside the set has a gradient above 1e-15
    # leaves ||T q - z||_1 = 3.2e-8 here, where full-grid NNLS reaches 4e-16:
    # adjacent grid columns are nearly parallel.
    N, d = 12, 2000
    rng = np.random.default_rng(4)
    atoms = np.sort(rng.choice(d + 1, 7, replace=False))
    weights = rng.dirichlet(np.ones(7))
    return [(moment_matrix(N, d)[:, atoms] @ weights * np.arange(1, N + 1), d)]


@pytest.mark.parametrize(
    "problems",
    [
        pytest.param(lambda: random_moment_problems("grid"), id="grid_atoms"),
        pytest.param(lambda: random_moment_problems("off_grid"), id="off_grid_atoms"),
        pytest.param(lambda: random_moment_problems("random"), id="random_moments"),
        pytest.param(seven_grid_atoms, id="vanishing_gradient"),
    ],
)
def test_screened_nnls_matches_whenever_full_grid_nnls_does(problems):
    for tau, d in problems():
        N = tau.size
        T, z = moment_matrix(N, d), tau / np.arange(1, N + 1)
        expected = full_grid_nnls_matches(T, z)
        q, columns = moment_matching._nnls_support(z, d)
        if expected:
            assert q is not None, (N, d)
        if q is not None:
            assert np.abs(T @ q - z).sum() <= EXACT_RESIDUAL
        assert 1 <= columns <= d + 1
        diagnostics = {}
        solve_moment_matching(tau, d, diagnostics)
        assert diagnostics["solver"] == ("nnls" if expected else "lp"), (N, d)


def test_a_failed_polish_returns_the_nnls_match(monkeypatch):
    N, d = 20, 2000
    moments = exact_moments(np.linspace(-0.9, 0.7, 40), N)
    full_lp = moment_matching._l1_lp

    def polish_fails(T, z):
        res = full_lp(T, z)
        if T.shape[1] < d + 1:  # the LP on NNLS's atoms, not the full grid
            res.success, res.status = False, 4
        return res

    monkeypatch.setattr(moment_matching, "_l1_lp", polish_fails)
    diagnostics = {}
    q = solve_moment_matching(moments, d, diagnostics)
    assert diagnostics["solver"] == "nnls"
    assert diagnostics["residual"] <= EXACT_RESIDUAL
    assert np.all(q >= 0) and q.sum() == pytest.approx(1.0, abs=1e-12)


def test_a_failed_nnls_falls_back_to_the_full_lp(monkeypatch):
    def nnls_fails(*args, **kwargs):
        raise RuntimeError("too many iterations")

    monkeypatch.setattr(moment_matching.scipy.optimize, "nnls", nnls_fails)
    moments = exact_moments(np.linspace(-0.9, 0.7, 40), 6)
    diagnostics = {}
    solve_moment_matching(moments, 200, diagnostics)
    assert diagnostics["solver"] == "lp"
    assert diagnostics["residual"] <= 1e-7


def test_unrealizable_moments_take_the_full_lp_and_its_iteration_cap(monkeypatch):
    # E[x] = 0.88 with E[x^2] = 0.06: no probability measure has these moments.
    moments = np.array([0.7, -0.7, 0.7])
    diagnostics = {}
    solve_moment_matching(moments, 40, diagnostics)
    assert diagnostics["solver"] == "lp"
    assert diagnostics["residual"] > 0.1
    monkeypatch.setattr(moment_matching, "LP_MAXITER", 1)
    with pytest.raises(SolverError, match=r"\(status 1\).*; N=3, d=40, iterations=1$"):
        solve_moment_matching(moments, 40)


def test_kpm_zero_moments_gives_chebyshev_weight_shape():
    q = kpm_density(np.zeros(6), 128)
    x = grid_points(128)
    half = 1.0 / 128
    w = 1.0 / np.sqrt(1.0 - np.clip(x, -1 + half, 1 - half) ** 2)
    np.testing.assert_allclose(q, w / w.sum(), atol=1e-12)


def test_kpm_valid_for_random_moments(rng):
    for _ in range(5):
        q = kpm_density(rng.uniform(-0.7, 0.7, 12), 256)
        assert np.all(q >= 0)
        assert q.sum() == pytest.approx(1.0, abs=1e-9)


def kpm_grid_density(series, d):
    """kpm_density's grid weights from its damped series on grid_points(d)."""
    x = grid_points(d)
    half = 1.0 / d
    values = np.clip(series / np.sqrt(1.0 - np.clip(x, -1 + half, 1 - half) ** 2), 0, None)
    return values / values.sum()


def kpm_density_table(tau, d):
    """kpm_density by the N x (d + 1) table of Tbar_k on the grid (reference),
    built 2001 grid points at a time to bound its memory."""
    x = grid_points(d)
    damped = jackson_coefficients(tau.size) * tau
    series = np.concatenate([
        TBAR0 / np.sqrt(np.pi) + damped @ cheb_normalized_rows(tau.size, x[i : i + 2001])
        for i in range(0, x.size, 2001)
    ])
    return kpm_grid_density(series, d)


def test_kpm_matches_the_damped_series_summed_degree_by_degree(rng):
    tau, d = rng.uniform(-0.7, 0.7, 30), 500
    x = grid_points(d)
    series = np.full(x.size, cheb_normalized(0, 0.0) / np.sqrt(np.pi))
    for k, damping in enumerate(jackson_coefficients(tau.size), start=1):
        series += damping * tau[k - 1] * cheb_normalized(k, x)
    np.testing.assert_allclose(
        kpm_density(tau, d), kpm_grid_density(series, d), rtol=1e-12, atol=1e-16
    )


@pytest.mark.parametrize("d", [2000, 20000])
@pytest.mark.parametrize("N", [1, 2, 52, 104, 1000])
def test_kpm_clenshaw_sum_matches_the_table(N, d):
    # Clenshaw's recurrence sums the series with no N x (d + 1) table; it
    # agreed with the table to 4e-14 of the largest weight (random moments,
    # N = 1000, d = 20000) and to 8e-15 on the moments of a spectrum.
    rng = np.random.default_rng(N + d)
    eigs = rng.uniform(-0.9, 0.5, 300)
    for tau in (rng.uniform(-0.7, 0.7, N), cheb_normalized_rows(N, eigs).mean(axis=1)):
        reference = kpm_density_table(tau, d)
        assert np.abs(kpm_density(tau, d) - reference).max() <= 1e-13 * reference.max()


@pytest.mark.parametrize("size", [1, 2, 3, 4, 105])
def test_clenshaw_in_three_arrays_is_chebval_to_the_bit(size):
    # The in-place recurrence does chebval's operations in chebval's order;
    # 105 coefficients are kpm's N = 104 moments after tau_0.
    x = grid_points(20000)
    c = np.random.default_rng(size).uniform(-1.0, 1.0, size)
    assert chebyshev_series(x, c).tobytes() == chebval(x, c).tobytes()


def test_kpm_concentrates_on_exact_atom():
    moments = exact_moments(np.array([0.3]), 40)
    q = kpm_density(moments, 2000)
    w1 = wasserstein1(grid_to_distribution(q), DiscreteDistribution.point_mass(0.3))
    assert w1 <= 0.1


def test_cmm_beats_kpm_on_spiky_spectrum():
    # The moment-matching LP resolves point masses that the smoothing
    # Jackson kernel blurs; on a low-rank-style spectrum it wins clearly.
    # (On smooth spectra like uniform eigenvalues, KPM is the stronger
    # baseline at equal N; the LP's edge is specifically spiky densities.)
    eigs = np.concatenate([np.linspace(0.3, 1.0, 40), np.zeros(160)])
    exact = DiscreteDistribution(eigs, np.full(200, 1 / 200))
    moments = exact_moments(eigs, 20)
    w1_cmm = wasserstein1(grid_to_distribution(solve_moment_matching(moments, 2000)), exact)
    w1_kpm = wasserstein1(grid_to_distribution(kpm_density(moments, 2000)), exact)
    assert w1_cmm <= w1_kpm


def test_jackson_coefficients_shape():
    for N in (1, 5, 20):
        b = jackson_coefficients(N)
        assert b.shape == (N,)
        assert np.all(b <= 1.0 + 1e-12)
        assert np.all(np.diff(b) <= 1e-12)  # damping decreases with degree
    assert jackson_coefficients(1)[0] == pytest.approx(0.0, abs=1e-15)


def test_rescale_density():
    q = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    unchanged = rescale_density(q, 1.0)
    assert unchanged.locations[unchanged.weights.argmax()] == pytest.approx(0.0)
    scaled = rescale_density(np.array([0, 0, 0, 1.0, 0]), 2.0)
    assert scaled.locations[scaled.weights.argmax()] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rescale_density(q, 0.0)


def test_rescale_w1_homogeneity(rng):
    weights = rng.uniform(0, 1, 65)
    q = weights / weights.sum()
    ref = DiscreteDistribution.point_mass(0.2)
    base = wasserstein1(grid_to_distribution(q), ref)
    for L in (0.5, 3.0):
        scaled = wasserstein1(
            rescale_density(q, L), DiscreteDistribution.point_mass(0.2 * L)
        )
        assert scaled == pytest.approx(L * base, abs=1e-9)
