import numpy as np
import pytest

from specden import DiscreteDistribution, wasserstein1
from specden.chebyshev import MomentVector, cheb_normalized, cheb_normalized_at_zero
from specden.metrics import exact_density
from specden.moment_matching import (
    GridDensity,
    grid_points,
    jackson_coefficients,
    kpm_density,
    moment_matrix,
    rescale_density,
    solve_moment_matching,
)

from conftest import random_symmetric, vertex_enumeration_l1


def exact_moments(eigs, N):
    """Exact normalized Chebyshev moments of a uniform spectrum (oracle)."""
    return MomentVector(
        np.array([float(np.mean(cheb_normalized(i, eigs))) for i in range(1, N + 1)])
    )


def grid_to_distribution(q):
    return DiscreteDistribution(q.support, q.weights)


def test_grid_density_validation():
    with pytest.raises(ValueError):
        GridDensity(4, np.ones(4))
    with pytest.raises(ValueError):
        GridDensity(3, np.array([0.5, -0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        GridDensity(3, np.full(4, 0.3))
    ok = GridDensity(4, np.full(5, 0.2))
    np.testing.assert_allclose(ok.support, np.linspace(-1, 1, 5))


def test_moment_matrix_rows_bounded():
    T = moment_matrix(5, 64)
    assert T.shape == (5, 65)
    for i in range(1, 6):
        assert np.max(np.abs(T[i - 1])) <= np.sqrt(2 / np.pi) / i + 1e-12


def test_atom_at_zero_recovered():
    d = 200
    moments = MomentVector(
        np.array([cheb_normalized_at_zero(i) for i in range(1, 9)])
    )
    q = solve_moment_matching(moments, d)
    z = moments.values / np.arange(1, 9)
    objective = np.abs(moment_matrix(8, d) @ q.weights - z).sum()
    assert objective <= 1e-7
    w1 = wasserstein1(grid_to_distribution(q), DiscreteDistribution.point_mass(0.0))
    assert w1 <= 2 / d + 1e-6


def test_zero_first_moment():
    q = solve_moment_matching(MomentVector(np.array([0.0])), 64)
    assert abs(q.moment(1)) <= 1e-7


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
        moments = MomentVector(rng.uniform(-0.5, 0.5, N))
        q = solve_moment_matching(moments, d)
        T = moment_matrix(N, d)
        z = moments.values / np.arange(1, N + 1)
        ours = np.abs(T @ q.weights - z).sum()
        oracle = vertex_enumeration_l1(T, z)
        assert abs(ours - oracle) <= 1e-8
        assert np.all(q.weights >= 0)
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_objective_never_worsens_with_finer_grid():
    moments = exact_moments(np.linspace(-0.8, 0.6, 32), 10)
    z = moments.values / np.arange(1, 11)
    objectives = []
    for d in (64, 256, 1024):
        q = solve_moment_matching(moments, d)
        objectives.append(np.abs(moment_matrix(10, d) @ q.weights - z).sum())
    assert objectives[1] <= objectives[0] + 1e-9
    assert objectives[2] <= objectives[1] + 1e-9


def test_kpm_zero_moments_gives_chebyshev_weight_shape():
    q = kpm_density(MomentVector(np.zeros(6)), 128)
    x = grid_points(128)
    half = 1.0 / 128
    w = 1.0 / np.sqrt(1.0 - np.clip(x, -1 + half, 1 - half) ** 2)
    np.testing.assert_allclose(q.weights, w / w.sum(), atol=1e-12)


def test_kpm_valid_for_random_moments(rng):
    for _ in range(5):
        q = kpm_density(MomentVector(rng.uniform(-0.7, 0.7, 12)), 256)
        assert np.all(q.weights >= 0)
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-9)


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
    q = GridDensity(4, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    unchanged = rescale_density(q, 1.0)
    assert unchanged.locations[unchanged.weights.argmax()] == pytest.approx(0.0)
    scaled = rescale_density(GridDensity(4, np.array([0, 0, 0, 1.0, 0])), 2.0)
    assert scaled.locations[scaled.weights.argmax()] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rescale_density(q, 0.0)


def test_rescale_w1_homogeneity(rng):
    weights = rng.uniform(0, 1, 65)
    q = GridDensity(64, weights / weights.sum())
    ref = DiscreteDistribution.point_mass(0.2)
    base = wasserstein1(grid_to_distribution(q), ref)
    for L in (0.5, 3.0):
        scaled = wasserstein1(
            rescale_density(q, L), DiscreteDistribution.point_mass(0.2 * L)
        )
        assert scaled == pytest.approx(L * base, abs=1e-9)
