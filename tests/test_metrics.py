import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specden import DenseOperator, DiagonalOperator, DiscreteDistribution
from specden.metrics import (
    DistributionError,
    average_densities,
    exact_density,
    wasserstein1,
)

from conftest import random_distribution, sorted_eigenvalue_error, transport_lp_w1


def dist(pairs):
    loc, w = zip(*pairs)
    return DiscreteDistribution(np.array(loc), np.array(w))


def test_w1_trivial_cases():
    p = dist([(0.0, 0.5), (1.0, 0.5)])
    assert wasserstein1(p, p) == 0.0
    assert wasserstein1(
        DiscreteDistribution.point_mass(0.0), DiscreteDistribution.point_mass(1.0)
    ) == pytest.approx(1.0)
    q = DiscreteDistribution.point_mass(0.5)
    assert wasserstein1(p, q) == pytest.approx(0.5)


def test_w1_matches_transport_lp(rng):
    for _ in range(30):
        p = random_distribution(rng)
        q = random_distribution(rng)
        assert abs(wasserstein1(p, q) - transport_lp_w1(p, q)) <= 1e-10


def test_w1_rejects_unnormalized():
    p = DiscreteDistribution(np.array([0.0]), np.array([0.5]), normalized=False)
    q = DiscreteDistribution.point_mass(0.0)
    with pytest.raises(DistributionError):
        wasserstein1(p, q)


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(0.1, 10.0),
    shift=st.floats(-5.0, 5.0),
    seed=st.integers(0, 1000),
)
def test_w1_homogeneity_and_translation(scale, shift, seed):
    r = np.random.default_rng(seed)
    p = random_distribution(r)
    q = random_distribution(r)
    base = wasserstein1(p, q)
    ps = DiscreteDistribution(p.locations * scale, p.weights)
    qs = DiscreteDistribution(q.locations * scale, q.weights)
    assert wasserstein1(ps, qs) == pytest.approx(scale * base, abs=1e-9)
    ps = DiscreteDistribution(p.locations + shift, p.weights)
    qs = DiscreteDistribution(q.locations + shift, q.weights)
    assert wasserstein1(ps, qs) == pytest.approx(base, abs=1e-9)


def test_w1_triangle_inequality(rng):
    for _ in range(20):
        p, q, r = (random_distribution(rng) for _ in range(3))
        assert wasserstein1(p, r) <= wasserstein1(p, q) + wasserstein1(q, r) + 1e-12


def test_distribution_validation_and_merging():
    with pytest.raises(DistributionError):
        DiscreteDistribution(np.array([0.0]), np.array([0.5]))
    with pytest.raises(DistributionError):
        DiscreteDistribution(np.array([np.inf]), np.array([1.0]))
    with pytest.raises(DistributionError):
        DiscreteDistribution(np.array([0.0, 1.0]), np.array([1.5, -0.5]))
    merged = DiscreteDistribution(np.array([0.3, 0.3, 1.0]), np.array([0.25, 0.25, 0.5]))
    assert len(merged) == 2
    np.testing.assert_allclose(merged.weights, [0.5, 0.5])


def test_exact_density_examples():
    d = exact_density(DiagonalOperator(np.array([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(d.locations, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(d.weights, np.full(3, 1 / 3))
    ident = exact_density(DiagonalOperator(np.ones(8)))
    assert len(ident) == 1 and ident.weights[0] == pytest.approx(1.0)


def test_exact_density_matches_characteristic_polynomial_roots():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((4, 4))
    A = DenseOperator(M + M.T)
    d = exact_density(A)
    roots = np.sort(np.roots(np.poly(A.to_dense())).real)
    np.testing.assert_allclose(d.locations, roots, atol=1e-8)


def test_exact_density_cap():
    class Fake:
        dimension = 10_000

    with pytest.raises(DistributionError):
        exact_density(Fake())


def test_sorted_eigenvalue_error_matches_w1(rng):
    n = 10
    for _ in range(5):
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, n)
        p = DiscreteDistribution(a, np.full(n, 1 / n))
        q = DiscreteDistribution(b, np.full(n, 1 / n))
        assert abs(sorted_eigenvalue_error(p, q, n) - wasserstein1(p, q)) <= 1e-12
    same = DiscreteDistribution(np.arange(3.0), np.full(3, 1 / 3))
    assert sorted_eigenvalue_error(same, same, 3) == 0.0
    shifted = DiscreteDistribution(np.arange(3.0) + 0.7, np.full(3, 1 / 3))
    assert sorted_eigenvalue_error(same, shifted, 3) == pytest.approx(0.7)
    uneven = dist([(0.0, 0.3), (1.0, 0.7)])
    with pytest.raises(DistributionError):
        sorted_eigenvalue_error(uneven, same, 3)


def test_average_densities():
    p = dist([(0.0, 1.0)])
    q = dist([(1.0, 1.0)])
    single = average_densities([p])
    assert wasserstein1(single, p) == 0.0
    assert wasserstein1(average_densities([p, p]), p) == 0.0
    avg = average_densities([p, q])
    np.testing.assert_allclose(avg.locations, [0.0, 1.0])
    np.testing.assert_allclose(avg.weights, [0.5, 0.5])
    with pytest.raises(DistributionError):
        average_densities([])
