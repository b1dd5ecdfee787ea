import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specden
from specden import DenseOperator, DiagonalOperator, DiscreteDistribution, SparseOperator
from specden.bench import build_matrix
from specden.metrics import (
    DistributionError,
    average_densities,
    exact_density,
    wasserstein1,
)
from specden.sde import ALGORITHMS, SdeConfig, run

from conftest import (
    merge_atoms_loop,
    normalized_random_graph,
    random_distribution,
    sorted_eigenvalue_error,
    transport_lp_w1,
)


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


def np_unique_w1(p, q):
    """W1 on the support np.unique forms from both atom lists, each CDF read
    by searchsorted (reference)."""
    support = np.unique(np.concatenate([p.locations, q.locations]))
    cdf = [
        np.concatenate([[0.0], np.cumsum(d.weights)])[
            np.searchsorted(d.locations, support, side="right")
        ]
        for d in (p, q)
    ]
    return float(np.abs(cdf[0][:-1] - cdf[1][:-1]) @ np.diff(support))


def test_w1_merge_equals_the_np_unique_support_formula_to_the_bit(rng):
    # Shared atoms, a grid against a few atoms on it and off it, and a zero
    # of either sign: the stable-sort merge reads the same CDFs and gaps.
    grid = np.linspace(-1.0, 1.0, 20001)
    cases = [
        (grid, np.concatenate([grid[::97], rng.uniform(-1.5, 1.5, 40)])),
        (np.array([-0.0, 0.5]), np.array([0.0, 0.25, 0.5])),
        (np.array([3.0]), np.array([3.0])),
    ]
    for _ in range(20):
        shared = rng.normal(size=5)
        cases.append(
            (np.concatenate([shared, rng.normal(size=7)]),
             np.concatenate([shared, rng.normal(size=4)]))
        )
    for a, b in cases:
        p, q = (
            DiscreteDistribution(x, w / w.sum())
            for x, w in ((a, rng.uniform(size=a.size)), (b, rng.uniform(size=b.size)))
        )
        for u, v in ((p, q), (q, p)):
            assert wasserstein1(u, v).hex() == np_unique_w1(u, v).hex()


def test_w1_matches_transport_lp(rng):
    for _ in range(30):
        p = random_distribution(rng)
        q = random_distribution(rng)
        assert abs(wasserstein1(p, q) - transport_lp_w1(p, q)) <= 1e-10


def test_w1_rejects_unnormalized():
    # Construction rejects such weights, so set them afterwards.
    p = DiscreteDistribution.point_mass(0.0)
    p.weights = np.array([0.5])
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
    with pytest.raises(DistributionError, match="finite"):
        DiscreteDistribution(np.array([0.0, 1.0]), np.array([np.nan, 1.0]))
    merged = DiscreteDistribution(np.array([0.3, 0.3, 1.0]), np.array([0.25, 0.25, 0.5]))
    assert len(merged) == 2
    np.testing.assert_allclose(merged.weights, [0.5, 0.5])


def test_distribution_keeps_no_input_array():
    # Callers hand over their arrays uncopied: writing into them afterwards
    # leaves the distribution as it was, whether its atoms came sorted,
    # unsorted or merged.
    for loc, w in (
        ([0.0, 0.25, 0.5], [0.25, 0.25, 0.5]),
        ([0.5, -1.0, 0.25], [0.25, 0.25, 0.5]),
        ([0.3, 0.3, 1.0], [0.25, 0.25, 0.5]),
        ([2.0], [1.0]),
    ):
        loc, w = np.array(loc), np.array(w)
        d = DiscreteDistribution(loc, w)
        locations, weights = d.locations.copy(), d.weights.copy()
        loc[:], w[:] = 7.0, 0.0
        np.testing.assert_array_equal(d.locations, locations)
        np.testing.assert_array_equal(d.weights, weights)


def assert_merge_matches_loop(loc, w):
    loc, w = np.asarray(loc, dtype=float), np.asarray(w, dtype=float)
    got = DiscreteDistribution(loc, w)
    want_loc, want_w = merge_atoms_loop(loc, w)
    assert got.locations.tobytes() == want_loc.tobytes()
    assert got.weights.tobytes() == want_w.tobytes()


def test_merge_joins_only_equal_locations():
    # Atoms 0.6e-12 apart stay separate, however close they are.
    d = DiscreteDistribution(np.array([1.2e-12, 0.0, 0.6e-12]), np.array([0.5, 0.2, 0.3]))
    np.testing.assert_array_equal(d.locations, [0.0, 0.6e-12, 1.2e-12])
    np.testing.assert_array_equal(d.weights, [0.2, 0.3, 0.5])
    # Equal atoms merge into one, their weights summed in input order.
    rng = np.random.default_rng(5)
    w = rng.uniform(size=50)
    w /= w.sum()
    want = 0.0
    for wx in w:
        want += wx
    d = DiscreteDistribution(np.full(50, 0.25), w)
    np.testing.assert_array_equal(d.locations, [0.25])
    assert d.weights.tobytes() == np.array([want]).tobytes()
    # So do many groups, whether a few or many of them are long.
    for groups in (3, 40):
        loc = np.repeat(np.arange(float(groups)), rng.integers(1, 60, size=groups))
        w = rng.uniform(size=loc.size)
        assert_merge_matches_loop(rng.permutation(loc), w / w.sum())
    # A paper-grid density, sorted with no repeat, and the same grid with
    # deflated atoms in front, some on grid points.
    grid = np.linspace(-1.0, 1.0, 20001)
    w = rng.uniform(size=grid.size)
    assert_merge_matches_loop(grid, w / w.sum())
    loc = np.concatenate([grid[[0, 5000, 12345]], rng.uniform(-1.0, 1.0, 30), grid])
    w = rng.uniform(size=loc.size)
    assert_merge_matches_loop(loc, w / w.sum())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from([-1.0, -1e-3, 0.0, 0.5]), st.floats(-2.0, 2.0)),
            st.integers(0, 12),
            st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_merge_atoms_matches_sequential_loop(atoms):
    # Offsets in steps of 0.3e-12 build clusters of equal atoms and chains of
    # close but distinct ones around a few shared base locations.
    loc = [base + k * 0.3e-12 for base, k, _ in atoms]
    w = np.array([wx for _, _, wx in atoms])
    assume(w.sum() > 0.0)
    assert_merge_matches_loop(loc, w / w.sum())


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_w1_relative_to_the_scale_does_not_depend_on_it(algorithm):
    # Every estimator divides by its own norm bound, so W1 scales with A.
    # cmm and def_cmm may return another of the many exact moment matches
    # when round-off moves their moments, so they are held to this on the
    # even spectrum only; on inverse:500, cmm moved 1.5e-9 relative.
    spectra = [np.linspace(-1.0, 1.0, 500)]
    if algorithm not in ("cmm", "def_cmm"):
        spectra.append(build_matrix("inverse:500").diagonal)
    for spectrum in spectra:

        def scaled_w1(c):
            A = DiagonalOperator(c * spectrum)
            estimate = run(A, SdeConfig(algorithm, budget=300, seed=0))
            return wasserstein1(estimate.density, exact_density(A)) / c

        assert scaled_w1(1e-13) == pytest.approx(scaled_w1(1.0), rel=1e-9, abs=0.0)


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


def test_exact_density_of_a_diagonal_needs_no_cap():
    # A diagonal's spectrum is its sorted diagonal: no dense copy, no cap.
    diagonal = np.random.default_rng(3).uniform(-1.0, 1.0, 7000)
    d = exact_density(DiagonalOperator(diagonal))
    np.testing.assert_array_equal(d.locations, np.sort(diagonal))
    np.testing.assert_array_equal(d.weights, np.full(7000, 1 / 7000))


def _nearly_symmetric_sparse():
    # Symmetric only to 1e-12: the upper triangle is scaled, so the eigenvalues
    # depend on which triangle is read.
    B = sp.random(400, 400, density=0.1, random_state=5)
    B = B + B.T
    return SparseOperator(B + 1e-12 * sp.triu(B, k=1))


EIGVALSH_CASES = {
    "uniform:500": lambda: build_matrix("uniform:500", 0),
    "gaussian:500": lambda: build_matrix("gaussian:500", 0),
    "graph": lambda: normalized_random_graph(3000),
    "nearly-symmetric-sparse": _nearly_symmetric_sparse,
}


def _stored_bytes(A):
    m = A.matrix
    parts = (m,) if isinstance(m, np.ndarray) else (m.data, m.indices, m.indptr)
    return [p.tobytes() for p in parts]


@pytest.mark.parametrize("case", list(EIGVALSH_CASES))
def test_exact_density_is_numpys_eigvalsh_bit_for_bit(case):
    # The in-place factorization runs the routine np.linalg.eigvalsh runs,
    # dsyevd, on the same lower triangle, so the eigenvalues agree to the bit
    # (numpy and scipy each link their own LAPACK; the scipy-openblas builds
    # agree), and the operator's own matrix is left as it was.
    A = EIGVALSH_CASES[case]()
    before = _stored_bytes(A)
    eigs = np.linalg.eigvalsh(A.to_dense())
    d = exact_density(A)
    assert np.array_equal(d.locations, np.unique(eigs))
    assert _stored_bytes(A) == before


# Builds a 2000-vertex graph, warms LAPACK up on an 8 x 8 matrix, then prints
# the rise of the peak resident set over one exact_density call, in bytes.
# The peak is the process's own VmHWM: ru_maxrss starts at the peak of the
# process that spawned it, which here is the test run's.
PEAK_SCRIPT = """
import scipy.sparse as sp
from conftest import normalized_random_graph
from specden import SparseOperator
from specden.metrics import exact_density

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

A = normalized_random_graph(2000)
exact_density(SparseOperator(sp.eye(8)))
before = peak_kb()
exact_density(A)
print(1024 * (peak_kb() - before))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_exact_density_holds_one_dense_copy():
    # A second n x n copy would raise the peak by 8n^2 bytes; one copy
    # factored in place read a rise of 0.12 x 8n^2, two copies 1.12 x 8n^2.
    n = 2000
    path = [str(Path(__file__).parent), str(Path(specden.__file__).parents[1])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", PEAK_SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    assert int(out.stdout) <= 0.5 * 8 * n * n


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
