import os
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from specden import SeededStream
from specden.datasets import (
    MatrixMarketError,
    gaussian_spectrum,
    inverse_spectrum,
    load_matrix_market,
    low_rank,
    power_law_spectrum,
    uniform_matrix,
)
from specden.operators import OperatorError
from specden.randgen import gaussian_vector


def test_gaussian_matrix_normalization_and_spectrum():
    stream = SeededStream(11)
    A = gaussian_spectrum(50, stream)
    eigs = np.linalg.eigvalsh(A.to_dense())
    assert np.max(np.abs(eigs)) == pytest.approx(1.0, abs=1e-10)
    drawn = gaussian_vector(50, stream.substream(0))
    drawn /= np.abs(drawn).max()
    np.testing.assert_allclose(np.sort(eigs), np.sort(drawn), atol=1e-9)
    B = gaussian_spectrum(50, SeededStream(11))
    np.testing.assert_array_equal(A.to_dense(), B.to_dense())


def test_uniform_matrix_spectrum():
    A = uniform_matrix(300, SeededStream(5))
    eigs = np.linalg.eigvalsh(A.to_dense())
    assert np.max(np.abs(eigs)) <= 1.0 + 1e-10
    # KS distance of the spectrum draw against Uniform[-1, 1] at n = 5000
    # (the drawn entries are the exact eigenvalues of the assembled matrix).
    drawn = SeededStream(6).substream(0).generator().uniform(-1, 1, 5000)
    stat = scipy.stats.kstest(drawn, scipy.stats.uniform(loc=-1, scale=2).cdf).statistic
    assert stat <= 0.05
    stat_small = scipy.stats.kstest(
        eigs, scipy.stats.uniform(loc=-1, scale=2).cdf
    ).statistic
    assert stat_small <= 0.1



@pytest.mark.parametrize("generator", [gaussian_spectrum, uniform_matrix])
def test_dense_generators_hold_three_n_by_n_arrays(generator):
    # V, V diag(eigs) and the product read 3.06 x 8n^2; drawing V with
    # np.linalg.qr, which holds about four n x n arrays, reads 4.13 x 8n^2.
    n = 400
    tracemalloc.start()
    try:
        generator(n, SeededStream(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 8 * n * n

def test_inverse_spectrum():
    A = inverse_spectrum(200)
    d = A.diagonal
    assert d[0] == 1.0 and d[-1] == pytest.approx(1 / 200)
    assert d.sum() == pytest.approx(np.sum(1.0 / np.arange(1, 201)))
    sigma = np.sort(np.abs(d))[::-1]
    assert sigma[10] == pytest.approx(1 / 11)


def test_power_law_spectrum():
    A = power_law_spectrum(2000)
    d = A.diagonal
    assert d[0] == 1.0
    assert d[1] == 0.25
    assert d[2] == 0.125
    assert np.all(d[1200:] == 0.0)  # exponents beyond double-precision underflow
    assert d[500] > 0.0 or d[500] == 2.0**-501


def test_low_rank():
    A = low_rank(500, stream=SeededStream(3))
    d = A.diagonal
    assert np.count_nonzero(d) == 100
    assert np.max(np.abs(d)) == pytest.approx(1.0)
    assert np.sort(np.abs(d))[::-1][100] == 0.0
    with pytest.raises(ValueError):
        low_rank(50, r=60)


def path_graph_file(tmp_path, name="p3.mtx"):
    text = (
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% three-vertex path\n"
        "3 3 2\n"
        "2 1\n"
        "3 2\n"
    )
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_path_graph_normalized_spectrum(tmp_path):
    A = load_matrix_market(path_graph_file(tmp_path))
    eigs = np.sort(np.linalg.eigvalsh(A.to_dense()))
    np.testing.assert_allclose(eigs, [-1.0, 0.0, 1.0], atol=1e-10)


def test_load_raw_adjacency(tmp_path):
    A = load_matrix_market(path_graph_file(tmp_path), normalize_adjacency=False)
    dense = A.to_dense()
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    np.testing.assert_array_equal(dense, expected)


def test_loader_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "bad.mtx"
    bad_header.write_text("%%MatrixMarket matrix array real general\n2 2\n")
    with pytest.raises(MatrixMarketError) as err:
        load_matrix_market(str(bad_header))
    assert err.value.line_number == 1

    bad_index = tmp_path / "idx.mtx"
    bad_index.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1.0\n"
    )
    with pytest.raises(MatrixMarketError) as err:
        load_matrix_market(str(bad_index))
    assert err.value.line_number == 3

    bad_entry = tmp_path / "entry.mtx"
    bad_entry.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 x 1.0\n"
    )
    with pytest.raises(MatrixMarketError):
        load_matrix_market(str(bad_entry))

    short = tmp_path / "short.mtx"
    short.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n"
    )
    with pytest.raises(MatrixMarketError):
        load_matrix_market(str(short))


def test_blank_lines_before_the_size_line_are_skipped(tmp_path):
    # As mmio.c's mm_read_mtx_crd_size reads past them.
    blank = tmp_path / "blank.mtx"
    blank.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% three-vertex path\n\n   \n% more comment\n\n3 3 2\n2 1\n3 2\n"
    )
    np.testing.assert_array_equal(
        load_matrix_market(str(blank), normalize_adjacency=False).to_dense(),
        load_matrix_market(path_graph_file(tmp_path), normalize_adjacency=False).to_dense(),
    )
    # The size line is quoted stripped, and a comment after it is a bad entry.
    for body, message in [
        ("\n3 x 2\n2 1\n3 2\n", "line 3: malformed size line '3 x 2'"),
        ("3 3 2\n2 1\n% late comment\n3 2\n", "line 4: malformed entry '% late comment'"),
    ]:
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n" + body)
        with pytest.raises(MatrixMarketError) as err:
            load_matrix_market(str(bad))
        assert str(err.value) == message


def test_isolated_vertex_keeps_zero_row(tmp_path):
    f = tmp_path / "iso.mtx"
    f.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n2 1 1.0\n"
    )
    A = load_matrix_market(str(f))
    dense = A.to_dense()
    np.testing.assert_array_equal(dense[2], np.zeros(3))
    np.testing.assert_allclose(np.abs(dense[0, 1]), 1.0)


def mtx_file(tmp_path, name, qualifier, entries):
    """Write a 3x3 real coordinate file; qualifier may be empty."""
    header = f"%%MatrixMarket matrix coordinate real {qualifier}".rstrip()
    body = "".join(f"{i} {j} {v}\n" for i, j, v in entries)
    path = tmp_path / name
    path.write_text(f"{header}\n3 3 {len(entries)}\n{body}")
    return str(path)


LOWER = [(1, 1, 2.0), (2, 1, -1.0), (3, 2, 0.5), (3, 3, 1.5)]
BOTH = [(1, 1, 2.0), (1, 2, -1.0), (2, 1, -1.0), (2, 3, 0.5), (3, 2, 0.5), (3, 3, 1.5)]


def test_general_file_loads_like_symmetric_file(tmp_path):
    symmetric = mtx_file(tmp_path, "sym.mtx", "symmetric", LOWER)
    general = mtx_file(tmp_path, "gen.mtx", "general", BOTH)
    bare = mtx_file(tmp_path, "bare.mtx", "", BOTH)
    for normalize in (False, True):
        expected = load_matrix_market(symmetric, normalize).matrix
        for path in (general, bare):
            got = load_matrix_market(path, normalize).matrix
            np.testing.assert_array_equal(got.indptr, expected.indptr)
            np.testing.assert_array_equal(got.indices, expected.indices)
            np.testing.assert_array_equal(got.data, expected.data)
    dense = load_matrix_market(symmetric, normalize_adjacency=False).to_dense()
    np.testing.assert_array_equal(
        dense, [[2.0, -1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, 0.5, 1.5]]
    )


def test_loader_honors_symmetry_qualifier(tmp_path):
    asymmetric = mtx_file(tmp_path, "asym.mtx", "general", LOWER)
    for normalize in (False, True):
        with pytest.raises(OperatorError):
            load_matrix_market(asymmetric, normalize)

    upper = mtx_file(tmp_path, "upper.mtx", "symmetric", BOTH)
    with pytest.raises(MatrixMarketError) as err:
        load_matrix_market(upper)
    assert err.value.line_number == 4

    skew = mtx_file(tmp_path, "skew.mtx", "skew-symmetric", LOWER)
    with pytest.raises(MatrixMarketError) as err:
        load_matrix_market(skew)
    assert err.value.line_number == 1


def test_non_finite_value_is_an_error_naming_its_line(tmp_path):
    # Normalization would hide the value: a NaN degree zeroes its row, and
    # the file would load as the zero matrix.
    for value in ("nan", "inf", "-inf"):
        entries = [(1, 1, 1.0), (2, 1, value), (3, 2, 2.0)]
        path = mtx_file(tmp_path, f"{value}.mtx", "symmetric", entries)
        for normalize in (True, False):
            with pytest.raises(MatrixMarketError) as err:
                load_matrix_market(path, normalize)
            assert err.value.line_number == 4
            assert str(err.value) == f"line 4: non-finite value '{value}'"


ERDOS_PATH = os.environ.get("SPECDEN_ERDOS992", "data/Erdos992.mtx")


@pytest.mark.skipif(
    not os.path.exists(ERDOS_PATH),
    reason="Erdos992.mtx not available (set SPECDEN_ERDOS992)",
)
def test_erdos992():
    A = load_matrix_market(ERDOS_PATH)
    assert A.dimension == 6100
    raw = load_matrix_market(ERDOS_PATH, normalize_adjacency=False)
    assert raw.matrix.nnz == 2 * 15030
    eigs = np.linalg.eigvalsh(A.to_dense())
    assert np.max(eigs) == pytest.approx(1.0, abs=1e-8)
    assert np.sum(np.abs(eigs) < 1e-8) >= 900
