import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import specden
from specden import SeededStream
from specden.randgen import (
    gaussian_matrix,
    gaussian_vector,
    random_orthogonal,
    unit_sphere_vector,
)


def test_fixed_seed_reproduces_bit_for_bit():
    a = gaussian_matrix(20, 30, SeededStream(42, stream_id=3))
    b = gaussian_matrix(20, 30, SeededStream(42, stream_id=3))
    np.testing.assert_array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = gaussian_matrix(10, 10, SeededStream(42, stream_id=0))
    b = gaussian_matrix(10, 10, SeededStream(42, stream_id=1))
    assert not np.array_equal(a, b)


def test_gaussian_law_of_large_numbers():
    x = gaussian_matrix(1000, 100, SeededStream(1))
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.05


def test_gaussian_validation():
    with pytest.raises(ValueError):
        gaussian_matrix(0, 5, SeededStream(0))
    with pytest.raises(ValueError):
        gaussian_vector(0, SeededStream(0))


def test_unit_sphere_norm_and_scalar_case():
    for n in (1, 2, 17):
        v = unit_sphere_vector(n, SeededStream(n))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    one = unit_sphere_vector(1, SeededStream(5))
    assert one[0] in (1.0, -1.0)


def test_unit_sphere_projection_moment():
    # E[(u^T v)^2] = 1/n for v uniform on the sphere.
    n = 5
    u = np.zeros(n)
    u[0] = 1.0
    draws = [
        unit_sphere_vector(n, SeededStream(99, stream_id=i))[0] ** 2
        for i in range(10_000)
    ]
    assert abs(np.mean(draws) - 1.0 / n) <= 0.2 / n


def test_random_orthogonal_properties():
    q1 = random_orthogonal(1, SeededStream(3))
    assert abs(abs(q1[0, 0]) - 1.0) <= 1e-12
    Q = random_orthogonal(20, SeededStream(8))
    np.testing.assert_allclose(Q.T @ Q, np.eye(20), atol=1e-10)
    assert abs(abs(np.linalg.det(Q)) - 1.0) <= 1e-8


def test_substreams_are_deterministic_and_distinct():
    s = SeededStream(7)
    assert s.substream(4) == s.substream(4)
    ids = {s.substream(k).stream_id for k in range(100)}
    assert len(ids) == 100
    assert s.substream(0) != s


def _sign_fixed_qr(n, stream):
    Q, R = np.linalg.qr(gaussian_matrix(n, n, stream))
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


@pytest.mark.parametrize("n", [1, 2, 20, 64])
def test_random_orthogonal_is_the_sign_fixed_qr_bit_for_bit(n):
    stream = SeededStream(11, stream_id=n)
    np.testing.assert_array_equal(random_orthogonal(n, stream), _sign_fixed_qr(n, stream))


QR_SCRIPT = """
import numpy as np
from specden import SeededStream
from specden.randgen import random_orthogonal
from test_randgen import _sign_fixed_qr
stream = SeededStream(5)
print(np.array_equal(random_orthogonal(500, stream), _sign_fixed_qr(500, stream)))
"""


def test_random_orthogonal_is_the_sign_fixed_qr_on_one_blas_thread():
    # Larger n splits LAPACK's work across threads, and numpy's and scipy's
    # OpenBLAS builds split it differently; on one thread the bits agree.
    path = [str(Path(__file__).parent), str(Path(specden.__file__).parents[1])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", QR_SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "True"


def test_random_orthogonal_factors_one_copy_in_place():
    # The draw and its column-major copy read 2.00 x 8n^2; np.linalg.qr's
    # copy, buffers, Q and R read 4.13 x 8n^2.
    n = 400
    tracemalloc.start()
    try:
        random_orthogonal(n, SeededStream(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n * n
