"""The one child process that holds a workload's inputs and runs its calls.

    python3 perfbench/worker.py READ_FD WRITE_FD WORKLOAD SEED SPEC REPEATS STACK_PATH

run.py starts it and sends ("call", index, traced) messages over a pipe; it
kills this process when a call passes its deadline.  SIGUSR1 first makes
faulthandler dump the Python stack, so the parent can name the layer that
stalled.  The process exits when asked to stop or when its pipe closes.
"""

from __future__ import annotations

import ctypes
import faulthandler
import platform
import resource
import signal
import sys
from multiprocessing.connection import Connection
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from specden import bench, metrics, sde  # noqa: E402


class Channel:
    """Two one-way pipes used as one duplex message channel."""

    def __init__(self, read_fd, write_fd):
        self._in = Connection(read_fd, writable=False)
        self._out = Connection(write_fd, readable=False)

    def send(self, message):
        self._out.send(message)

    def recv(self):
        return self._in.recv()

    def poll(self, timeout):
        return self._in.poll(timeout)

    def close(self):
        self._in.close()
        self._out.close()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _matrix_bytes(A):
    for attr in ("matrix", "diagonal"):
        value = getattr(A, attr, None)
        if isinstance(value, np.ndarray):
            return [value.tobytes()]
    m = A.matrix  # scipy CSR
    return [m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()]


def setup(workload, seed, spec):
    """Build every matrix instance and its exact-density oracle once.

    Returns the (matrix, oracle) pairs, the input hash and the timings.
    """
    build_s = exact_s = 0.0
    inputs, chunks = [], []
    for k in range(workload.instances):
        t0 = perf_counter()
        A = bench.build_matrix(spec, workloads.matrix_seed(seed, k))
        t1 = perf_counter()
        exact = metrics.exact_density(A)
        build_s += t1 - t0
        exact_s += perf_counter() - t1
        inputs.append((A, exact))
        chunks += _matrix_bytes(A)
    digest = workloads.input_hash(workload, seed, chunks)
    return inputs, digest, {"build_s": build_s, "exact_density_s": exact_s}


def null_w1(exact):
    """W1 of the point mass at 0: the score of a failed call."""
    return metrics.wasserstein1(metrics.DiscreteDistribution.point_mass(0.0), exact)


def execute(inputs, workload, seed, index):
    """One closed-loop call: run(), its budget and normalization checks, W1."""
    algorithm, budget, instance = workload.cells[index]
    A, exact = inputs[instance]
    config = sde.SdeConfig(
        algorithm=algorithm,
        budget=budget,
        grid_d=workload.grid_d,
        seed=workloads.call_seed(seed, index),
    )
    failure = counts = None
    start = perf_counter()
    try:
        estimate = sde.run(A, config)
    except Exception as exc:  # every failure of a call is recorded, not raised
        failure = f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"
    run_s = perf_counter() - start
    if failure is None:
        counts = estimate.ledger.counts
        spent = sum(counts.values())
        allowed = budget * config.resolved_trials()
        weight = float(estimate.density.weights.sum())
        if spent > allowed:
            failure = f"over_budget: ledger total {spent} > {allowed}"
        elif not estimate.density.normalized or abs(weight - 1.0) > 1e-9:
            failure = f"not_normalized: weights sum to {weight!r}"
    w1 = null_w1(exact) if failure else metrics.wasserstein1(estimate.density, exact)
    return {
        "index": index,
        "algorithm": algorithm,
        "budget": budget,
        "instance": instance,
        "run_s": run_s,
        "w1": w1,
        "counts": counts,
        "failure": failure,
    }


def serve(conn, workload_name, seed, spec, repeats, stack_path):
    """Set up ``repeats`` times (more while under a second in all), then serve."""
    workload = workloads.WORKLOADS[workload_name]
    samples, digests = [], set()
    spent = 0.0
    while len(samples) < repeats or (spent < 1.0 and len(samples) < 100 * repeats):
        inputs, digest, timing = setup(workload, seed, spec)
        samples.append(timing)
        digests.add(digest)
        spent += timing["build_s"] + timing["exact_density_s"]
    conn.send(
        {
            "setup": samples,
            "input_hashes": sorted(digests),
            "null_w1": [null_w1(exact) for _, exact in inputs],
            "environment": environment(),
        }
    )
    tracer = tracing.Tracer()
    with open(stack_path, "w") as stack_file:
        faulthandler.register(signal.SIGUSR1, file=stack_file, all_threads=True)
        while True:
            message = conn.recv()
            if message[0] == "stop":
                conn.send({"peak_rss_mb": peak_rss_mb()})
                return
            _, index, traced = message
            if traced:
                tracer.install()
            try:
                record = execute(inputs, workload, seed, index)
            finally:
                tracer.uninstall()
            record["spans"] = tracer.reset()
            record["peak_rss_mb"] = peak_rss_mb()
            conn.send(record)



def main(argv):
    read_fd, write_fd, name, seed, spec, repeats, stack_path = argv
    conn = Channel(int(read_fd), int(write_fd))
    try:
        serve(conn, name, int(seed), spec, int(repeats), stack_path)
    except (EOFError, BrokenPipeError):
        pass  # the parent has gone; there is no one to answer
    finally:
        conn.close()


if __name__ == "__main__":
    main(sys.argv[1:])
