"""The benchmark's workloads and the inputs it generates for them.

Every input comes from the run's ``--seed``: the matrix seed passed to
``specden.bench.build_matrix``, the stochastic-block-model graph, and the
``SdeConfig`` seed of every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

# A seed kept out of development runs; later performance claims are checked
# on it as well as on the seeds used while writing the change.
HELD_OUT_SEED = 20_261_017


@dataclass(frozen=True)
class Workload:
    name: str
    matrix: str  # 'name:n' spec, or "sbm" for the generated graph
    grid_d: int
    cells: tuple  # (algorithm, budget, matrix instance) in call order
    deadline_s: float  # per-call wall limit
    why: str

    @property
    def instances(self):
        return 1 + max(k for _, _, k in self.cells)


def _grid(algos, budgets, instances=1):
    return tuple((a, b, k) for k in range(instances) for a in algos for b in budgets)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-slq",
            matrix="uniform:2000",
            grid_d=2000,
            cells=_grid(("kpm", "def_kpm", "vr_slq", "slq"), (200, 400)),
            deadline_s=60.0,
            why=(
                "every product reads a 32 MB dense matrix; products and Lanczos "
                "reorthogonalization carry the run and no LP is solved"
            ),
        ),
        Workload(
            name="sparse-graph",
            matrix="sbm",
            grid_d=2000,
            cells=_grid(
                ("kpm", "def_kpm", "cmm", "def_cmm", "vr_slq", "slq"), (200, 400)
            ),
            deadline_s=40.0,
            why=(
                "normalized SBM graph (n=3000) loaded from Matrix Market; products "
                "are cheap so reorthogonalization dominates; all six estimators"
            ),
        ),
        Workload(
            name="lp-grid",
            matrix="low_rank:500",
            grid_d=20000,
            # Six seeded instances average out how W1 and the LP's time
            # depend on the input; the call that stalls runs on one only.
            cells=_grid(("kpm", "def_kpm", "def_cmm"), (200, 400, 800), instances=6)
            + _grid(("cmm",), (200,), instances=6)
            + (("cmm", 800, 0),),
            deadline_s=10.0,
            why=(
                "diagonal matrix, paper grid d=20000: the moment-matching LP and "
                "20001-atom grids dominate; cmm@800 stalls in the LP at the deadline"
            ),
        ),
    )
}

# Stochastic block model: 4 equal blocks, ~13k edges at n = 3000.
SBM_N = 3000
SBM_BLOCKS = 4
SBM_P_IN = 0.01
SBM_P_OUT = 0.0005


def call_seed(seed, index):
    """SdeConfig seed of the index-th call of a pass; every pass reuses it."""
    return seed * 1000 + index


def matrix_seed(seed, instance):
    """build_matrix seed of a workload's matrix instance."""
    return seed if instance == 0 else seed * 1000 + 1000 - instance


def sbm_edges(seed):
    """Lower-triangle (row, col) pairs, 0-based, of a seeded SBM graph."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    size = SBM_N // SBM_BLOCKS
    rows, cols = [], []
    for a in range(SBM_BLOCKS):
        for b in range(a, SBM_BLOCKS):
            mask = rng.random((size, size)) < (SBM_P_IN if a == b else SBM_P_OUT)
            if a == b:
                mask = np.tril(mask, k=-1)
            i, j = np.nonzero(mask)
            # Block b >= a, so global rows from block b lie below block a's.
            rows.append(b * size + j if a != b else a * size + i)
            cols.append(a * size + i if a != b else a * size + j)
    return np.concatenate(rows), np.concatenate(cols)


def write_sbm(path, seed):
    """Write the seeded SBM graph as a symmetric pattern Matrix Market file."""
    rows, cols = sbm_edges(seed)
    body = "".join(f"{i + 1} {j + 1}\n" for i, j in zip(rows.tolist(), cols.tolist()))
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"{SBM_N} {SBM_N} {rows.size}\n")
        fh.write(body)


def describe(workload, seed):
    """JSON-ready description of every call, for the input hash and records."""
    return {
        "workload": workload.name,
        "matrix": workload.matrix,
        "matrix_seeds": [matrix_seed(seed, k) for k in range(workload.instances)],
        "grid_d": workload.grid_d,
        "deadline_s": workload.deadline_s,
        "calls": [
            {"algorithm": a, "budget": b, "instance": k, "config_seed": call_seed(seed, i)}
            for i, (a, b, k) in enumerate(workload.cells)
        ],
    }


def input_hash(workload, seed, matrix_bytes):
    """sha256 over the call list and the bytes of the built matrix."""
    h = hashlib.sha256(json.dumps(describe(workload, seed), sort_keys=True).encode())
    for chunk in matrix_bytes:
        h.update(chunk)
    return h.hexdigest()
