"""Checks of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _invoke(workload, seed):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    calls = [
        (r["algorithm"], r["budget"], r["instance"], r["w1"], r["counts"],
         r["failure"] and r["failure"].split(":")[0])
        for p in record["passes"] for r in p["records"]
    ]
    return record["input_sha256"], calls


def test_same_seed_gives_bit_identical_w1_and_ledger_counts():
    first = _invoke("lp-grid", 5)
    second = _invoke("lp-grid", 5)
    assert first == second
    hashes, calls = first
    passes = len(calls) // len(workloads.WORKLOADS["lp-grid"].cells)
    assert len(hashes) == 1 and passes >= 1
    assert [c[5] for c in calls].count("deadline") == passes  # cmm@800 stalls


def test_tail_is_the_highest_percentile_with_ten_calls_beyond():
    assert run.tail(range(16)) == (5, 37.5, 10)
    assert run.tail(range(100, 0, -1)) == (90, 90.0, 10)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, None, "sde.run", 0.0, 10.0, True, None),
        (1, 0, "lanczos.lanczos", 1.0, 9.0, True, None),
        (2, 1, "operators.apply", 2.0, 5.0, True, None),
        (3, 1, "operators.apply", 5.0, 6.0, True, None),
    ]
    assert tracing.self_times(spans) == {0: 2.0, 1: 4.0, 2: 3.0, 3: 1.0}
