"""specden benchmark: wall time, failures and W1 of closed-loop run() calls.

    python3 perfbench/run.py --workload dense-slq --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  One worker process, the only child
process, builds the workload's matrix and exact-density oracle, then runs
the workload's calls one at a time; this process only sends the next call,
enforces the per-call deadline and computes the metrics.  ``--trace 0`` repeats untraced passes over the
call list and prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced pass and prints the per-layer metrics.  The last line
of standard output is one JSON object; the per-call records (and, traced,
the spans) are written under perfbench/out/.  Exits 1 when a correctness
check fails and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3  # least set-ups per worker; setup_s is their median
MIN_CALLS = 11  # run_s_tail needs ten calls beyond its percentile
TAIL_BEYOND = 10
RUN_LIMIT_S = 150.0  # no pass starts that would end later than this
SETUP_LIMIT_S = 120.0
STAGES = (
    "lanczos",
    "moments",
    "krylov_subspace",
    "rayleigh_ritz",
    "norm_estimate",
    "residual_test",
)
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "completed_ratio": "1",
    "peak_rss_mb": "MB",
    "w1_mean": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not run the program."""


class Runner:
    """Owns the single worker process and enforces the per-call deadline."""

    def __init__(self, workload, seed, spec):
        self.workload, self.seed, self.spec = workload, seed, spec
        self.proc = self.conn = None
        self.stack_path = OUT / f"stack-{workload.name}-seed{seed}.txt"
        self.setups, self.hashes = [], set()
        self.ready = None
        self.peak_rss_mb = 0.0

    def ensure_started(self):
        """Start the worker, the only child process, and wait for its set-up."""
        if self.proc is not None:
            return
        import worker

        from_parent, to_worker = os.pipe()
        from_worker, to_parent = os.pipe()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(from_parent),
                 str(to_parent), self.workload.name, str(self.seed), self.spec,
                 str(SETUP_REPEATS), str(self.stack_path)],
                cwd=ROOT, stdin=subprocess.DEVNULL, pass_fds=(from_parent, to_parent),
            )
        except OSError:
            os.close(to_worker)
            os.close(from_worker)
            raise
        finally:
            os.close(from_parent)
            os.close(to_parent)
        self.conn = worker.Channel(from_worker, to_worker)
        try:
            if not self.conn.poll(SETUP_LIMIT_S):
                self.proc.kill()
                self._reap()
                raise BenchError(f"worker set-up took more than {SETUP_LIMIT_S:g} s")
            self.ready = self.conn.recv()
        except EOFError:
            raise BenchError(f"worker exited during set-up (code {self._reap()})")
        self.setups += self.ready["setup"]
        self.hashes.update(self.ready["input_hashes"])

    def call(self, index, traced):
        """Run call ``index``; returns its record, with call_s measured here."""
        self.ensure_started()
        deadline = self.workload.deadline_s
        start = perf_counter()
        self.conn.send(("call", index, traced))
        try:
            if self.conn.poll(deadline):
                record = self.conn.recv()
                record["call_s"] = perf_counter() - start
                self.peak_rss_mb = max(self.peak_rss_mb, record.pop("peak_rss_mb"))
                return record
            elapsed = perf_counter() - start
            layers = self._stop_stalled()
            where = layers[-1] if layers else "unknown layer"
            failure = f"deadline: stopped after {deadline:g} s in {where}"
        except EOFError:
            elapsed = perf_counter() - start
            layers = []
            failure = f"worker_exited: code {self._reap()}"
        algorithm, budget, instance = self.workload.cells[index]
        return {
            "index": index,
            "algorithm": algorithm,
            "budget": budget,
            "instance": instance,
            "run_s": elapsed,
            "call_s": elapsed,
            "w1": self.ready["null_w1"][instance],
            "counts": None,
            "failure": failure,
            "spans": cut_spans(layers or ["sde.run"], start, start + elapsed)
            if traced else [],
        }

    def _stop_stalled(self):
        """Dump the stalled worker's stack, kill it, and name its open layers."""
        import tracing

        os.kill(self.proc.pid, signal.SIGUSR1)
        for _ in range(40):
            if self.stack_path.exists() and self.stack_path.stat().st_size:
                break
            time.sleep(0.05)
        time.sleep(0.05)
        self.peak_rss_mb = max(self.peak_rss_mb, _vm_hwm_mb(self.proc.pid))
        self.proc.kill()
        self._reap()
        text = self.stack_path.read_text() if self.stack_path.exists() else ""
        return tracing.layers_in_stack_dump(text)

    def _reap(self):
        self.conn.close()
        code = self.proc.wait()
        self.proc = self.conn = None
        return code

    def close(self):
        """Stop the worker on every way out: ask it, then kill it, and wait."""
        if self.proc is not None:
            try:
                self.conn.send(("stop",))
                if self.conn.poll(30):
                    self.peak_rss_mb = max(
                        self.peak_rss_mb, self.conn.recv()["peak_rss_mb"]
                    )
            except (EOFError, OSError):
                pass
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
            self._reap()
        self.stack_path.unlink(missing_ok=True)


def _vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def cut_spans(names, start, end):
    """Spans for a call stopped at the deadline: one nested chain, marked cut."""
    return [
        (i, i - 1 if i else None, name, start, end, False, "cut")
        for i, name in enumerate(names)
    ]


def run_pass(runner, traced):
    runner.ensure_started()
    records = [runner.call(i, traced) for i in range(len(runner.workload.cells))]
    return {
        "traced": traced,
        "wall_s": sum(r["call_s"] for r in records),
        "records": records,
    }


def fingerprint(record):
    """What must repeat bit for bit: W1, per-stage ledger counts, failure kind."""
    kind = record["failure"].split(":")[0] if record["failure"] else None
    return (record["w1"].hex(), sorted((record["counts"] or {}).items()), kind)


def check(passes, runner):
    """Correctness problems; an empty list means the run is correct."""
    problems = []
    if len(runner.hashes) != 1:
        problems.append(f"set-ups built different inputs: {sorted(runner.hashes)}")
    for r in passes[0]["records"]:
        if not (math.isfinite(r["w1"]) and r["w1"] >= 0.0):
            problems.append(f"call {r['index']}: W1 {r['w1']!r} is not a distance")
    reference = [fingerprint(r) for r in passes[0]["records"]]
    for k, p in enumerate(passes[1:], start=2):
        label = "traced" if p["traced"] else "untraced"
        for r, ref in zip(p["records"], reference):
            if fingerprint(r) != ref:
                problems.append(
                    f"pass {k} ({label}) call {r['index']} {r['algorithm']}@"
                    f"{r['budget']}: {fingerprint(r)} differs from pass 1 {ref}"
                )
    return problems


def tail(values):
    """(value, percentile, calls beyond): highest percentile with ten beyond."""
    xs = sorted(values)
    i = max(len(xs) - 1 - TAIL_BEYOND, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def call_times(passes):
    """Median and tail of per-call run() seconds over untraced passes, with a note."""
    run_times = [r["run_s"] for p in passes if not p["traced"] for r in p["records"]]
    value, pct, beyond = tail(run_times)
    note = f"p{pct:.1f} of {len(run_times)} calls, {beyond} beyond"
    return statistics.median(run_times), value, note


def end_to_end(passes, runner):
    records = [r for p in passes for r in p["records"]]
    completed = sum(1 for r in records if not r["failure"])
    metrics = {
        "setup_s": statistics.median(
            s["build_s"] + s["exact_density_s"] for s in runner.setups
        ),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "completed_ratio": completed / len(records),
        "peak_rss_mb": runner.peak_rss_mb,
        "w1_mean": statistics.fmean(r["w1"] for r in records),
    }
    return {k: (v, UNITS[k]) for k, v in metrics.items()}


def per_layer(pairs, runner, algorithms):
    import tracing

    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    spans = [r["spans"] for p in traced for r in p["records"]]
    layer = tracing.layer_metrics(spans, len(traced))
    first = untraced[0]["records"]
    for stage in STAGES:
        layer[f"matvecs.{stage}"] = sum((r["counts"] or {}).get(stage, 0) for r in first)
    for algo in algorithms:
        mine = [r for r in first if r["algorithm"] == algo]
        layer[f"run_s.{algo}"] = statistics.median(
            sum(r["run_s"] for r in p["records"] if r["algorithm"] == algo)
            for p in untraced
        )
        layer[f"w1.{algo}"] = statistics.fmean(r["w1"] for r in mine) if mine else 0.0
    records = [r for p in untraced for r in p["records"]]
    layer["failed_ratio"] = sum(1 for r in records if r["failure"]) / len(records)
    layer["run_s_p50"], layer["run_s_tail"], _ = call_times(untraced)
    layer["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    layer["datasets.build_s"] = statistics.median(s["build_s"] for s in runner.setups)
    layer["metrics.exact_density.s"] = statistics.median(
        s["exact_density_s"] for s in runner.setups
    )
    return {k: (v, layer_unit(k)) for k, v in layer.items()}


def layer_unit(name):
    if name.endswith(("_s", ".s")) or name.startswith("run_s"):
        return "s"
    if name.endswith("_ratio") or name.startswith("w1."):
        return "1"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("flop_per_byte_computed"):
        return "flop/B"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"


def measure(runner, seconds, trace):
    """Passes until ``seconds`` have gone by; traced, also MIN_CALLS untraced calls.

    The per-layer run_s_tail needs MIN_CALLS calls; the end-to-end metrics
    are per pass, so an untraced run needs only one.
    """
    runner.ensure_started()
    start = perf_counter()
    passes = []
    while True:
        elapsed = perf_counter() - start
        if passes:
            calls = sum(len(p["records"]) for p in passes if not p["traced"])
            last = sum(p["wall_s"] for p in passes[-(1 + trace):])
            if elapsed + last > RUN_LIMIT_S:
                break
            if elapsed >= seconds and (not trace or calls >= MIN_CALLS):
                break
        passes.append(run_pass(runner, traced=False))
        if trace:
            passes.append(run_pass(runner, traced=True))
    return passes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "specden" / "__init__.py").is_file():
        print(f"perfbench: no specden sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)

    import workloads
    from specden.sde import ALGORITHMS

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    spec = workload.matrix
    if spec == "sbm":
        path = OUT / f"sbm-seed{args.seed}.mtx"
        workloads.write_sbm(path, args.seed)
        spec = str(path)

    runner = Runner(workload, args.seed, spec)
    # A terminated run still stops its worker: SystemExit runs the finally.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        passes = measure(runner, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()

    problems = check(passes, runner)
    p50, p_tail, tail_note = call_times(passes)
    if args.trace:
        pairs = list(zip(passes[0::2], passes[1::2]))
        metrics = per_layer(pairs, runner, ALGORITHMS)
    else:
        metrics = end_to_end(passes, runner)
    records = [r for p in passes for r in p["records"]]
    failed = [r for r in records if r["failure"]]
    env = dict(runner.ready["environment"], nproc=nproc)

    print(f"workload {workload.name}: seed {args.seed} (held-out seed "
          f"{workloads.HELD_OUT_SEED}), {len(passes)} passes, {len(records)} calls")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"input sha256: {', '.join(sorted(runner.hashes))}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"per-call run() seconds: median {p50:.6g} s, tail {p_tail:.6g} s ({tail_note})")
    for r in failed:
        print(f"failed: {r['algorithm']}@{r['budget']} on instance {r['instance']} "
              f"(call {r['index']}): {r['failure']}")
    for problem in problems:
        print(f"INCORRECT: {problem}")

    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "inputs": workloads.describe(workload, args.seed),
        "input_sha256": sorted(runner.hashes),
        "environment": env,
        "setup": runner.setups,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "problems": problems,
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"],
             "records": [{k: v for k, v in r.items() if k != "spans"}
                         for r in p["records"]]}
            for p in passes
        ],
    }, indent=1))
    if args.trace:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([
            {"pass": k + 1, "call": r["index"], "algorithm": r["algorithm"],
             "budget": r["budget"],
             "fields": ["id", "parent", "name", "start", "end", "ok", "info"],
             "spans": r["spans"]}
            for k, p in enumerate(passes) if p["traced"] for r in p["records"]
        ]))

    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
