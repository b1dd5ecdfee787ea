"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workloads lp-grid --seeds 1-10 [--out FILE]

Spread is the distance between the first and third quartile of the per-seed
values as a share of their median; it is compared with a third of the
metric's bound in BENCHMARK.json.  ``--out`` writes the medians and quartiles
as JSON (perfbench/baseline.json holds the parent commit's).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, steady = {}, True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: exit {done.returncode}, correct "
                  f"{result['correct']}, failed {result['failed']}/{result['attempted']}",
                  flush=True)
            steady &= done.returncode == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        report[workload] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            report[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "seeds": args.seeds}
            print(f"{workload:13s} {name:16s} median {median:.6g} spread "
                  f"{spread:.3f} (bound {bounds[name]}){'' if ok else '  WIDE'}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
