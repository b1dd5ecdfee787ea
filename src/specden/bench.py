"""Benchmark command line: estimate | sweep | exact | plot.

``estimate`` writes one density as an atom CSV and prints the matvec
ledger.  ``sweep`` scores algorithms against the exact spectrum across a
budget grid and emits a results CSV.  ``exact`` dumps the true spectral
density.  ``plot`` renders a sweep CSV as an SVG with per-algorithm mean
lines and 10th/90th percentile bands on a log y axis.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import math
import os
import sys

import numpy as np

from . import datasets
from .metrics import exact_density, wasserstein1
from .randgen import SeededStream
from .sde import ALGORITHMS, BudgetExhaustedError, SdeConfig, run

PROFILES = {
    # Full benchmark protocol: 15 Hutchinson vectors / 15 Krylov iterations /
    # 15 averaging trials, 20000-point grid, 10 outer trials per cell.
    "paper": {"grid_d": 20000, "sweep_trials": 10},
    # Continuous-integration scale: coarser grid, fewer outer trials.
    "ci": {"grid_d": 2000, "sweep_trials": 3},
}

GENERATORS = ("gaussian", "uniform", "inverse", "power_law", "low_rank")


def build_matrix(spec, seed=0, normalize_adjacency=True):
    """Operator from 'name:n' (generator) or a Matrix Market path."""
    if spec.endswith(".mtx") or os.path.sep in spec:
        return datasets.load_matrix_market(spec, normalize_adjacency)
    name, _, size = spec.partition(":")
    if name not in GENERATORS:
        raise ValueError(
            f"unknown matrix {spec!r}: expected one of {GENERATORS} as "
            "'name:n', or a path to a .mtx file"
        )
    try:
        n = int(size)
    except ValueError:
        raise ValueError(f"matrix spec {spec!r} needs an integer size, e.g. {name}:500")
    stream = SeededStream(seed, stream_id=7_777_777)
    if name == "gaussian":
        return datasets.gaussian_spectrum(n, stream)
    if name == "uniform":
        return datasets.uniform_matrix(n, stream)
    if name == "inverse":
        return datasets.inverse_spectrum(n)
    if name == "power_law":
        return datasets.power_law_spectrum(n)
    return datasets.low_rank(n, stream=stream)


def read_config_file(path):
    """Plain key=value lines; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _write_atoms(path, density):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "weight"])
        for x, w in zip(density.locations, density.weights):
            writer.writerow([f"{x:.17g}", f"{w:.17g}"])


def cmd_estimate(args):
    A = build_matrix(args.matrix, args.seed, args.normalize_adjacency)
    config = SdeConfig(
        algorithm=args.algo,
        budget=args.budget,
        trials=args.trials,
        grid_d=args.grid_d,
        seed=args.seed,
    )
    estimate = run(A, config)
    _write_atoms(args.out, estimate.density)
    print(estimate.ledger.report())
    return 0


def _sweep_cell(A, exact, algo, budget, trial, base_seed, grid_d, trials):
    seed = base_seed * 10_000 + trial
    config = SdeConfig(
        algorithm=algo, budget=budget, trials=trials, grid_d=grid_d, seed=seed
    )
    estimate = run(A, config)
    w1 = wasserstein1(estimate.density, exact)
    return (algo, budget, trial, seed, w1, estimate.ledger.total)


def cmd_sweep(args):
    A = build_matrix(args.matrix, args.seed, args.normalize_adjacency)
    exact = exact_density(A)
    budgets = sorted({int(b) for b in args.budgets.split(",")})
    algos = args.algo.split(",")
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    sweep_trials = args.sweep_trials

    cells = [
        (algo, budget, trial)
        for algo in algos
        for budget in budgets
        for trial in range(1, sweep_trials + 1)
    ]
    with concurrent.futures.ThreadPoolExecutor(
        max_workers=min(8, os.cpu_count() or 1)
    ) as pool:
        rows = list(
            pool.map(
                lambda cell: _sweep_cell(
                    A, exact, cell[0], cell[1], cell[2], args.seed, args.grid_d,
                    args.trials,
                ),
                cells,
            )
        )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["matrix", "algorithm", "budget", "trial", "seed", "w1", "ledger_total"]
        )
        for algo, budget, trial, seed, w1, total in rows:
            writer.writerow(
                [args.matrix, algo, budget, trial, seed, f"{w1:.17g}", total]
            )
    return 0


def cmd_exact(args):
    A = build_matrix(args.matrix, args.seed, args.normalize_adjacency)
    _write_atoms(args.out, exact_density(A))
    return 0


PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

SVG_W, SVG_H = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 20, 50


def _svg_points(pairs):
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in pairs)


def render_sweep_svg(rows):
    """SVG 1.1 scene for (algorithm, budget, w1-list) sweep results."""
    by_algo = {}
    for algo, budget, w1 in rows:
        by_algo.setdefault(algo, {}).setdefault(budget, []).append(w1)
    if not by_algo:
        raise ValueError("no data rows to plot")

    budgets = sorted({b for series in by_algo.values() for b in series})
    all_w1 = [max(w, 1e-16) for _, _, w in rows]
    ymin, ymax = min(all_w1), max(all_w1)
    if ymax / ymin < 10.0:
        ymax, ymin = ymax * 3.0, ymin / 3.0
    lo, hi = math.log10(ymin), math.log10(ymax)
    bmin, bmax = min(budgets), max(budgets)
    span = max(bmax - bmin, 1)
    plot_w = SVG_W - MARGIN_L - MARGIN_R
    plot_h = SVG_H - MARGIN_T - MARGIN_B

    def xpix(b):
        return MARGIN_L + (b - bmin) / span * plot_w

    def ypix(v):
        frac = (math.log10(max(v, 1e-16)) - lo) / (hi - lo)
        return MARGIN_T + (1.0 - frac) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_W}" height="{SVG_H}" viewBox="0 0 {SVG_W} {SVG_H}">',
        f'<rect width="{SVG_W}" height="{SVG_H}" fill="white"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{SVG_H - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{SVG_H - MARGIN_B}" x2="{SVG_W - MARGIN_R}" '
        f'y2="{SVG_H - MARGIN_B}" stroke="black"/>',
        f'<text x="{SVG_W / 2:.0f}" y="{SVG_H - 12}" text-anchor="middle" '
        f'font-size="13">matvec budget</text>',
        f'<text x="16" y="{SVG_H / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {SVG_H / 2:.0f})">W1 error (log)</text>',
    ]
    for b in budgets:
        parts.append(
            f'<text x="{xpix(b):.1f}" y="{SVG_H - MARGIN_B + 16}" '
            f'text-anchor="middle" font-size="11">{b}</text>'
        )
    for e in range(math.floor(lo), math.ceil(hi) + 1):
        v = 10.0**e
        if ymin <= v <= ymax:
            parts.append(
                f'<text x="{MARGIN_L - 6}" y="{ypix(v):.1f}" text-anchor="end" '
                f'font-size="11">1e{e}</text>'
            )

    for idx, (algo, series) in enumerate(sorted(by_algo.items())):
        color = PALETTE[idx % len(PALETTE)]
        bs = sorted(series)
        means = [float(np.mean(series[b])) for b in bs]
        p10 = [float(np.percentile(series[b], 10)) for b in bs]
        p90 = [float(np.percentile(series[b], 90)) for b in bs]
        band = [(xpix(b), ypix(v)) for b, v in zip(bs, p90)]
        band += [(xpix(b), ypix(v)) for b, v in zip(reversed(bs), reversed(p10))]
        parts.append(
            f'<polygon points="{_svg_points(band)}" fill="{color}" '
            f'fill-opacity="0.15" stroke="none"/>'
        )
        line = [(xpix(b), ypix(v)) for b, v in zip(bs, means)]
        parts.append(
            f'<polyline points="{_svg_points(line)}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        for x, y in line:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        ly = MARGIN_T + 16 + 16 * idx
        parts.append(
            f'<rect x="{SVG_W - MARGIN_R - 130}" y="{ly - 9}" width="18" '
            f'height="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{SVG_W - MARGIN_R - 106}" y="{ly - 3}" '
            f'font-size="12">{algo}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_plot(args):
    rows = []
    with open(args.infile, newline="") as fh:
        for record in csv.DictReader(fh):
            rows.append(
                (record["algorithm"], int(record["budget"]), float(record["w1"]))
            )
    if not rows:
        raise ValueError(f"{args.infile} has no data rows")
    with open(args.out, "w") as fh:
        fh.write(render_sweep_svg(rows))
    return 0


def _add_common(parser):
    parser.add_argument("--matrix", help="generator 'name:n' or .mtx path")
    parser.add_argument("--algo", help="algorithm name (comma list for sweep)")
    parser.add_argument("--budget", type=int, help="matvec budget")
    parser.add_argument("--budgets", help="comma-separated budget list")
    parser.add_argument("--trials", type=int, help="averaging trials per run")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--profile", choices=sorted(PROFILES), help="defaults bundle")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--config", help="key=value config file (flags win)")
    parser.add_argument(
        "--normalize-adjacency",
        dest="normalize_adjacency",
        action="store_true",
        default=None,
        help="degree-normalize loaded graphs (default on)",
    )
    parser.add_argument(
        "--no-normalize-adjacency",
        dest="normalize_adjacency",
        action="store_false",
        help="load raw adjacency",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specden-bench",
        description="Spectral density estimation benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("estimate", "sweep", "exact", "plot"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "plot":
            p.add_argument("--in", dest="infile", help="sweep CSV to plot")
    return parser


_CONFIG_TYPES = {
    "budget": int,
    "trials": int,
    "seed": int,
    "sweep_trials": int,
    "grid_d": int,
    "normalize_adjacency": lambda s: s.lower() in ("1", "true", "yes", "on"),
}


def resolve(args, parser):
    """Fill unset flags from the config file, then the profile, then defaults."""
    file_values = read_config_file(args.config) if args.config else {}
    profile = PROFILES[args.profile] if args.profile else {}

    def pick(name, default=None):
        current = getattr(args, name, None)
        if current is not None:
            return current
        if name in file_values:
            caster = _CONFIG_TYPES.get(name, str)
            return caster(file_values[name])
        if name in profile:
            return profile[name]
        return default

    args.seed = pick("seed", 0)
    args.normalize_adjacency = pick("normalize_adjacency", True)
    args.grid_d = pick("grid_d", 2000)
    args.sweep_trials = pick("sweep_trials", 10)
    args.trials = pick("trials")
    args.matrix = pick("matrix")
    args.algo = pick("algo")
    args.budget = pick("budget")
    args.budgets = pick("budgets")
    args.out = pick("out")
    if args.command == "plot":
        args.infile = pick("infile")

    if args.command in ("estimate", "sweep", "exact") and not args.matrix:
        parser.error("--matrix is required")
    if args.command in ("estimate", "sweep") and not args.algo:
        parser.error("--algo is required")
    if args.command == "estimate":
        if args.budget is None or args.budget < 1:
            parser.error("--budget must be a positive integer")
    if args.command == "sweep" and not args.budgets:
        parser.error("--budgets is required (comma-separated list)")
    if args.command == "plot" and not args.infile:
        parser.error("--in is required")
    if not args.out:
        parser.error("--out is required")
    return args


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args = resolve(args, parser)
    handlers = {
        "estimate": cmd_estimate,
        "sweep": cmd_sweep,
        "exact": cmd_exact,
        "plot": cmd_plot,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, BudgetExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
