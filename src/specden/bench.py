"""Benchmark command line: estimate | sweep | exact | plot.

``estimate`` writes one density as an atom CSV and prints the matvec
ledger.  ``sweep`` scores algorithms against the exact spectrum across a
budget grid and emits a results CSV.  ``exact`` dumps the true spectral
density.  ``plot`` renders a sweep CSV as an SVG with per-algorithm mean
lines and 10th/90th percentile bands on a log y axis.  Bad input, from a
flag, the config file or a CSV, prints ``error: ...`` and exits with
status 2.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import datasets
from .metrics import exact_density, wasserstein1
from .moment_matching import SolverError
from .randgen import SeededStream
from .sde import BudgetExhaustedError, SdeConfig, run

PROFILES = {
    # Full benchmark protocol: 15 Hutchinson vectors / 15 Krylov iterations /
    # 15 averaging trials, 20000-point grid, 10 outer trials per cell.
    "paper": {"grid_d": 20000, "sweep_trials": 10},
    # Continuous-integration scale: coarser grid, fewer outer trials.
    "ci": {"grid_d": 2000, "sweep_trials": 3},
}

# Generator name -> (least n, builder of an n x n operator from (n, seeded
# stream)).  low_rank has rank 100, so it needs n >= 100.
GENERATORS = {
    "gaussian": (1, datasets.gaussian_spectrum),
    "uniform": (1, datasets.uniform_matrix),
    "inverse": (1, lambda n, stream: datasets.inverse_spectrum(n)),
    "power_law": (1, lambda n, stream: datasets.power_law_spectrum(n)),
    "low_rank": (100, lambda n, stream: datasets.low_rank(n, r=100, stream=stream)),
}


def build_matrix(spec, seed=0, normalize_adjacency=True):
    """Operator from 'name:n' (generator) or a Matrix Market path."""
    if spec.endswith(".mtx") or os.path.sep in spec:
        return datasets.load_matrix_market(spec, normalize_adjacency)
    name, _, size = spec.partition(":")
    if name not in GENERATORS:
        raise ValueError(
            f"unknown matrix {spec!r}: expected one of {tuple(GENERATORS)} as "
            "'name:n', or a path to a .mtx file"
        )
    try:
        n = int(size)
    except ValueError:
        raise ValueError(f"matrix spec {spec!r} needs an integer size, e.g. {name}:500")
    least, generate = GENERATORS[name]
    if n < least:
        raise ValueError(f"matrix spec {spec!r} needs a size of at least {least}")
    return generate(n, SeededStream(seed, stream_id=7_777_777))


def read_config_file(path):
    """Plain key=value lines, each key one of ``_OPTIONS``; '#' starts a comment.

    Values come back as text; one that its option's parser rejects is an
    error naming its line.
    """
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
            try:
                _OPTIONS[key][0](values[key])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _write_atoms(path, density):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "weight"])
        for x, w in zip(density.locations, density.weights):
            writer.writerow([f"{x:.17g}", f"{w:.17g}"])


def cmd_estimate(args):
    config = SdeConfig(
        algorithm=args.algo,
        budget=args.budget,
        trials=args.trials,
        grid_d=args.grid_d,
        seed=args.seed,
    )
    A = build_matrix(args.matrix, args.seed, args.normalize_adjacency)
    estimate = run(A, config)
    _write_atoms(args.out, estimate.density)
    print(estimate.ledger.report())
    return 0


def cmd_sweep(args):
    algos = sorted(set(args.algo.split(",")))
    for algo in algos:
        # SdeConfig rejects an unknown name before the matrix is built.
        SdeConfig(algo, args.budgets[0], args.trials, args.grid_d, args.seed)
    A = build_matrix(args.matrix, args.seed, args.normalize_adjacency)
    exact = exact_density(A)

    # Cells run one after another: a thread pool measured slower, its threads
    # competing with BLAS's own.  Rows are written once every cell succeeded.
    rows = [["matrix", "algorithm", "budget", "trial", "seed", "w1", "ledger_total"]]
    for algo in algos:
        for budget in args.budgets:
            for trial in range(1, args.sweep_trials + 1):
                seed = args.seed * 10_000 + trial
                config = SdeConfig(algo, budget, args.trials, args.grid_d, seed)
                estimate = run(A, config)
                w1 = f"{wasserstein1(estimate.density, exact):.17g}"
                total = estimate.ledger.total
                rows.append([args.matrix, algo, budget, trial, seed, w1, total])
    with open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
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
    # Imported here, as only a plot needs it: it loads urllib and 2.7 MB of
    # objects with it, which no estimate needs.
    from xml.sax.saxutils import escape

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
            f'font-size="12">{escape(algo)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_plot(args):
    rows = []
    with open(args.infile, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {"algorithm", "budget", "w1"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{args.infile} has no {', '.join(sorted(missing))} column")
        for record in reader:
            try:
                if not record["algorithm"]:
                    raise ValueError("the algorithm cell is missing or empty")
                budget, w1 = int(record["budget"]), float(record["w1"])
                if not 0.0 <= w1 < math.inf:
                    raise ValueError(f"w1 must be finite and nonnegative, got {w1}")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{args.infile}:{reader.line_num}: {exc}") from None
            rows.append((record["algorithm"], budget, w1))
    if not rows:
        raise ValueError(f"{args.infile} has no data rows")
    svg = render_sweep_svg(rows)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0


def _parse_count(text):
    """A budget, trial count or grid size: an integer of at least 1."""
    if (value := int(text)) < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def _parse_budgets(text):
    """Distinct budgets of a comma-separated list, ascending, each at least 1."""
    budgets = sorted({int(b) for b in text.split(",")})
    if budgets[0] < 1:
        raise ValueError(f"every budget must be at least 1, got {budgets[0]}")
    return budgets


def _parse_bool(text):
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")


# Option -> (parser of its flag and config-file value, default when no flag,
# config file or profile sets it, flag, flag help).  An option without a flag
# is set by a config file or a profile only; a config file may set these keys
# only.  The one boolean option gets a --no- flag too.
_OPTIONS = {
    "matrix": (str, None, "--matrix", "generator 'name:n' or .mtx path"),
    "algo": (str, None, "--algo", "algorithm name (comma list for sweep)"),
    "budget": (_parse_count, None, "--budget", "matvec budget"),
    "budgets": (_parse_budgets, None, "--budgets", "comma-separated budget list"),
    "trials": (_parse_count, None, "--trials", "averaging trials per run"),
    "seed": (int, 0, "--seed", "base random seed"),
    "sweep_trials": (_parse_count, None, None, None),
    "grid_d": (_parse_count, None, None, None),
    "out": (str, None, "--out", "output file path"),
    "infile": (str, None, "--in", "sweep CSV to plot"),
    "normalize_adjacency": (
        _parse_bool, True,
        "--normalize-adjacency", "degree-normalize loaded graphs (default on)",
    ),
}

# Subcommand -> (handler, the options it needs in check order, the other options
# it reads): its only flags, with --profile only if it reads a profile key.
COMMANDS = {
    "estimate": (cmd_estimate, ("matrix", "algo", "budget", "out"),
                 ("trials", "seed", "grid_d", "normalize_adjacency")),
    "sweep": (cmd_sweep, ("matrix", "algo", "budgets", "out"),
              ("trials", "seed", "grid_d", "sweep_trials", "normalize_adjacency")),
    "exact": (cmd_exact, ("matrix", "out"), ("seed", "normalize_adjacency")),
    "plot": (cmd_plot, ("infile", "out"), ()),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specden-bench",
        description="Spectral density estimation benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, needs, reads) in COMMANDS.items():
        # No abbreviations: sweep would take --budget as --budgets.
        p = sub.add_parser(command, allow_abbrev=False)
        if PROFILES["ci"].keys() & set(reads):
            p.add_argument("--profile", choices=sorted(PROFILES), default="ci",
                           help="defaults bundle (default ci)")
        p.add_argument("--config", help="key=value config file (flags win)")
        for name in needs + reads:
            _, default, flag, help_text = _OPTIONS[name]
            if flag is None:
                continue  # set by a config file or a profile only
            # Flags stay text until resolve() parses them.
            kind = {}
            if isinstance(default, bool):
                kind = {"action": argparse.BooleanOptionalAction}
            p.add_argument(flag, dest=name, help=help_text, **kind)
    return parser


def resolve(args, parser):
    """Parse the flags; fill unset ones from the config file, the profile, defaults.

    Only the subcommand's options are resolved; other config keys are ignored.
    A flag's text that its option's parser rejects, empty text included, is
    an error naming the flag; a required text flag left empty is missing.
    """
    _, needs, reads = COMMANDS[args.command]
    file_values = read_config_file(args.config) if args.config else {}
    profile = PROFILES.get(getattr(args, "profile", None), {})
    for name in needs + reads:
        parse, default, flag, _ = _OPTIONS[name]
        value = getattr(args, name, None)
        if isinstance(value, str):
            try:
                value = parse(value)
            except ValueError as exc:
                raise ValueError(f"{flag} {value!r}: {exc}") from None
        elif value is None and name in file_values:
            value = parse(file_values[name])
        elif value is None:
            value = profile.get(name, default)
        setattr(args, name, value)

    for name in needs:
        value = getattr(args, name)
        if value in (None, ""):
            parser.error(f"{_OPTIONS[name][2]} is required")
    return args


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = resolve(args, parser)
        return COMMANDS[args.command][0](args)
    except (ValueError, OSError, BudgetExhaustedError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
