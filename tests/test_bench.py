import argparse
import csv
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import specden
from specden import bench, sde
from specden.bench import build_matrix, main, read_config_file, render_sweep_svg
from specden.moment_matching import SolverError


def run_cli(*argv):
    return main(list(argv))


def test_build_matrix_parsing():
    A = build_matrix("inverse:10")
    assert A.dimension == 10
    assert build_matrix("low_rank:120").dimension == 120
    with pytest.raises(ValueError):
        build_matrix("mystery:10")
    with pytest.raises(ValueError):
        build_matrix("inverse:ten")


# Every generator at sizes 0 and -3, and low_rank, which has rank 100, at 50.
SIZE_CASES = [
    (size, name) for size in ("0", "-3") for name in sorted(bench.GENERATORS)
] + [("50", "low_rank")]


@pytest.mark.parametrize("size, name", SIZE_CASES, ids=[f"{s}-{n}" for s, n in SIZE_CASES])
def test_matrix_size_below_one_names_the_spec(tmp_path, capsys, size, name):
    spec = f"{name}:{size}"
    least = 100 if name == "low_rank" else 1
    code = run_cli(
        "estimate", "--matrix", spec, "--algo", "kpm", "--budget", "100",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: matrix spec '{spec}' needs a size of at least {least}\n"
    )


def test_estimate_writes_atoms_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["estimate", "--matrix", "inverse:200", "--algo", "slq", "--budget", "60", "--seed", "1"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert "total:" in capsys.readouterr().out
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    weights = np.array([float(r["weight"]) for r in rows])
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert len(rows) <= 60 * 15  # at most m atoms per averaging trial


def test_estimate_rejects_bad_flags(tmp_path, capsys):
    # A count below 1 is an error naming its flag.
    for flag, budget, trials in [("--budget", "0", "1"), ("--trials", "10", "0")]:
        code = run_cli(
            "estimate", "--matrix", "inverse:50", "--algo", "slq", "--budget", budget,
            "--trials", trials, "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag} '0': must be at least 1, got 0\n"
    # Empty text goes through its flag's parser too, which names the flag;
    # a required text flag left empty is missing.
    base = ["estimate", "--matrix", "inverse:50", "--algo", "slq", "--budget", "10"]
    for flag in ("--trials", "--seed", "--budget"):
        assert run_cli(*base, flag, "", "--out", str(tmp_path / "x.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} '': "), err
    for flag in ("--out", "--matrix", "--algo"):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*base, "--out", str(tmp_path / "x.csv"), flag, "")
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {flag} is required\n")
    assert (
        run_cli(
            "estimate", "--matrix", "inverse:50", "--algo", "bogus",
            "--budget", "10", "--out", str(tmp_path / "x.csv"),
        )
        == 2
    )


def test_unknown_algorithm_is_rejected_before_the_matrix_is_built(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args):
        raise AssertionError("build_matrix called")

    monkeypatch.setattr(bench, "build_matrix", refuse)
    out = tmp_path / "x.csv"
    choices = str(sde.ALGORITHMS)
    for command, flag in (("estimate", "--budget"), ("sweep", "--budgets")):
        code = run_cli(
            command, "--matrix", "uniform:3000", "--algo", "kpmm", flag, "100",
            "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: unknown algorithm 'kpmm'; choose from {choices}\n"
        )
    assert not out.exists()


def test_too_small_budget_is_an_error_not_a_traceback(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert (
        run_cli(
            "estimate", "--matrix", "low_rank:200", "--algo", "def_cmm",
            "--budget", "5", "--out", str(out),
        )
        == 2
    )
    assert capsys.readouterr().err.startswith("error: budget 5 cannot fund")
    assert (
        run_cli(
            "sweep", "--matrix", "low_rank:200", "--algo", "cmm",
            "--budgets", "10", "--seed", "1", "--profile", "ci", "--out", str(out),
        )
        == 2
    )
    assert capsys.readouterr().err.startswith("error: no budget left")
    assert not out.exists()


def test_sweep_names_budgets_when_an_entry_does_not_parse(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--matrix", "inverse:30", "--algo", "slq",
        "--budgets", "60,abc", "--out", str(out),
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --budgets '60,abc': invalid literal for int() with base 10: 'abc'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("budgets", ["60,-5", "60,0"])
def test_sweep_names_budgets_when_an_entry_is_below_one(tmp_path, capsys, budgets):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--matrix", "inverse:30", "--algo", "slq",
        "--budgets", budgets, "--out", str(out),
    )
    assert code == 2
    low = budgets.split(",")[1]
    assert capsys.readouterr().err == (
        f"error: --budgets '{budgets}': every budget must be at least 1, got {low}\n"
    )
    assert not out.exists()


def test_sweep_schema_and_budget_honesty(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--matrix", "inverse:80", "--algo", "slq,cmm",
        "--budgets", "40,60", "--trials", "1", "--seed", "3",
        "--profile", "ci", "--out", str(out),
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 3  # algos x budgets x ci-profile trials
    for row in rows:
        assert row["matrix"] == "inverse:80"
        assert int(row["ledger_total"]) <= int(row["budget"])
        float(row["w1"])  # parses
    cells = [(r["algorithm"], int(r["budget"]), int(r["trial"])) for r in rows]
    assert cells == sorted(cells)  # cmm before slq, though --algo lists slq first


def test_bare_sweep_runs_the_ci_profile(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--matrix", "inverse:60", "--algo", "slq,kpm",
        "--budgets", "40,60", "--trials", "1", "--out", str(out),
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 3  # algos x budgets x ci-profile trials


def test_sweep_is_deterministic(tmp_path):
    args = [
        "sweep", "--matrix", "low_rank:120", "--algo", "vr_slq",
        "--budgets", "30", "--trials", "1", "--seed", "7", "--profile", "ci",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_exact_command(tmp_path):
    out = tmp_path / "exact.csv"
    assert run_cli("exact", "--matrix", "inverse:30", "--out", str(out)) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    locs = sorted(float(r["location"]) for r in rows)
    assert locs[-1] == pytest.approx(1.0)


def test_exact_command_normalizes_a_graph_unless_told_not_to(tmp_path):
    graph = tmp_path / "p3.mtx"
    graph.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n"
    )
    spectra = {}
    for flag in ("--normalize-adjacency", "--no-normalize-adjacency", None):
        out = tmp_path / f"{flag}.csv"
        argv = ["exact", "--matrix", str(graph), "--out", str(out)]
        assert run_cli(*argv, *([flag] if flag else [])) == 0
        with open(out) as fh:
            spectra[flag] = sorted(float(r["location"]) for r in csv.DictReader(fh))
    # The three-vertex path: D^{-1/2} A D^{-1/2} has eigenvalues -1, 0, 1,
    # and its adjacency matrix -sqrt(2), 0, sqrt(2).
    assert spectra[None] == spectra["--normalize-adjacency"]
    np.testing.assert_allclose(spectra[None], [-1.0, 0.0, 1.0], atol=1e-12)
    root2 = np.sqrt(2.0)
    np.testing.assert_allclose(
        spectra["--no-normalize-adjacency"], [-root2, 0.0, root2], atol=1e-12
    )


def test_plot_svg_structure(tmp_path):
    sweep = tmp_path / "s.csv"
    with open(sweep, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["matrix", "algorithm", "budget", "trial", "seed", "w1", "ledger_total"])
        # The last name is markup unless the legend escapes it.
        for algo in ("slq", "cmm", "a<b&c"):
            for budget in (50, 100):
                for trial in range(1, 4):
                    writer.writerow(["m", algo, budget, trial, trial, 0.1 / budget * trial, budget])
    out = tmp_path / "plot.svg"
    assert run_cli("plot", "--in", str(sweep), "--out", str(out)) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"
    ns = {"s": "http://www.w3.org/2000/svg"}
    assert len(root.findall(".//s:polyline", ns)) == 3  # one mean line per algorithm
    assert len(root.findall(".//s:polygon", ns)) == 3  # one percentile band each
    texts = {t.text for t in root.findall(".//s:text", ns)}
    assert {"slq", "cmm", "a<b&c"} <= texts


def test_plot_single_point_and_empty(tmp_path):
    sweep = tmp_path / "one.csv"
    with open(sweep, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["matrix", "algorithm", "budget", "trial", "seed", "w1", "ledger_total"])
        writer.writerow(["m", "slq", 50, 1, 1, 0.25, 50])
    out = tmp_path / "one.svg"
    assert run_cli("plot", "--in", str(sweep), "--out", str(out)) == 0
    assert "circle" in out.read_text()

    empty = tmp_path / "empty.csv"
    empty.write_text("matrix,algorithm,budget,trial,seed,w1,ledger_total\n")
    assert run_cli("plot", "--in", str(empty), "--out", str(out)) == 2


def test_render_sweep_svg_rejects_empty():
    with pytest.raises(ValueError):
        render_sweep_svg([])


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("matrix = inverse:40\nbudget = 30\nseed = 5  # comment\n")
    assert read_config_file(str(cfg)) == {
        "matrix": "inverse:40",
        "budget": "30",
        "seed": "5",
    }
    out_cfg = tmp_path / "from_cfg.csv"
    assert run_cli(
        "estimate", "--algo", "slq", "--config", str(cfg), "--out", str(out_cfg)
    ) == 0
    # A flag overrides the same key in the file.
    out_flag = tmp_path / "from_flag.csv"
    assert run_cli(
        "estimate", "--algo", "slq", "--config", str(cfg),
        "--matrix", "inverse:25", "--out", str(out_flag),
    ) == 0
    with open(out_flag) as fh:
        rows = list(csv.DictReader(fh))
    assert len({float(r["location"]) for r in rows}) <= 25 * 15
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        read_config_file(str(bad))


@pytest.mark.parametrize(
    "config_text, message",
    [
        ("just words\n", "bench.cfg:1: expected key=value"),
        ("matrix = inverse:40\nbudgte = 30\n", "bench.cfg:2: unknown key 'budgte'"),
        ("matrix = inverse:40\nbudget = abc\n", "'abc'"),
        ("matrix = inverse:40\n\nbudget = abc\n", "bench.cfg:3: budget: "),
        (None, "No such file"),
        (
            "matrix = inverse:40\nbudgets = 60,abc\n",
            "bench.cfg:2: budgets: invalid literal for int() with base 10: 'abc'\n",
        ),
        (
            "matrix = inverse:40\nbudgets = 60,-5\n",
            "bench.cfg:2: budgets: every budget must be at least 1, got -5\n",
        ),
        ("matrix = inverse:40\nbudget = 0\n", "bench.cfg:2: budget: must be at least 1, got 0\n"),
        (
            "matrix = inverse:40\nbudget = 30\ntrials = -1\n",
            "bench.cfg:3: trials: must be at least 1, got -1\n",
        ),
        (
            "matrix = inverse:40\nbudget = 30\nsweep_trials = 0\n",
            "bench.cfg:3: sweep_trials: must be at least 1, got 0\n",
        ),
        ("grid_d = 0\nmatrix = inverse:40\n", "bench.cfg:1: grid_d: must be at least 1, got 0\n"),
    ],
    ids=[
        "malformed_line", "unknown_key", "bad_integer", "bad_integer_line",
        "missing_file", "unparsable_budgets", "budgets_below_one",
        "budget_below_one", "trials_below_one", "sweep_trials_below_one",
        "grid_d_below_one",
    ],
)
def test_config_file_errors_exit_2(tmp_path, capsys, config_text, message):
    cfg = tmp_path / "bench.cfg"
    if config_text is not None:
        cfg.write_text(config_text)
    out = tmp_path / "x.csv"
    code = run_cli("estimate", "--algo", "slq", "--config", str(cfg), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert not out.exists()


def test_config_normalize_adjacency_takes_only_boolean_words(tmp_path, capsys):
    graph = tmp_path / "p3.mtx"
    graph.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n"
    )
    cfg = tmp_path / "bench.cfg"
    out = tmp_path / "x.csv"
    root2 = np.sqrt(2.0)
    for word, spectrum in [
        ("Yes", [-1.0, 0.0, 1.0]), ("ON", [-1.0, 0.0, 1.0]),
        ("False", [-root2, 0.0, root2]), ("0", [-root2, 0.0, root2]),
    ]:
        cfg.write_text(f"matrix = {graph}\nnormalize_adjacency = {word}\n")
        assert run_cli("exact", "--config", str(cfg), "--out", str(out)) == 0
        with open(out) as fh:
            got = sorted(float(r["location"]) for r in csv.DictReader(fh))
        np.testing.assert_allclose(got, spectrum, atol=1e-12)
    out.unlink()
    cfg.write_text(f"matrix = {graph}\nnormalize_adjacency = maybe\n")
    assert run_cli("exact", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:2: normalize_adjacency: ")
    assert "'maybe'" in err
    assert not out.exists()


def test_solver_failure_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise SolverError("moment-matching LP failed (status 15)")

    monkeypatch.setattr(sde, "solve_moment_matching", fail)
    out = tmp_path / "x.csv"
    code = run_cli(
        "estimate", "--matrix", "inverse:60", "--algo", "cmm", "--budget", "60",
        "--out", str(out),
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: moment-matching LP failed")
    assert not out.exists()


@pytest.mark.parametrize("column", ["algorithm", "budget", "w1"])
def test_plot_rejects_a_csv_without_a_needed_column(tmp_path, capsys, column):
    header = ["matrix", "algorithm", "budget", "trial", "seed", "w1", "ledger_total"]
    row = ["m", "slq", "50", "1", "1", "0.25", "50"]
    keep = [i for i, name in enumerate(header) if name != column]
    sweep = tmp_path / "s.csv"
    with open(sweep, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([header[i] for i in keep])
        writer.writerow([row[i] for i in keep])
    out = tmp_path / "s.svg"
    assert run_cli("plot", "--in", str(sweep), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {sweep} has no {column} column\n"
    assert not out.exists()


@pytest.mark.parametrize("row", ["400,0.05", "400,0.05,"], ids=["missing", "empty"])
def test_plot_rejects_a_row_without_an_algorithm(tmp_path, capsys, row):
    sweep = tmp_path / "s.csv"
    sweep.write_text(f"budget,w1,algorithm\n{row}\n")
    out = tmp_path / "s.svg"
    assert run_cli("plot", "--in", str(sweep), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: {sweep}:2: the algorithm cell is missing or empty\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "budget, w1, message",
    [
        ("abc", "0.25", "invalid literal for int() with base 10: 'abc'"),
        ("50", "", "could not convert string to float: ''"),
        ("50", "inf", "w1 must be finite and nonnegative, got inf"),
        ("50", "nan", "w1 must be finite and nonnegative, got nan"),
        ("50", "-0.5", "w1 must be finite and nonnegative, got -0.5"),
    ],
    ids=["bad_budget", "empty_w1", "infinite_w1", "nan_w1", "negative_w1"],
)
def test_plot_names_the_line_of_a_non_numeric_cell(
    tmp_path, capsys, budget, w1, message
):
    sweep = tmp_path / "s.csv"
    sweep.write_text(
        "matrix,algorithm,budget,trial,seed,w1,ledger_total\n"
        "m,slq,50,1,1,0.25,50\n"
        f"m,slq,{budget},2,2,{w1},50\n"
    )
    out = tmp_path / "s.svg"
    assert run_cli("plot", "--in", str(sweep), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {sweep}:3: {message}\n"
    assert not out.exists()


def test_sweep_runs_each_listed_algorithm_once(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--matrix", "inverse:60", "--algo", "slq,kpm,slq",
        "--budgets", "60", "--trials", "1", "--out", str(out),
    )
    assert code == 0
    with open(out) as fh:
        cells = [(r["algorithm"], r["budget"], r["trial"]) for r in csv.DictReader(fh)]
    assert len(cells) == len(set(cells)) == 2 * 1 * 3  # algos x budgets x ci trials


# Subcommand -> its flags, --[no-]normalize-adjacency counted once.
FLAGS = {
    "estimate": {
        "--profile", "--config", "--matrix", "--algo", "--budget", "--out",
        "--trials", "--seed", "--normalize-adjacency",
    },
    "sweep": {
        "--profile", "--config", "--matrix", "--algo", "--budgets", "--out",
        "--trials", "--seed", "--normalize-adjacency",
    },
    "exact": {"--config", "--matrix", "--out", "--seed", "--normalize-adjacency"},
    "plot": {"--config", "--in", "--out"},
}


def test_each_subcommand_has_exactly_the_flags_it_reads():
    parser = bench.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        command: {
            action.option_strings[0]
            for action in subparser._actions
            if action.dest != "help"
        }
        for command, subparser in sub.choices.items()
    }
    assert flags == FLAGS
    assert sum(map(len, flags.values())) == 26


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["plot", "--in", "s.csv", "--out", "s.svg", "--budget", "0"], "--budget 0"),
        (["plot", "--in", "s.csv", "--out", "s.svg", "--seed", "3"], "--seed 3"),
        (["exact", "--matrix", "inverse:30", "--out", "x.csv", "--algo", "slq"],
         "--algo slq"),
        (["exact", "--matrix", "inverse:30", "--out", "x.csv", "--profile", "paper"],
         "--profile paper"),
        (["estimate", "--matrix", "inverse:30", "--algo", "slq", "--budget", "60",
          "--out", "x.csv", "--budgets", "60"], "--budgets 60"),
        # Not taken as an abbreviation of --budgets.
        (["sweep", "--matrix", "inverse:30", "--algo", "slq", "--budgets", "60",
          "--out", "x.csv", "--budget", "60"], "--budget 60"),
    ],
    ids=["plot_budget", "plot_seed", "exact_algo", "exact_profile",
         "estimate_budgets", "sweep_budget"],
)
def test_a_flag_the_subcommand_does_not_read_is_unrecognized(
    tmp_path, capsys, monkeypatch, argv, flag
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag}\n")
    assert not any(tmp_path.iterdir())


def test_a_config_key_the_subcommand_does_not_read_is_ignored(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("matrix = inverse:30\nbudget = 30\n")
    out = tmp_path / "exact.csv"
    assert run_cli("exact", "--config", str(cfg), "--out", str(out)) == 0
    with open(out) as fh:
        assert len(list(csv.DictReader(fh))) == 30
    sweep = tmp_path / "s.csv"
    sweep.write_text("algorithm,budget,w1\nslq,50,0.25\n")
    cfg.write_text(f"infile = {sweep}\nbudget = 30\n")
    svg = tmp_path / "s.svg"
    assert run_cli("plot", "--config", str(cfg), "--out", str(svg)) == 0
    assert "circle" in svg.read_text()


LAZY_OPTIMIZE_SCRIPT = """
import sys
from specden import bench, sde
A = bench.build_matrix("uniform:200", 0)
for algo in ("kpm", "def_kpm", "slq", "vr_slq"):
    sde.run(A, sde.SdeConfig(algo, budget=200, trials=2))
print("scipy.optimize" in sys.modules)
est = sde.run(A, sde.SdeConfig("cmm", budget=200, trials=1))
print(est.diagnostics["per_trial"][0]["solver"])
"""


def test_scipy_optimize_loads_only_when_moment_matching_solves():
    # scipy.optimize costs about 20 MB and 0.17 s at import; estimates that
    # solve no NNLS or LP should not pay for it.  Its own process, as the
    # test suite imports scipy.optimize.
    path = [str(Path(specden.__file__).parents[1])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", LAZY_OPTIMIZE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["False", "nnls"]
