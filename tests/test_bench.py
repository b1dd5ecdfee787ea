import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from specden.bench import build_matrix, main, read_config_file, render_sweep_svg


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


def test_estimate_rejects_bad_flags(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(
            "estimate", "--matrix", "inverse:50", "--algo", "slq",
            "--budget", "0", "--out", str(tmp_path / "x.csv"),
        )
    assert err.value.code == 2
    assert (
        run_cli(
            "estimate", "--matrix", "inverse:50", "--algo", "bogus",
            "--budget", "10", "--out", str(tmp_path / "x.csv"),
        )
        == 2
    )


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


def test_plot_svg_structure(tmp_path):
    sweep = tmp_path / "s.csv"
    with open(sweep, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["matrix", "algorithm", "budget", "trial", "seed", "w1", "ledger_total"])
        for algo in ("slq", "cmm"):
            for budget in (50, 100):
                for trial in range(1, 4):
                    writer.writerow(["m", algo, budget, trial, trial, 0.1 / budget * trial, budget])
    out = tmp_path / "plot.svg"
    assert run_cli("plot", "--in", str(sweep), "--out", str(out)) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"
    ns = {"s": "http://www.w3.org/2000/svg"}
    assert len(root.findall(".//s:polyline", ns)) == 2  # one mean line per algorithm
    assert len(root.findall(".//s:polygon", ns)) == 2  # one percentile band each


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
