import os
import subprocess
import sys

import numpy as np
import pytest

import qlinesearch
from qlinesearch import bench
from qlinesearch.cli import main


def test_solve_sphere(capsys):
    code = main(["solve", "--problem", "sphere", "--method", "qls",
                 "--x0", "1,1,1,1,1,1,1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status=converged" in out


def test_solve_bfgs_with_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = main(["solve", "--problem", "fc", "--c", "0.5", "--method", "bfgs",
                 "--x0", "0.5,0.9", "--trace", str(trace)])
    assert code == 0
    lines = trace.read_text().strip().split("\n")
    assert lines[0].startswith("k,f_value,grad_norm,alpha,q,")
    assert len(lines) > 2
    # q column empty for bfgs
    assert lines[1].split(",")[4] == ""


def test_solve_dimension_mismatch_exits_2(capsys):
    code = main(["solve", "--problem", "sphere", "--method", "bfgs", "--x0", "1,2"])
    assert code == 2


def test_solve_unknown_problem_exits_2(capsys):
    code = main(["solve", "--problem", "nosuch", "--method", "bfgs", "--x0", "1"])
    assert code == 2
    code = main(["solve", "--problem", "fc", "--method", "bfgs", "--x0", "1,1"])
    assert code == 2  # fc requires --c


def test_solve_nonconverged_exits_3(capsys):
    code = main(["solve", "--problem", "fc", "--c", "0.5", "--method", "bfgs",
                 "--x0", "0.5,1.9", "--max-iter", "1"])
    assert code == 3


def test_invalid_arguments_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--problem", "sphere"])  # missing required flags
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["profile", "--metric", "bogus", "--in", "x", "--out", "y"])
    assert err.value.code == 2


SPHERE = ["solve", "--problem", "sphere", "--method", "qls", "--x0", "1,1,1,1,1,1,1,1"]


@pytest.mark.parametrize("argv", [
    SPHERE + ["--q0", "1.5"], SPHERE + ["--q0", "0"], SPHERE + ["--gamma", "0"],
    SPHERE + ["--eps", "0"], SPHERE + ["--eps", "nan"], SPHERE + ["--max-iter", "-5"],
    ["bench", "fc", "--q0", "1"], ["bench", "fc", "--gammas", "1,0"],
    ["bench", "fc", "--eps", "-0.5"],
    ["bench", "suite", "--time-cap", "0"], ["bench", "suite", "--time-cap", "-1"],
    ["bench", "suite", "--eps", "nan"], ["bench", "suite", "--q0", "1.5"],
    ["bench", "suite", "--runs", "0"], ["bench", "suite", "--attempt-cap", "0"],
    ["bench", "suite", "--max-iter", "-1"],
], ids=lambda argv: " ".join(argv[:1 + (argv[0] == "bench")] + argv[-2:]))
def test_invalid_values_exit_2_with_one_error_line(argv, capsys):
    # the library's own checks reject each value before anything runs
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_bench_fc_writes_summary(tmp_path, capsys):
    out = tmp_path / "fc.csv"
    runs = tmp_path / "runs.csv"
    code = main(["bench", "fc", "--gammas", "1", "--out", str(out),
                 "--runs-out", str(runs)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 11  # header + 10 c rows
    table = bench.load_runs_csv(str(runs))
    assert len(table.rows) == 200  # 10 c x 2 solvers x 10 starts


def test_bench_fc_csv_carries_the_printed_means(tmp_path, capsys):
    # the summary CSV's columns are the sweep's own solvers, so q4 is written
    out = tmp_path / "fc.csv"
    code = main(["bench", "fc", "--gammas", "4", "--out", str(out)])
    assert code == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("c=")]
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "c,iter_bfgs,iter_q4,time_bfgs,time_q4"
    assert len(printed) == len(lines) - 1 == 10
    for shown, line in zip(printed, lines[1:]):
        c, bfgs, q4 = (float(v) for v in line.split(",")[:3])
        assert shown == f"c={c:g}: bfgs={bfgs:.2f} q4={q4:.2f}"


def test_bench_suite_and_profile(tmp_path, capsys):
    runs = tmp_path / "runs.csv"
    prof = tmp_path / "profile.csv"
    svg = tmp_path / "profile.svg"
    # tiny deterministic slice: quadratic problems always succeed
    code = main(["bench", "suite", "--seed", "11", "--runs", "2",
                 "--attempt-cap", "5", "--out", str(runs)])
    assert code in (0, 3)
    code = main(["profile", "--metric", "iterations", "--in", str(runs),
                 "--out", str(prof), "--svg", str(svg)])
    assert code == 0
    curves = bench.load_profile_csv(str(prof))
    assert {c.solver for c in curves} == {"bfgs", "q1", "q2", "q3"}
    for c in curves:
        fr = [f for _, f in c.points]
        assert all(b >= a for a, b in zip(fr, fr[1:]))
    assert svg.read_text().startswith("<svg")


def test_module_entry_point():
    # the child process imports the same package this process tests, whether
    # it came from an install or from pytest's pythonpath setting
    root = os.path.dirname(os.path.dirname(os.path.abspath(qlinesearch.__file__)))
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "qlinesearch", "solve",
                           "--problem", "sphere", "--method", "bfgs",
                           "--x0", "1,0,0,0,0,0,0,0"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "status=converged" in proc.stdout


def test_bench_suite_names_each_short_cell_once(tmp_path):
    # a child process, so that stderr is everything the command writes
    # there, log records included
    runs = tmp_path / "runs.csv"
    root = os.path.dirname(os.path.dirname(os.path.abspath(qlinesearch.__file__)))
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "qlinesearch", "bench", "suite",
                           "--seed", "3", "--runs", "2", "--attempt-cap", "2",
                           "--out", str(runs)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    table = bench.load_runs_csv(str(runs))
    short = [(p, s, n) for p in table.problems() for s in table.solvers()
             if (n := sum(r.success for r in table.cell(p, s))) < 2]
    assert short and proc.returncode == 3
    assert proc.stderr.splitlines() == [f"unsolved cell: {p}/{s} ({n}/2)" for p, s, n in short]
    assert proc.stdout.rstrip().endswith(f"; {len(short)} unsolved cells")
