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
