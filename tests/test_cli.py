import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qlinesearch
from qlinesearch import bench, cli
from qlinesearch.cli import main
from qlinesearch.problems import standard_suite
from qlinesearch.usolve import SolverConfig


def test_solve_sphere(capsys):
    code = main(["solve", "--problem", "sphere", "--solver", "q1",
                 "--x0", "1,1,1,1,1,1,1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status=converged" in out


def test_solve_bfgs_with_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = main(["solve", "--problem", "fc_c0.5", "--solver", "bfgs",
                 "--x0", "0.5,0.9", "--trace", str(trace)])
    assert code == 0
    lines = trace.read_text().strip().split("\n")
    assert lines[0].startswith("k,f_value,grad_norm,alpha,q_k,")
    assert len(lines) > 2
    # q column empty for bfgs
    assert lines[1].split(",")[4] == ""


def test_solve_dimension_mismatch_exits_2(capsys):
    code = main(["solve", "--problem", "sphere", "--solver", "bfgs", "--x0", "1,2"])
    assert code == 2


def test_solve_unknown_problem_exits_2(capsys):
    code = main(["solve", "--problem", "nosuch", "--solver", "bfgs", "--x0", "1"])
    assert code == 2
    code = main(["solve", "--problem", "fc", "--solver", "bfgs", "--x0", "1,1"])
    assert code == 2  # an fc problem is named fc_c<c>


def test_solve_nonconverged_exits_3(capsys):
    code = main(["solve", "--problem", "fc_c0.5", "--solver", "bfgs",
                 "--x0", "0.5,1.9", "--max-iter", "1"])
    assert code == 3


def test_solve_schedule_reaching_one_exits_3(capsys):
    # q_2 = 1 - 0.5^60 rounds to 1; this used to end in a traceback
    code = main(["solve", "--problem", "branin", "--solver", "q60", "--q0", "0.5",
                 "--x0", "2.5,3.0"])
    assert code == 3
    assert capsys.readouterr().out.startswith("status=numeric_failure iterations=1 ")


def test_invalid_arguments_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--problem", "sphere"])  # missing required flags
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["profile", "--metric", "bogus", "--in", "x", "--out", "y"])
    assert err.value.code == 2


SPHERE = ["solve", "--problem", "sphere", "--solver", "q1", "--x0", "1,1,1,1,1,1,1,1"]
BRANIN = ["solve", "--problem", "branin", "--solver", "bfgs"]


@pytest.mark.parametrize("argv", [
    SPHERE + ["--q0", "1.5"], SPHERE + ["--q0", "0"], SPHERE + ["--solver", "q0"],
    SPHERE + ["--solver", "newton"], SPHERE + ["--q0", "1.5", "--solver", "bfgs"],
    SPHERE + ["--eps", "0"], SPHERE + ["--eps", "nan"], SPHERE + ["--eps", "-1e-5"],
    SPHERE + ["--max-iter", "-5"], SPHERE + ["--solver", "q01"],
    ["bench", "fc", "--q0", "1"], ["bench", "fc", "--solvers", "bfgs,q0"],
    ["bench", "fc", "--solvers", "q1,q01"],
    ["bench", "fc", "--solvers", "bfgs,qls"], ["bench", "fc", "--solvers", ","],
    # an empty item of a comma list used to be dropped: x0 = (3, 2.5) was solved
    BRANIN + ["--x0", "3,,2.5"], BRANIN + ["--x0", "3,2.5,"],
    ["bench", "fc", "--solvers", "bfgs,,q1"], ["bench", "fc", "--solvers", "bfgs,q1,"],
    ["bench", "fc", "--eps", "-0.5"],
    ["bench", "suite", "--time-cap", "0"], ["bench", "suite", "--time-cap", "-1"],
    ["bench", "suite", "--eps", "nan"], ["bench", "suite", "--q0", "1.5"],
    ["bench", "suite", "--runs", "0"], ["bench", "suite", "--attempt-cap", "0"],
    ["bench", "suite", "--max-iter", "-1"], ["bench", "suite", "--seed", "-1"],
    ["profile", "--metric", "iterations", "--in", "/nonexistent/runs.csv", "--out", "p.csv"],
    SPHERE + ["--trace", "/nonexistent/trace.csv"],
    ["bench", "fc", "--out", "/nonexistent/fc.csv"],
    ["bench", "fc", "--runs-out", "/nonexistent/runs.csv"],
    ["bench", "suite", "--runs", "1", "--attempt-cap", "2", "--out", "/nonexistent/runs.csv"],
    # a runs CSV whose success cell is neither true nor false, written by the test
    *(["profile", "--metric", "iterations", "--out", "p.csv", "--in", f"success={cell}"]
      for cell in ("yes", "True")),
    # a sweep that names a cell twice
    ["bench", "fc", "--solvers", "bfgs,bfgs"],
    # a runs CSV with a cell that does not parse, that no sweep writes, or a
    # row of 3 cells, on its second row
    *(["profile", "--metric", metric, "--out", "p.csv", "--in", cell]
      for metric, cell in [("iterations", "run_index=x"), ("iterations", "start_point=1.0;"),
                           ("iterations", "row=branin,bfgs,0"), ("time", "elapsed_seconds=nan"),
                           ("iterations", "iterations=-3")]),
], ids=lambda argv: " ".join(argv[:1 + (argv[0] == "bench")] + argv[-2:]))
def test_invalid_values_exit_2_with_one_error_line(argv, tmp_path, capsys):
    # the library's own checks reject each value before anything runs
    field, _, cell = argv[-1].partition("=")
    if argv[0] == "profile" and cell:  # a runs CSV of two rows, the second with this cell
        runs, good = tmp_path / "runs.csv", "branin,bfgs,0,42,true,5,0.01,1.0;2.0"
        cells = dict(zip(bench.RUNS_HEADER.split(","), good.split(",")))
        bad = cell if field == "row" else ",".join({**cells, field: cell}.values())
        runs.write_text(f"{bench.RUNS_HEADER}\n{good}\n{bad}\n")
        argv = argv[:-1] + [str(runs)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    if argv[0] == "profile" and cell:  # the message says where the bad cell is
        where = "line 3: 3 cells" if field == "row" else f"line 3, column {field}: "
        assert f"error: {runs} {where}" in captured.err


def test_unwritable_output_exits_2_with_one_error_line(tmp_path, capsys):
    # a name longer than a file system allows passes main's path check, so
    # the sweep runs and its write fails
    out = tmp_path / ("r" * 300 + ".csv")
    code = main(["bench", "suite", "--seed", "42", "--runs", "1", "--attempt-cap", "1",
                 "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("case", ["header", "out", "out is a directory", "svg"])
def test_profile_file_errors_exit_2_with_one_error_line(case, tmp_path, capsys):
    # a runs CSV under another header, or a valid one with an output that cannot be written
    runs, missing = tmp_path / "runs.csv", tmp_path / "missing"
    runs.write_text(("c,iter_bfgs" if case == "header" else bench.RUNS_HEADER) + "\n")
    out = {"out": missing / "p.csv", "out is a directory": tmp_path}.get(case, tmp_path / "p.csv")
    svg = ["--svg", str(missing / "p.svg")] if case == "svg" else []
    assert main(["profile", "--metric", "iterations", "--in", str(runs), "--out", str(out), *svg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert sorted(tmp_path.iterdir()) == [runs]


@pytest.mark.parametrize("x0", [["--x0", "-1.2,1.5"], ["--x0", "-1,2"], ["--x0=-1.2,1.5"]],
                         ids=" ".join)
def test_negative_start_point_parses(x0, capsys):
    # no iteration runs, so the printed x is the parsed start point
    code = main(["solve", "--problem", "dixonprice", *x0, "--solver", "q2", "--max-iter", "0"])
    assert code == 3
    out = capsys.readouterr().out
    assert out.startswith("status=max_iterations iterations=0 ")
    assert f" x=[{x0[-1].split('=')[-1].replace(',', ', ')}] " in out


def test_bench_fc_writes_summary(tmp_path, capsys):
    out = tmp_path / "fc.csv"
    runs = tmp_path / "runs.csv"
    code = main(["bench", "fc", "--solvers", "bfgs,q1", "--out", str(out),
                 "--runs-out", str(runs)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 11  # header + 10 c rows
    table = bench.load_runs_csv(str(runs))
    assert len(table.rows) == 200  # 10 c x 2 solvers x 10 starts


def test_bench_fc_csv_carries_the_printed_means(tmp_path, capsys):
    # the summary CSV's columns are the sweep's own solvers, so q4 is written
    out = tmp_path / "fc.csv"
    code = main(["bench", "fc", "--solvers", "bfgs,q4", "--out", str(out)])
    assert code == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("c=")]
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "c,iter_bfgs,iter_q4,time_bfgs,time_q4"
    assert len(printed) == len(lines) - 1 == 10
    for shown, line in zip(printed, lines[1:]):
        c, bfgs, q4 = (float(v) for v in line.split(",")[:3])
        assert shown == f"c={c:g}: bfgs={bfgs:.2f} q4={q4:.2f}"


def test_bench_fc_failed_runs_exit_3(monkeypatch, capsys):
    # no default fc run fails, so here every run is judged a failure
    monkeypatch.setattr(bench, "is_success", lambda problem, result: False)
    assert main(["bench", "fc", "--solvers", "bfgs"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "100 failed runs\n"
    assert captured.out.count(": bfgs=nan\n") == 10


def test_console_script_exits_with_the_command_status(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["qlinesearch", "solve", "--problem", "sphere",
                                      "--solver", "bfgs", "--x0", "1,0,0,0,0,0,0,0"])
    with pytest.raises(SystemExit) as err:
        cli.console_main()
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("status=converged ")


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
                           "--problem", "sphere", "--solver", "bfgs",
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


@pytest.mark.parametrize("flags, budget", [
    ([], SolverConfig().max_iterations), (["--max-iter", "7"], 7)], ids=["default", "7"])
def test_bench_suite_runs_under_the_solve_budget(flags, budget, monkeypatch, capsys):
    # without --max-iter a suite run gets SolverConfig()'s budget, as ``solve`` does
    budgets, sweep = [], bench.run_suite_benchmark

    def watch(solver, solve):
        def run(problem, x0, config):
            budgets.append(config.max_iterations)
            return solve(problem, x0, config)
        return run
    monkeypatch.setattr(bench, "run_suite_benchmark", lambda **kw: sweep(wrap=watch, **kw))
    main(["bench", "suite", "--runs", "1", "--attempt-cap", "1", *flags])
    assert budgets == [budget] * len(standard_suite()) * len(bench.SOLVERS)


def test_every_row_replays_through_solve(tmp_path, capsys):
    # each row of a runs CSV names its run: problem, solver and start point
    # are all a solve needs; every suite row, failed ones too, since the
    # objective floor is the solve's own and not the sweep's
    fc, suite = tmp_path / "fc.csv", tmp_path / "suite.csv"
    bench.emit(bench.run_fc_benchmark(c_values=(0.3, 0.5, 1.7), y_values=(0.1, 1.0, 1.9)),
               "csv", str(fc))
    bench.emit(bench.run_suite_benchmark(master_seed=42, runs_required=3, attempt_cap=6),
               "csv", str(suite))
    replays = bench.load_runs_csv(str(fc)).rows + bench.load_runs_csv(str(suite)).rows
    assert len(replays) == 36 + 200
    assert sum(not r.success for r in replays) == 30
    for r in replays:
        argv = ["solve", "--problem", r.problem, "--solver", r.solver,
                "--x0=" + ",".join(map(repr, r.start_point.tolist()))]
        code = main(argv)
        status, iterations = capsys.readouterr().out.split()[:2]
        assert (iterations, code) == (f"iterations={r.iterations}",
                                      0 if status == "status=converged" else 3), argv
        assert status == "status=converged" or not r.success, argv


def test_readme_cli_lines_parse():
    # a flag renamed in the parser but not in README fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("qlinesearch ")]
    assert len(lines) >= 5
    for argv in lines:
        try:
            cli._build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {shlex.join(argv)}")
