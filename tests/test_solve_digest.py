"""tools/solve_digest.py names its kernels, digests the sweeps repeatably,
reports moved reference rows and per-seed totals right, and rejects a bad
SEED before any sweep runs."""

import ctypes.util
import dataclasses
import hashlib
import re

import pytest

from qlinesearch import bench
from qlinesearch.problems import standard_suite


@pytest.fixture
def tool(load_tool):
    return load_tool("solve_digest")


def test_kernel_line_names_the_blas_core_and_the_simd_targets(tool, tmp_path):
    assert re.fullmatch(r"kernels: openblas \S+; numpy simd( \w+)+", tool.kernel_line())
    # a library without a core-name symbol, and one that does not load
    libraries = [ctypes.util.find_library("c"), tmp_path / "missing.so"]
    assert tool.openblas_core(libraries) == "unknown"


def test_sweep_digest_is_repeatable(tool):
    def sweep():
        return tool._bench_sweep(bench.run_fc_benchmark, "grid", c_values=(0.5,), y_values=(0.9,))
    (first, rows), (second, _) = sweep(), sweep()
    assert first == second and len(first) == 64
    assert first != hashlib.sha256().hexdigest()  # the sweep's solves were folded in
    assert [r.key for r in rows] == [f"grid:fc_c0.5:{s}:0" for s in bench.SOLVERS]


def test_sqp_digest_is_repeatable(tool):
    # the SQP part reads perfbench.workloads' instances, config and counted problems
    (first, rows), (second, _) = tool._sqp_sweep(3), tool._sqp_sweep(3)
    assert first == second and len(first) == 64
    assert first != hashlib.sha256().hexdigest()  # the instances' solves were folded in
    assert rows == tool.verify.load_reference("sqp-constrained")[:3]


def test_moved_rows_give_before_and_after(tool):
    rows = tool.workloads._table_rows(
        bench.run_fc_benchmark(c_values=(0.5,), y_values=bench.DEFAULT_Y_VALUES[:1]), "grid")
    keys = {r.key for r in rows}
    reference = [r for r in tool.verify.load_reference("fc-grid") if r.key in keys]
    first, second, third, fourth = rows
    moved = [dataclasses.replace(first, iterations=first.iterations + 3),
             dataclasses.replace(second, success=False, iterations=None),
             dataclasses.replace(third, start="0.5;0.2")]
    lines = tool.diff_lines("fc-grid", moved, reference)
    assert lines == [
        f"  {first.key}: true {first.iterations} -> true {first.iterations + 3}",
        f"  {second.key}: true {second.iterations} -> false -",
        f"  {third.key}: true {third.iterations} -> true {third.iterations}, "
        f"start 0.5;0.1 -> 0.5;0.2",
        f"  {fourth.key}: true {fourth.iterations} -> missing",
        "fc-grid: 4 of 4 rows moved, 2 success flips, net iterations +3"]


def test_sqp_totals_over_a_slice(tool):
    # the first instances come from the default seed, so the reference covers them
    converged, iterations, gevals, capped = tool.sqp_totals(1, count=3)
    reference = tool.verify.load_reference("sqp-constrained")[:3]
    assert all(r.success for r in reference) and capped == []
    assert converged == 3 and iterations == sum(r.iterations for r in reference)
    assert gevals > iterations


def test_suite_totals_over_a_slice(tool):
    # at the default seed the stored reference holds the same sweep's rows;
    # all four of bohachevsky's cells stay short there
    suite = [p for p in standard_suite() if p.name == "bohachevsky"]
    successes, rows, longest, short = tool.suite_totals(tool.workloads.DEFAULT_SEED, suite=suite)
    reference = [r for r in tool.verify.load_reference("suite-seeded")
                 if ":bohachevsky:" in r.key]
    assert (successes, rows) == (sum(r.success for r in reference), len(reference)) == (19, 48)
    assert longest == 14  # a failed run; the longest successful one takes 8
    assert short == ["bohachevsky/bfgs 4", "bohachevsky/q1 4", "bohachevsky/q2 5",
                     "bohachevsky/q3 6"]


@pytest.mark.parametrize("iterations, status, summary", [
    (7, 0, "fc-grid: 0 of 1 rows moved, 0 success flips, net iterations +0"),
    (8, 1, "fc-grid: 1 of 1 rows moved, 0 success flips, net iterations +1"),
], ids=["still", "moved"])
def test_exit_status_is_1_when_a_reference_row_moved(tool, monkeypatch, capsys, iterations,
                                                      status, summary):
    # one stubbed sweep against a stubbed reference, so no sweep runs
    reference = [tool.verify.contract_row("grid:fc_c0.5:bfgs:0", (0.5, 0.1), True, 7)]
    rows = [tool.verify.contract_row("grid:fc_c0.5:bfgs:0", (0.5, 0.1), True, iterations)]
    monkeypatch.setattr(tool, "SWEEPS", {"fc-grid": ("fc", lambda: ("0" * 64, rows))})
    monkeypatch.setattr(tool.verify, "load_reference", lambda name: reference)
    assert tool.main([]) == status
    out = capsys.readouterr().out.splitlines()
    assert out[0] == tool.kernel_line() and out[1] == "fc " + "0" * 64
    assert out[-1] == summary


@pytest.mark.parametrize("seed", ["x", "-1", "1.5"])
def test_a_bad_seed_exits_2_before_any_sweep(tool, monkeypatch, capsys, seed):
    # "x" used to end in a traceback, and "-1" to fail after all three
    # sweeps, both with the status of a moved row
    def unrun():
        raise AssertionError("a sweep ran")
    monkeypatch.setattr(tool, "SWEEPS", {"fc-grid": ("fc", unrun)})
    assert tool.main(["1", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: SEED must be a whole number of at least 0, got ")
