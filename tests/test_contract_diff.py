"""tools/contract_diff.py, the report of moved reference rows, reads them right."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from qlinesearch import bench
from qlinesearch.problems import standard_suite

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "contract_diff.py"


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its tree's paths
    spec = importlib.util.spec_from_file_location("contract_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fc_slice_matches_its_reference_rows(tool):
    rows = tool.workloads._table_rows(
        bench.run_fc_benchmark(c_values=(0.5,), y_values=bench.DEFAULT_Y_VALUES[:2]), "grid")
    keys = {r.key for r in rows}
    reference = [r for r in tool.verify.load_reference("fc-grid") if r.key in keys]
    assert len(rows) == len(reference) == 8
    assert tool.diff_lines("fc-grid", rows, reference) == [
        "fc-grid: 0 of 8 rows moved, 0 success flips, net iterations +0"]


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
    successes, rows, short = tool.suite_totals(tool.workloads.DEFAULT_SEED, suite=suite)
    reference = [r for r in tool.verify.load_reference("suite-seeded")
                 if ":bohachevsky:" in r.key]
    assert (successes, rows) == (sum(r.success for r in reference), len(reference)) == (19, 48)
    assert short == ["bohachevsky/bfgs 4", "bohachevsky/q1 4", "bohachevsky/q2 5",
                     "bohachevsky/q3 6"]
