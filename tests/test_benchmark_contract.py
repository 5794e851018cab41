"""The benchmark's reproducibility contract, checked on every test run.

Each workload of ``perfbench`` has a fixed part, its inputs at the default
seed, whose contract rows (start point, success and iteration count per run)
are stored under ``perfbench/reference``.  These tests rebuild those rows
through ``perfbench.workloads`` and ``perfbench.verify`` and compare them
with the stored files, which they only read.  A change that moves one
iterate of one of those runs fails here.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import spans, verify, workloads  # noqa: E402
from qlinesearch import bench  # noqa: E402
from qlinesearch.sqp import solve_qsqp  # noqa: E402
from qlinesearch.usolve import STATUS_CONVERGED  # noqa: E402


def fc_grid_rows():
    return workloads._table_rows(bench.run_fc_benchmark(), "grid")


def suite_seeded_rows():
    table = bench.run_suite_benchmark(master_seed=workloads.DEFAULT_SEED,
                                      runs_required=workloads.SUITE_RUNS_REQUIRED,
                                      attempt_cap=workloads.SUITE_ATTEMPT_CAP)
    return workloads._table_rows(table, f"0:{workloads.DEFAULT_SEED}")


def sqp_constrained_rows():
    meter = spans.Meter()
    rows = []
    for inst in workloads.make_sqp_instances(workloads.DEFAULT_SEED,
                                             count=workloads.SQP_CORE_INSTANCES):
        result = solve_qsqp(inst.problem(meter), config=workloads.SQP_CONFIG)
        rows.append(verify.contract_row(inst.key, inst.x0,
                                        result.status == STATUS_CONVERGED, result.iterations))
    return rows


BUILDERS = {"fc-grid": fc_grid_rows, "suite-seeded": suite_seeded_rows,
            "sqp-constrained": sqp_constrained_rows}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_default_seed_rows_match_reference(name):
    rows = BUILDERS[name]()
    expected = verify.load_reference(name)
    moved = [(got, want) for got, want in zip(rows, expected) if got != want]
    assert len(rows) == len(expected), f"{len(rows)} rows, reference/{name}.csv has {len(expected)}"
    assert not moved, f"{len(moved)} rows differ from reference/{name}.csv, first: {moved[0]}"
