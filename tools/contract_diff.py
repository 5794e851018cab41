"""Print which benchmark reference rows this tree moves, and SQP totals per seed.

    python tools/contract_diff.py [SEED ...]

For each workload it rebuilds the contract rows of the fixed, default-seed
part (the rows ``tests/test_benchmark_contract.py`` checks) and compares
them by key with ``perfbench/reference/<workload>.csv``.  Each moved row is
printed as its key with its success and iterations, before -> after (a
failed row has no iterations, ``-``), and with its start if that moved
too.  A summary line per workload then gives the rows moved, the success
flips and the net change in iterations over the rows that succeed on both
sides.

For each SEED it then prints two lines.  The suite sweep at that master
seed (the ``suite-seeded`` quota and attempt cap) gives its successful
rows and its cells short of the quota, each with its successes.  The
``sqp-constrained`` instances drawn from that seed (the first
``SQP_CORE_INSTANCES`` always come from the default seed) give the totals
of ``solve_qsqp``: converged / iterations / gradient evaluations, and the
keys of the instances that end at ``max_iterations``.

The library is imported from this tree's ``src``; ``perfbench`` is only
read, and nothing is written.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import verify, workloads  # noqa: E402
from perfbench.spans import Meter  # noqa: E402
from qlinesearch import bench  # noqa: E402
from qlinesearch.sqp import solve_qsqp  # noqa: E402
from qlinesearch.usolve import STATUS_CONVERGED, STATUS_MAX_ITERATIONS  # noqa: E402


def _sqp_results(seed, count):
    """(instance, result, gradient evaluations) for each SQP instance."""
    for inst in workloads.make_sqp_instances(seed, count=count):
        meter = Meter()
        result = solve_qsqp(inst.problem(meter), config=workloads.SQP_CONFIG)
        yield inst, result, meter.gevals


def _fc_grid_rows():
    return workloads._table_rows(bench.run_fc_benchmark(), "grid")


def _suite_table(seed, suite=None):
    return bench.run_suite_benchmark(suite=suite, master_seed=seed,
                                     runs_required=workloads.SUITE_RUNS_REQUIRED,
                                     attempt_cap=workloads.SUITE_ATTEMPT_CAP)


def _suite_seeded_rows():
    return workloads._table_rows(_suite_table(workloads.DEFAULT_SEED),
                                 f"0:{workloads.DEFAULT_SEED}")


def _sqp_constrained_rows():
    return [verify.contract_row(inst.key, inst.x0, result.status == STATUS_CONVERGED,
                                result.iterations)
            for inst, result, _ in _sqp_results(workloads.DEFAULT_SEED,
                                                workloads.SQP_CORE_INSTANCES)]


BUILDERS = {"fc-grid": _fc_grid_rows, "suite-seeded": _suite_seeded_rows,
            "sqp-constrained": _sqp_constrained_rows}


def moved_rows(rows, reference):
    """(key, before, after) for each key whose row differs, in reference
    order and then this tree's; a row missing on one side is None there."""
    got = {r.key: r for r in rows}
    want = {r.key: r for r in reference}
    keys = list(want) + [k for k in got if k not in want]
    return [(k, want.get(k), got.get(k)) for k in keys if want.get(k) != got.get(k)]


def _cell(row):
    if row is None:
        return "missing"
    iterations = "-" if row.iterations is None else row.iterations
    return f"{str(row.success).lower()} {iterations}"


def diff_lines(name, rows, reference):
    """The moved rows of one workload, then its summary line."""
    moved = moved_rows(rows, reference)
    lines = [f"  {key}: {_cell(before)} -> {_cell(after)}"
             + (f", start {before.start} -> {after.start}"
                if before and after and before.start != after.start else "")
             for key, before, after in moved]
    flips = sum(1 for _, b, a in moved if b is None or a is None or b.success != a.success)
    net = sum(a.iterations - b.iterations for _, b, a in moved
              if b is not None and a is not None and b.success and a.success)
    lines.append(f"{name}: {len(moved)} of {len(reference)} rows moved, "
                 f"{flips} success flips, net iterations {net:+d}")
    return lines


def sqp_totals(seed, count=workloads.SQP_INSTANCES):
    """(converged, iterations, gradient evaluations, keys at max_iterations)."""
    converged = iterations = gevals = 0
    capped = []
    for inst, result, g in _sqp_results(seed, count):
        converged += result.status == STATUS_CONVERGED
        iterations += result.iterations
        gevals += g
        if result.status == STATUS_MAX_ITERATIONS:
            capped.append(inst.key)
    return converged, iterations, gevals, capped


def suite_totals(seed, suite=None):
    """(successful rows, rows, short cells as "problem/solver successes")
    of the suite sweep at master seed ``seed``."""
    table = _suite_table(seed, suite)
    short = [f"{p}/{s} {k}" for p, s, k in table.short_cells(workloads.SUITE_RUNS_REQUIRED)]
    return sum(r.success for r in table.rows), len(table.rows), short


def main(argv):
    seeds = [int(a) for a in argv]
    for name, build in BUILDERS.items():
        print("\n".join(diff_lines(name, build(), verify.load_reference(name))))
    for seed in seeds:
        successes, rows, short = suite_totals(seed)
        print(f"suite seed {seed}: {successes} of {rows} rows succeed; "
              f"short cells: {', '.join(short) or 'none'}")
        converged, iterations, gevals, capped = sqp_totals(seed)
        print(f"sqp seed {seed}: {converged} / {iterations} / {gevals} "
              f"(converged / iterations / gevals of {workloads.SQP_INSTANCES}); "
              f"at max_iterations: {', '.join(capped) or 'none'}")


if __name__ == "__main__":
    main(sys.argv[1:])
