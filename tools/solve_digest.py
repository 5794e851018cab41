"""Run the three default-seed sweeps once; print the kernels they ran on,
their digests, the reference rows they move, and per-seed totals.

    python tools/solve_digest.py [SEED ...]

The sweeps are the fixed parts of the benchmark's workloads: ``fc``
(``fc-grid``), the default ``bench.run_fc_benchmark()``; ``suite``
(``suite-seeded``), ``bench.run_suite_benchmark`` at ``perfbench.workloads``'
``DEFAULT_SEED``, ``SUITE_RUNS_REQUIRED`` and ``SUITE_ATTEMPT_CAP`` (42, 10
and 12); ``sqp`` (``sqp-constrained``), ``solve_qsqp`` on the first
``SQP_CORE_INSTANCES`` of ``perfbench.workloads.make_sqp_instances``.

The first line names the kernels that the last bits depend on: the core
OpenBLAS picked for this CPU (``unknown`` when no library numpy bundles
names one) and numpy's dispatched SIMD targets that this CPU has.  The next
three lines give one SHA-256 per sweep, over each solve's status,
``x_final`` bytes, ``f_final``, iteration count, trace record fields and
objective, gradient and constraint evaluations: two trees whose solves agree
to the last bit on the same kernels print the same three lines.  Then each
sweep's contract rows (those ``tests/test_benchmark_contract.py`` checks)
are compared by key with ``perfbench/reference/<workload>.csv``: each moved
row as its key with its success and iterations, before -> after (``-`` for
a failed row), and its start if that moved too; then per workload the rows
moved, the success flips and the net change in iterations over rows that
succeed on both sides.

For each SEED, the suite sweep at that master seed gives its successful rows,
its longest run's iterations (to be checked against any iteration budget)
and its cells short of the quota, and the ``sqp-constrained`` instances
drawn from it (the first ``SQP_CORE_INSTANCES`` always from the default
seed) give converged / iterations / gradient evaluations of ``solve_qsqp``
and the instances that end at ``max_iterations``.

The library is imported from this tree's ``src``; ``perfbench``, whose
wrappers count the callbacks, is only read.  Every SEED is checked before
anything runs or prints: one that is not a whole number of at least 0 gives
one ``error:`` line on stderr and exit status 2.  Otherwise the exit status
is 1 if any reference row moved, else 0.
"""

import ctypes
import dataclasses
import hashlib
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import verify, workloads  # noqa: E402
from perfbench.spans import Meter  # noqa: E402
from qlinesearch import bench  # noqa: E402
from qlinesearch.errors import check_counts  # noqa: E402
from qlinesearch.sqp import solve_qsqp  # noqa: E402
from qlinesearch.usolve import STATUS_CONVERGED, STATUS_MAX_ITERATIONS  # noqa: E402


#: the OpenBLAS functions that return its core's name: that of numpy 2's
#: scipy-openblas wheels, then that of older wheels' openblas64_
CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_")


def openblas_core(libraries=None):
    """The core OpenBLAS picked for this CPU, named by the first of
    ``libraries`` (default: those bundled with numpy) that exports one of
    ``CORENAME_SYMBOLS``, or ``unknown``."""
    if libraries is None:
        here = Path(np.__file__).parent
        libraries = sorted([*(here.parent / "numpy.libs").glob("*openblas*"),
                            *(here / ".dylibs").glob("*openblas*")])
    for library in libraries:
        try:
            dll = ctypes.CDLL(str(library))
        except OSError:
            continue
        for symbol in CORENAME_SYMBOLS:
            corename = getattr(dll, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def simd_targets():
    """numpy's dispatched SIMD targets that this CPU has, in numpy's order."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def kernel_line():
    return f"kernels: openblas {openblas_core()}; numpy simd {' '.join(simd_targets()) or 'none'}"


def _add(digest, result, counts):
    """Fold one solve into ``digest``: floats by their bits, not their text."""
    digest.update(result.status.encode() + b"\0")
    digest.update(np.asarray(result.x_final, dtype=float).tobytes())
    digest.update(struct.pack("<dq", result.f_final, result.iterations))
    for record in result.trace:
        digest.update(repr(tuple(vars(record).values())).encode())
    digest.update(struct.pack("<3q", *counts))


def _bench_sweep(sweep, prefix, **kwargs):
    """(digest, contract rows keyed under ``prefix``) of ``sweep(**kwargs)``,
    a ``bench`` sweep whose ``wrap`` hands each solve counted callbacks and
    folds it into the digest."""
    digest = hashlib.sha256()

    def digested(solver, solve):
        def run(problem, x0, config):
            meter = Meter()
            counted = dataclasses.replace(
                problem, objective=workloads.counted_objective(problem.objective, meter),
                gradient=workloads.counted_gradient(problem.gradient, meter))
            result = solve(counted, x0, config)
            _add(digest, result, meter.snapshot())
            return result
        return run

    table = sweep(wrap=digested, **kwargs)
    return digest.hexdigest(), workloads._table_rows(table, prefix)


#: the suite-seeded sweep's protocol, but for its master seed
SUITE = dict(runs_required=workloads.SUITE_RUNS_REQUIRED, attempt_cap=workloads.SUITE_ATTEMPT_CAP)


def _sqp_results(seed, count):
    """(instance, result, meter of its callbacks) for each SQP instance."""
    for inst in workloads.make_sqp_instances(seed, count=count):
        meter = Meter()
        yield inst, solve_qsqp(inst.problem(meter), config=workloads.SQP_CONFIG), meter


def _sqp_sweep(count):
    """(digest, contract rows) of the first ``count`` default-seed instances."""
    digest, rows = hashlib.sha256(), []
    for inst, result, meter in _sqp_results(workloads.DEFAULT_SEED, count):
        _add(digest, result, meter.snapshot())
        rows.append(verify.contract_row(inst.key, inst.x0, result.status == STATUS_CONVERGED,
                                        result.iterations))
    return digest.hexdigest(), rows


#: each workload's default-seed sweep: its digest's name, and the run that
#: returns (digest, contract rows)
SWEEPS = {
    "fc-grid": ("fc", lambda: _bench_sweep(bench.run_fc_benchmark, "grid")),
    "suite-seeded": ("suite", lambda: _bench_sweep(
        bench.run_suite_benchmark, f"0:{workloads.DEFAULT_SEED}",
        master_seed=workloads.DEFAULT_SEED, **SUITE)),
    "sqp-constrained": ("sqp", lambda: _sqp_sweep(workloads.SQP_CORE_INSTANCES)),
}


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
    for inst, result, meter in _sqp_results(seed, count):
        converged += result.status == STATUS_CONVERGED
        iterations += result.iterations
        gevals += meter.gevals
        if result.status == STATUS_MAX_ITERATIONS:
            capped.append(inst.key)
    return converged, iterations, gevals, capped


def suite_totals(seed, suite=None):
    """(successful rows, rows, the longest run's iterations, short cells as
    "problem/solver successes") of the suite sweep at master seed ``seed``."""
    table = bench.run_suite_benchmark(suite=suite, master_seed=seed, **SUITE)
    short = [f"{p}/{s} {k}" for p, s, k in table.short_cells(workloads.SUITE_RUNS_REQUIRED)]
    return (sum(r.success for r in table.rows), len(table.rows),
            max(r.iterations for r in table.rows), short)


def _seed(text):
    """``text`` as a master seed, or ValueError by the package's count rule."""
    try:
        seed = int(text)
    except ValueError:
        seed = text
    check_counts(0, SEED=seed)
    return seed


def main(argv):
    try:
        seeds = [_seed(a) for a in argv]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(kernel_line(), flush=True)
    rows = {}
    for name, (part, sweep) in SWEEPS.items():
        digest, rows[name] = sweep()
        print(f"{part} {digest}", flush=True)
    moved = False
    for name, got in rows.items():
        reference = verify.load_reference(name)
        moved = moved or bool(moved_rows(got, reference))
        print("\n".join(diff_lines(name, got, reference)))
    for seed in seeds:
        successes, total, longest, short = suite_totals(seed)
        print(f"suite seed {seed}: {successes} of {total} rows succeed; "
              f"longest run {longest} iterations; short cells: {', '.join(short) or 'none'}")
        converged, iterations, gevals, capped = sqp_totals(seed)
        print(f"sqp seed {seed}: {converged} / {iterations} / {gevals} "
              f"(converged / iterations / gevals of {workloads.SQP_INSTANCES}); "
              f"at max_iterations: {', '.join(capped) or 'none'}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
