"""Command-line interface: solve single problems, run benchmarks, build profiles.

A run is named as in the runs CSV: problem ``fc_c0.5``, solver ``bfgs`` or
``q<gamma>``.  Exit codes: 0 on success, 2 on invalid arguments (every rule
the library's, checked before its first solve; among them an ``--in`` file
that does not read as a runs CSV) and on an output that cannot be written, 3
when runs failed or cells stayed unsolved (partial output is still written).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import fields

from . import bench
from .problems import get_problem
from .usolve import DEFAULT_SCHEDULE, STATUS_CONVERGED, SolverConfig


def _parse_list(text):
    """An argparse type: the comma-separated items, empty ones kept for ``main`` to reject."""
    return text.split(",")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qlinesearch",
        description="q-derivative Newton-like line search: solvers and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    solving = argparse.ArgumentParser(add_help=False)  # the options of every command that solves
    solving.add_argument("--q0", type=float, default=DEFAULT_SCHEDULE.q0)
    solving.add_argument("--eps", dest="grad_tolerance", type=float, metavar="EPS")

    p_solve = sub.add_parser("solve", parents=[solving], help="run one solver on one problem")
    p_solve.add_argument("--problem", required=True, help="registry name (e.g. sphere, fc_c0.5)")
    p_solve.add_argument("--x0", required=True, type=_parse_list, help="x1,x2,...")
    p_solve.add_argument("--solver", required=True, help="bfgs or q<gamma> (e.g. q2)")
    p_solve.add_argument("--max-iter", dest="max_iterations", type=int, metavar="MAX_ITER")
    p_solve.add_argument("--trace", default=None, help="write per-iteration CSV here")
    p_solve.set_defaults(handler=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark sweep")
    bench_sub = p_bench.add_subparsers(dest="bench_kind", required=True)

    p_fc = bench_sub.add_parser("fc", parents=[solving], help="fc family sweep (fixed starts)")
    p_fc.add_argument("--solvers", type=_parse_list, default=bench.SOLVERS, help="bfgs,q2,...")
    p_fc.add_argument("--out", default=None, help="summary CSV path")
    p_fc.add_argument("--runs-out", default=None, help="optional per-run CSV path")
    p_fc.set_defaults(handler=_cmd_bench_fc)

    p_suite = bench_sub.add_parser("suite", parents=[solving], help="randomized test-set sweep")
    p_suite.add_argument("--seed", type=int, default=bench.SUITE_SEED)
    p_suite.add_argument("--runs", type=int, default=bench.SUITE_RUNS_REQUIRED)
    p_suite.add_argument("--attempt-cap", type=int, default=bench.SUITE_ATTEMPT_CAP)
    p_suite.add_argument("--time-cap", dest="time_cap_seconds", type=float, metavar="TIME_CAP")
    p_suite.add_argument("--max-iter", dest="max_iterations", type=int, metavar="MAX_ITER",
                         help="per-attempt iteration budget")
    p_suite.add_argument("--out", default=None, help="per-run CSV path")
    p_suite.set_defaults(handler=_cmd_bench_suite)

    p_prof = sub.add_parser("profile", help="Dolan-More profile from a runs CSV")
    p_prof.add_argument("--metric", choices=bench.METRIC_FIELDS, required=True)
    p_prof.add_argument("--in", dest="input", required=True)
    p_prof.add_argument("--out", required=True)
    p_prof.add_argument("--svg", default=None)
    p_prof.set_defaults(handler=_cmd_profile)

    return parser


def _cmd_solve(args):
    problem, config = bench.sweep_rules(args.problem, args.config)
    result = bench.solver_call(args.solver, args.q0)(problem, args.x0, config)
    if args.trace:
        bench.emit(result.trace, "csv", args.trace)
    xs = ", ".join(f"{v:.10g}" for v in result.x_final)
    print(f"status={result.status} iterations={result.iterations} "
          f"f={result.f_final:.10g} x=[{xs}] elapsed={result.elapsed_seconds:.3f}s")
    return 0 if result.status == STATUS_CONVERGED else 3


def _cmd_bench_fc(args):
    table = bench.run_fc_benchmark(q0=args.q0, solvers=args.solvers, config=args.config)
    summary = bench.fc_summary(table)
    if args.out:
        bench.emit(summary, "csv", args.out)
    if args.runs_out:
        bench.emit(table, "csv", args.runs_out)
    for row in summary:
        iters = " ".join(f"{s}={v:.2f}" for s, v in row.iterations.items())
        print(f"c={row.c:g}: {iters}")
    failures = sum(1 for r in table.rows if not r.success)
    if failures:
        print(f"{failures} failed runs", file=sys.stderr)
    return 3 if failures else 0


def _cmd_bench_suite(args):
    table = bench.run_suite_benchmark(master_seed=args.seed, runs_required=args.runs,
                                      attempt_cap=args.attempt_cap, config=args.config, q0=args.q0)
    if args.out:
        bench.emit(table, "csv", args.out)
    short = table.short_cells(args.runs)
    for prob, solver, good in short:
        print(f"unsolved cell: {prob}/{solver} ({good}/{args.runs})", file=sys.stderr)
    print(f"{len(table.rows)} runs over {len(table.problems())} problems x "
          f"{len(table.solvers())} solvers; {len(short)} unsolved cells")
    return 3 if short else 0


def _cmd_profile(args):
    curves = bench.performance_profile(args.table, metric=args.metric)
    bench.emit(curves, "csv", args.out)
    if args.svg:
        bench.emit(curves, "svg", args.svg)
    for c in curves:
        at1 = next((f for t, f in c.points if t == 1.0), 0.0)
        final = c.points[-1][1] if c.points else 0.0
        print(f"{c.solver}: P(1)={at1:.3f} final={final:.3f}")
    return 0


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # "--x0 -1,2" as "--x0=-1,2", not option "-1,2"
        if argv[i - 1].startswith("--") and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser().parse_args(argv)
    try:  # the library's own checks are the only rule for a valid value
        args.config = SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)
                                      if getattr(args, f.name, None) is not None})
        if "problem" in args:
            args.problem = get_problem(args.problem)
            args.x0 = [float(v) for v in args.x0]
        for name in ("trace", "out", "runs_out", "svg"):  # the output paths, before any run
            path = getattr(args, name, None)
            if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
                raise ValueError(f"cannot write {path}: not a file in an existing directory")
        if "input" in args:
            args.table = bench.load_runs_csv(args.input)
        return args.handler(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    raise SystemExit(main())
