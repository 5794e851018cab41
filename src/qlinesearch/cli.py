"""Command-line interface: solve single problems, run benchmarks, build profiles.

Exit codes: 0 on success, 2 on invalid arguments (argparse convention), 3
when runs failed or cells stayed unsolved (partial output is still written).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench
from .problems import get_problem
from .qcalc import QSchedule
from .usolve import STATUS_CONVERGED, SolverConfig, solve_bfgs, solve_qls


def _parse_reals(text):
    return np.array([float(v) for v in text.split(",") if v.strip() != ""])


def _parse_ints(text):
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qlinesearch",
        description="q-derivative Newton-like line search: solvers and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on one problem")
    p_solve.add_argument("--problem", required=True,
                         help="registry name (e.g. sphere, branin, fc)")
    p_solve.add_argument("--c", type=float, default=None,
                         help="parameter for the fc family")
    p_solve.add_argument("--x0", required=True, type=_parse_reals,
                         help="comma-separated start point")
    p_solve.add_argument("--method", choices=("qls", "bfgs"), required=True)
    p_solve.add_argument("--gamma", type=int, default=1)
    p_solve.add_argument("--q0", type=float, default=0.9)
    p_solve.add_argument("--eps", type=float, default=1e-5)
    p_solve.add_argument("--max-iter", type=int, default=10_000)
    p_solve.add_argument("--trace", default=None, help="write per-iteration CSV here")
    p_solve.set_defaults(handler=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark sweep")
    bench_sub = p_bench.add_subparsers(dest="bench_kind", required=True)

    p_fc = bench_sub.add_parser("fc", help="fc family sweep (deterministic starts)")
    p_fc.add_argument("--q0", type=float, default=0.9)
    p_fc.add_argument("--gammas", type=_parse_ints, default=[1, 2, 3])
    p_fc.add_argument("--eps", type=float, default=1e-5)
    p_fc.add_argument("--out", default=None, help="summary CSV path")
    p_fc.add_argument("--runs-out", default=None, help="optional per-run CSV path")
    p_fc.set_defaults(handler=_cmd_bench_fc)

    p_suite = bench_sub.add_parser("suite", help="randomized test-set sweep")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--runs", type=int, default=10)
    p_suite.add_argument("--attempt-cap", type=int, default=200)
    p_suite.add_argument("--eps", type=float, default=1e-5)
    p_suite.add_argument("--time-cap", type=float, default=100.0)
    p_suite.add_argument("--max-iter", type=int, default=None,
                         help="per-attempt iteration budget (default: bench module default)")
    p_suite.add_argument("--q0", type=float, default=0.9)
    p_suite.add_argument("--out", default=None, help="per-run CSV path")
    p_suite.set_defaults(handler=_cmd_bench_suite)

    p_prof = sub.add_parser("profile", help="Dolan-More profile from a runs CSV")
    p_prof.add_argument("--metric", choices=("iterations", "time"), required=True)
    p_prof.add_argument("--in", dest="input", required=True)
    p_prof.add_argument("--out", required=True)
    p_prof.add_argument("--svg", default=None)
    p_prof.set_defaults(handler=_cmd_profile)

    return parser


def _write_trace(result, path):
    lines = ["k,f_value,grad_norm,alpha,q,cos_theta,condition_number,fallback_count"]
    for t in result.trace:
        qv = "" if t.q_k is None else repr(float(t.q_k))
        lines.append(f"{t.k},{t.f_value!r},{t.grad_norm!r},{t.alpha!r},{qv},"
                     f"{t.cos_theta!r},{t.condition_number!r},{t.fallback_count}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_solve(args):
    try:
        problem = get_problem(args.problem, c=args.c)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.x0.shape[0] != problem.dimension:
        print(f"error: {problem.name} expects dimension {problem.dimension}, "
              f"got x0 of length {args.x0.shape[0]}", file=sys.stderr)
        return 2
    config = SolverConfig(grad_tolerance=args.eps, max_iterations=args.max_iter)
    if args.method == "qls":
        result = solve_qls(problem, args.x0, config=config,
                           schedule=QSchedule(args.q0, args.gamma))
    else:
        result = solve_bfgs(problem, args.x0, config=config)
    if args.trace:
        _write_trace(result, args.trace)
    xs = ", ".join(f"{v:.10g}" for v in result.x_final)
    print(f"status={result.status} iterations={result.iterations} "
          f"f={result.f_final:.10g} x=[{xs}] elapsed={result.elapsed_seconds:.3f}s")
    return 0 if result.status == STATUS_CONVERGED else 3


def _cmd_bench_fc(args):
    config = SolverConfig(grad_tolerance=args.eps)
    table = bench.run_fc_benchmark(q0=args.q0, gammas=tuple(args.gammas), config=config)
    summary = bench.fc_summary(table)
    for row in summary:
        iters = " ".join(f"{s}={v:.2f}" for s, v in row.iterations.items())
        print(f"c={row.c:g}: {iters}")
    if args.out:
        bench.emit(summary, "csv", args.out)
    if args.runs_out:
        bench.emit(table, "csv", args.runs_out)
    failures = sum(1 for r in table.rows if not r.success)
    if failures:
        print(f"{failures} failed runs", file=sys.stderr)
        return 3
    return 0


def _cmd_bench_suite(args):
    max_iter = args.max_iter if args.max_iter is not None else bench.SUITE_MAX_ITERATIONS
    config = SolverConfig(grad_tolerance=args.eps, time_cap_seconds=args.time_cap,
                          max_iterations=max_iter)
    table = bench.run_suite_benchmark(master_seed=args.seed, runs_required=args.runs,
                                      attempt_cap=args.attempt_cap, config=config,
                                      q0=args.q0)
    unsolved = 0
    for prob in table.problems():
        for solver in table.solvers():
            good = sum(1 for r in table.cell(prob, solver) if r.success)
            if good < args.runs:
                unsolved += 1
                print(f"unsolved cell: {prob}/{solver} ({good}/{args.runs})",
                      file=sys.stderr)
    if args.out:
        bench.emit(table, "csv", args.out)
    print(f"{len(table.rows)} runs over {len(table.problems())} problems x "
          f"{len(table.solvers())} solvers; {unsolved} unsolved cells")
    return 3 if unsolved else 0


def _cmd_profile(args):
    table = bench.load_runs_csv(args.input)
    curves = bench.performance_profile(table, metric=args.metric)
    bench.emit(curves, "csv", args.out)
    if args.svg:
        bench.emit(curves, "svg", args.svg)
    for c in curves:
        at1 = next((f for t, f in c.points if t == 1.0), 0.0)
        final = c.points[-1][1] if c.points else 0.0
        print(f"{c.solver}: P(1)={at1:.3f} final={final:.3f}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    return args.handler(args)


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
