"""The three seeded workloads and the passes that run them.

Every workload is single-process and single-threaded and is built from its
seed.  Each has a fixed part, the default seed's inputs, which the stored
reference covers, and a part drawn from the seed.  The fixed part lets every
run check the reproducibility contract without an extra pass, and it damps
how much the seed's luck moves the figures.  A pass runs the whole input set
once through the library's public entry points, timing each solve around
the call.  User callbacks reach the library through counting wrappers, so
evaluation counts are exact and do not depend on the hardware.

* ``fc-grid``: the published 10 x 10 fc starts plus seeded extra starts on
  the same ten lines; BFGS, q1, q2, q3; n = 2.  The q-Hessian assembly and
  the factorization do most of the work and the line search mostly accepts
  the unit step.
* ``suite-seeded``: the ``bench suite`` protocol on all 15 problems and four
  solvers at master seeds DEFAULT_SEED and ``seed``, each sweep followed by
  the runs CSV and a Dolan-More profile.  Schwefel's failing q-solver
  attempts make line-search trials and objective evaluations dominate.
* ``sqp-constrained``: suite objectives under generated linear equalities,
  a ball inequality, or both, all feasible by construction; the only
  traffic for ``sqp`` and for indefinite KKT factorizations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from qlinesearch import bench
from qlinesearch.problems import standard_suite
from qlinesearch.sqp import ConstrainedProblem, solve_qsqp
from qlinesearch.usolve import STATUS_CONVERGED, SolveResult, SolverConfig

from . import verify
from .layers import BFGS_SOLVE, QLS_SOLVE, SQP_SOLVE

DEFAULT_SEED = 42
GRAD_TOLERANCE = SolverConfig().grad_tolerance

FC_EXTRA_PER_LINE = 15          # seeded extra y per line x = c
FC_Y_RANGE = (0.1, 1.9)         # the published y values span this range

SUITE_RUNS_REQUIRED = 10        # the published quota
SUITE_ATTEMPT_CAP = 12          # shrunk from 200 so a sweep takes seconds

SQP_INSTANCES = 600
SQP_CORE_INSTANCES = 200        # drawn from DEFAULT_SEED; the stored reference
SQP_KINDS = ("eq", "ball", "eq+ball")
SQP_MAX_EQUALITIES = 2
SQP_BALL_MARGIN = 0.25          # radius slack beyond the feasible anchor, in box sides
SQP_CONFIG = SolverConfig(max_iterations=bench.SUITE_MAX_ITERATIONS)


# ---------------------------------------------------------------------------
# counting wrappers
# ---------------------------------------------------------------------------

def _call(fn, x, recorder, name):
    if recorder is None:
        return fn(x)
    span = recorder.begin(name)
    try:
        return fn(x)
    finally:
        recorder.end(span)


def counted_objective(fn, meter):
    def objective(x):
        meter.fevals += 1
        return _call(fn, x, meter.recorder, "problems.objective")
    return objective


def counted_gradient(fn, meter):
    def gradient(x):
        meter.gevals += 1
        return _call(fn, x, meter.recorder, "problems.gradient")
    return gradient


def counted_constraint(fn, meter):
    def constraint(x):
        meter.cevals += 1
        return _call(fn, x, meter.recorder, "problems.constraints")
    return constraint


# ---------------------------------------------------------------------------
# pass bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class SolveRecord:
    family: str                 # "qls", "bfgs" or "sqp"
    seconds: float
    iterations: int
    failure: Optional[str]      # why the solve is a failed operation, or None


@dataclass
class PassResult:
    wall: float
    solves: list                # SolveRecord, in run order
    rows: list                  # verify.ContractRow, in run order
    reference_rows: list        # the rows the stored reference covers
    successes: int
    evals: tuple                # (fevals, gevals, cevals) made during the pass
    emit_seconds: list
    profile_seconds: list


def timed_solve(meter, log, family, span, subject, dimension, x0, call):
    """Run ``call()``, one solve, timed around the call and under a root span
    when tracing, and log it.  A solve that raises is logged with its error
    and returns an error result, so the sweep goes on."""
    recorder = meter.recorder
    if recorder is not None:
        recorder.dim = dimension
        root = recorder.begin(span)
    error = None
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failed operation, reported by the harness
        error = f"{type(exc).__name__}: {exc}"
        result = SolveResult("benchmark_error", np.asarray(x0, dtype=float).copy(),
                             float("nan"), 0, 0.0, [])
    seconds = time.perf_counter() - t0
    if recorder is not None:
        recorder.end(root)
        recorder.counts[span.split(".")[0] + ".iterations"] += result.iterations
    log.append((family, seconds, result, subject, error))
    return result


@contextlib.contextmanager
def timed_bench_solvers(meter, log):
    """Route ``bench``'s calls to solve_qls/solve_bfgs through a wrapper that
    hands the solver counted callbacks and logs the timed solve."""
    originals = (bench.solve_qls, bench.solve_bfgs)

    def wrap(fn, family, span):
        def solve(problem, x0, config=None, **kwargs):
            counted = dataclasses.replace(
                problem, objective=counted_objective(problem.objective, meter),
                gradient=counted_gradient(problem.gradient, meter))
            return timed_solve(meter, log, family, span, problem, problem.dimension, x0,
                               lambda: fn(counted, x0, config=config, **kwargs))
        return solve

    bench.solve_qls = wrap(originals[0], "qls", QLS_SOLVE)
    bench.solve_bfgs = wrap(originals[1], "bfgs", BFGS_SOLVE)
    try:
        yield
    finally:
        bench.solve_qls, bench.solve_bfgs = originals


def _timed_emit(obj, path, seconds):
    t0 = time.perf_counter()
    bench.emit(obj, "csv", path)
    seconds.append(time.perf_counter() - t0)


def _table_rows(table, prefix):
    return [verify.contract_row(f"{prefix}:{r.problem}:{r.solver}:{r.run_index}",
                                r.start_point, r.success, r.iterations)
            for r in table.rows]


class Workload:
    """A seeded input set.  Part of it is fixed (the default seed's inputs,
    which the stored reference covers) and the rest comes from the seed."""

    name = ""

    def __init__(self, seed, meter, out_dir):
        self.seed = int(seed)
        self.meter = meter
        self.out_dir = out_dir

    def out(self, filename):
        return os.path.join(self.out_dir, f"{self.name}-{filename}")

    def recheck(self, subject, result):
        """None if the solve passes its independent recheck, else the reason."""
        return verify.check_unconstrained(subject, result, GRAD_TOLERANCE)

    def run_pass(self):
        """Run every input once; rechecks happen after the timed region."""
        log, emit_s, profile_s = [], [], []
        before = self.meter.snapshot()
        t0 = time.perf_counter()
        rows, reference_rows, successes = self._run(log, emit_s, profile_s)
        wall = time.perf_counter() - t0
        evals = tuple(b - a for a, b in zip(before, self.meter.snapshot()))
        solves = [SolveRecord(family, seconds, result.iterations,
                              error if error is not None else self.recheck(subject, result))
                  for family, seconds, result, subject, error in log]
        return PassResult(wall, solves, rows, reference_rows, successes, evals,
                          emit_s, profile_s)


class FcGrid(Workload):
    """The published grid (fixed, and the reference) plus seeded extra y."""

    name = "fc-grid"

    def __init__(self, seed, meter, out_dir):
        super().__init__(seed, meter, out_dir)
        rng = np.random.default_rng(self.seed)
        self.extra_y = tuple(float(y) for y in rng.uniform(*FC_Y_RANGE, FC_EXTRA_PER_LINE))

    def warm_up(self):
        bench.run_fc_benchmark(c_values=(0.5,), y_values=(0.9,))

    def _run(self, log, emit_s, profile_s):
        with timed_bench_solvers(self.meter, log):
            grid = bench.run_fc_benchmark()
            extra = bench.run_fc_benchmark(y_values=self.extra_y)
        _timed_emit(bench.fc_summary(grid), self.out("summary.csv"), emit_s)
        _timed_emit(grid, self.out("grid-runs.csv"), emit_s)
        _timed_emit(extra, self.out("extra-runs.csv"), emit_s)
        grid_rows = _table_rows(grid, "grid")
        successes = sum(r.success for t in (grid, extra) for r in t.rows)
        return grid_rows + _table_rows(extra, "extra"), grid_rows, successes


class SuiteSeeded(Workload):
    """Sweeps at master seed DEFAULT_SEED (the reference) and at ``seed``."""

    name = "suite-seeded"

    def __init__(self, seed, meter, out_dir):
        super().__init__(seed, meter, out_dir)
        self.master_seeds = (DEFAULT_SEED, self.seed)

    def warm_up(self):
        branin = [p for p in standard_suite() if p.name == "branin"]
        table = bench.run_suite_benchmark(suite=branin, runs_required=1, attempt_cap=1)
        bench.emit(bench.performance_profile(table), "csv", self.out("profile.csv"))

    def _run(self, log, emit_s, profile_s):
        rows, reference_rows, successes = [], [], 0
        for j, master in enumerate(self.master_seeds):
            with timed_bench_solvers(self.meter, log):
                table = bench.run_suite_benchmark(
                    master_seed=master, runs_required=SUITE_RUNS_REQUIRED,
                    attempt_cap=SUITE_ATTEMPT_CAP)
            _timed_emit(table, self.out("runs.csv"), emit_s)
            t0 = time.perf_counter()
            curves = bench.performance_profile(table, runs_required=SUITE_RUNS_REQUIRED)
            profile_s.append(time.perf_counter() - t0)
            _timed_emit(curves, self.out("profile.csv"), emit_s)
            sweep_rows = _table_rows(table, f"{j}:{master}")
            rows += sweep_rows
            if j == 0:
                reference_rows = sweep_rows
            successes += sum(r.success for r in table.rows)
        return rows, reference_rows, successes


# ---------------------------------------------------------------------------
# sqp-constrained
# ---------------------------------------------------------------------------

@dataclass
class SqpInstance:
    """A suite objective under generated constraints; ``anchor`` satisfies
    every constraint (equalities exactly, the ball strictly)."""

    key: str
    base: object
    x0: np.ndarray
    anchor: np.ndarray
    eq_matrix: np.ndarray       # (m, n); m = 0 without equalities
    eq_rhs: np.ndarray
    ball_center: Optional[np.ndarray]
    ball_radius: float

    def h(self, x):
        return self.eq_matrix @ x - self.eq_rhs

    def jac_h(self, x):
        return self.eq_matrix

    def g(self, x):
        if self.ball_center is None:
            return np.zeros(0)
        d = x - self.ball_center
        return np.array([d @ d - self.ball_radius ** 2])

    def jac_g(self, x):
        if self.ball_center is None:
            return np.zeros((0, x.shape[0]))
        return (2.0 * (x - self.ball_center))[None, :]

    def problem(self, meter):
        """The ConstrainedProblem handed to the solver, with counted callbacks."""
        m = self.eq_matrix.shape[0]
        p = 0 if self.ball_center is None else 1
        return ConstrainedProblem(
            objective=counted_objective(self.base.objective, meter),
            gradient=counted_gradient(self.base.gradient, meter),
            x0=self.x0.copy(),
            h=counted_constraint(self.h, meter) if m else None,
            jac_h=counted_constraint(self.jac_h, meter) if m else None,
            g=counted_constraint(self.g, meter) if p else None,
            jac_g=counted_constraint(self.jac_g, meter) if p else None,
            n_eq=m, n_ineq=p)


def make_sqp_instances(seed, count=SQP_INSTANCES, core=SQP_CORE_INSTANCES):
    """Instance k uses suite problem k mod 15 and constraint kind
    (k // 15) mod 3.  Everything random comes from the stream (s, k), where
    s is DEFAULT_SEED for the first ``core`` instances and ``seed`` after."""
    suite = standard_suite()
    out = []
    for k in range(count):
        base = suite[k % len(suite)]
        kind = SQP_KINDS[(k // len(suite)) % len(SQP_KINDS)]
        rng = np.random.default_rng([DEFAULT_SEED if k < core else int(seed), k])
        n = base.dimension
        box = base.start_box

        def draw():
            return box.center + box.side * (rng.random(n) - 0.5)

        x0 = draw()
        anchor = draw()
        m = min(SQP_MAX_EQUALITIES, n - 1) if "eq" in kind else 0
        eq_matrix = rng.standard_normal((m, n))
        center, radius = None, 0.0
        if "ball" in kind:
            center = draw()
            radius = float(np.linalg.norm(anchor - center)) + SQP_BALL_MARGIN * box.side
        out.append(SqpInstance(f"{k}:{base.name}:{kind}", base, x0, anchor,
                               eq_matrix, eq_matrix @ anchor, center, radius))
    return out


class SqpConstrained(Workload):
    """SQP_INSTANCES constrained problems, the first SQP_CORE_INSTANCES of
    them from the default seed (the reference)."""

    name = "sqp-constrained"

    def __init__(self, seed, meter, out_dir):
        super().__init__(seed, meter, out_dir)
        self.instances = make_sqp_instances(self.seed)
        self.problems = [inst.problem(meter) for inst in self.instances]

    def recheck(self, subject, result):
        return verify.check_constrained(subject, result, GRAD_TOLERANCE)

    def warm_up(self):
        for problem in self.problems[:3]:
            solve_qsqp(problem, config=SQP_CONFIG)

    def _run(self, log, emit_s, profile_s):
        rows, successes = [], 0
        for inst, problem in zip(self.instances, self.problems):
            result = timed_solve(self.meter, log, "sqp", SQP_SOLVE, inst,
                                 inst.base.dimension, inst.x0,
                                 lambda: solve_qsqp(problem, config=SQP_CONFIG))
            ok = result.status == STATUS_CONVERGED
            successes += ok
            rows.append(verify.contract_row(inst.key, inst.x0, ok, result.iterations))
        return rows, rows[:SQP_CORE_INSTANCES], successes


WORKLOADS = {w.name: w for w in (FcGrid, SuiteSeeded, SqpConstrained)}
