"""Benchmark sweeps, Dolan-More performance profiles, and CSV/SVG emission.

Two experiments are provided: the fc family sweep (deterministic starts on
the line x = c) and the randomized test-set sweep (starts drawn from the
unit hypercube centered on a known minimizer until a fixed number of
successes, with per-run RNG substreams so results are byte-reproducible for
a given master seed regardless of execution order).
"""

from __future__ import annotations

import dataclasses
import logging
import zlib
from dataclasses import dataclass, field

import numpy as np

from .problems import make_fc, standard_suite
from .qcalc import QSchedule
from .usolve import STATUS_CONVERGED, SolverConfig, solve_bfgs, solve_qls

log = logging.getLogger(__name__)

SOLVERS = ("bfgs", "q1", "q2", "q3")
DEFAULT_C_VALUES = tuple(round(0.1 + 0.2 * i, 1) for i in range(10))
DEFAULT_Y_VALUES = tuple(round(0.1 + 0.2 * i, 1) for i in range(10))

#: a run succeeds if it converged and lands near a known global minimizer,
#: either by distance or by objective gap
SUCCESS_DISTANCE = 1e-3
SUCCESS_VALUE_GAP = 1e-6

#: per-attempt iteration budget for randomized suite runs; converging runs on
#: the test set finish well under this, and runs that escaped the basin (the
#: landscapes are unbounded outside it) would otherwise burn the full
#: 10,000-iteration solver default on every failed attempt
SUITE_MAX_ITERATIONS = 300


@dataclass
class BenchmarkRow:
    problem: str
    solver: str
    run_index: int
    seed: int
    success: bool
    iterations: int
    elapsed_seconds: float
    start_point: np.ndarray


@dataclass
class BenchmarkTable:
    rows: list = field(default_factory=list)

    def sorted_rows(self):
        return sorted(self.rows, key=lambda r: (r.problem, r.solver, r.run_index))

    def cell(self, problem, solver):
        return [r for r in self.rows if r.problem == problem and r.solver == solver]

    def problems(self):
        return sorted({r.problem for r in self.rows})

    def solvers(self):
        return sorted({r.solver for r in self.rows})


@dataclass
class FcSummaryRow:
    c: float
    iterations: dict  # solver -> mean iterations over successful runs
    times: dict       # solver -> mean seconds over successful runs


@dataclass
class ProfileCurve:
    solver: str
    points: list  # (tau, fraction), nondecreasing step samples


def is_success(problem, result):
    """Converged and close to some known global minimizer (distance or gap)."""
    if result.status != STATUS_CONVERGED:
        return False
    for m in problem.known_minimizers:
        if float(np.linalg.norm(result.x_final - m)) < SUCCESS_DISTANCE:
            return True
    return abs(result.f_final - problem.known_min_value) < SUCCESS_VALUE_GAP


def _solver_run(solver, problem, x0, config, q0):
    if solver == "bfgs":
        return solve_bfgs(problem, x0, config=config)
    if solver.startswith("q") and solver[1:].isdigit():
        gamma = int(solver[1:])
        return solve_qls(problem, x0, config=config, schedule=QSchedule(q0, gamma))
    raise ValueError(f"unknown solver {solver!r}")


def run_fc_benchmark(c_values=None, q0=0.9, gammas=(1, 2, 3), config=None,
                     y_values=None, result_hook=None):
    """Sweep the fc family: BFGS and Q_gamma from the starts (c, y).

    Returns a run-level BenchmarkTable; aggregate with ``fc_summary``.
    Individual failures are recorded (success=False), never raised.
    """
    c_values = DEFAULT_C_VALUES if c_values is None else tuple(c_values)
    y_values = DEFAULT_Y_VALUES if y_values is None else tuple(y_values)
    config = config if config is not None else SolverConfig()
    solvers = ("bfgs",) + tuple(f"q{g}" for g in gammas)
    table = BenchmarkTable()
    for c in c_values:
        problem = make_fc(c)
        for solver in solvers:
            for run_index, y in enumerate(y_values):
                x0 = np.array([float(c), float(y)])
                result = _solver_run(solver, problem, x0, config, q0)
                if result_hook is not None:
                    result_hook(problem, solver, result)
                table.rows.append(BenchmarkRow(
                    problem=problem.name, solver=solver, run_index=run_index,
                    seed=0, success=is_success(problem, result),
                    iterations=result.iterations,
                    elapsed_seconds=result.elapsed_seconds, start_point=x0))
    return table


def fc_summary(table, c_values=None, solvers=SOLVERS):
    """Per-c mean iterations and time over successful runs, one row per c."""
    c_values = DEFAULT_C_VALUES if c_values is None else tuple(c_values)
    out = []
    for c in c_values:
        name = make_fc(c).name
        iters = {}
        times = {}
        for solver in solvers:
            good = [r for r in table.cell(name, solver) if r.success]
            iters[solver] = (sum(r.iterations for r in good) / len(good)
                             if good else float("nan"))
            times[solver] = (sum(r.elapsed_seconds for r in good) / len(good)
                             if good else float("nan"))
        out.append(FcSummaryRow(c=c, iterations=iters, times=times))
    return out


def _substream_seed(master_seed, problem_name, solver, attempt):
    # crc32 keys are stable across platforms and runs, unlike hash()
    key = f"{master_seed}:{problem_name}:{solver}:{attempt}"
    return zlib.crc32(key.encode("utf-8"))


def _draw_start(problem, rng):
    box = problem.start_box
    return box.center + box.side * (rng.random(problem.dimension) - 0.5)


def run_suite_benchmark(suite=None, solvers=SOLVERS, master_seed=0,
                        runs_required=10, attempt_cap=200, config=None,
                        q0=0.9, result_hook=None):
    """Randomized sweep over the test suite.

    For each (problem, solver), starts are drawn from the unit box centered
    on a known minimizer, one RNG substream per (master_seed, problem,
    solver, attempt), until ``runs_required`` successes or ``attempt_cap``
    attempts.  Every attempt is recorded as a row.

    Each problem's runs get the objective floor ``known_min_value -
    SUCCESS_VALUE_GAP`` (overriding ``config.f_floor``): a run that descends
    below it can no longer succeed on value, so it stops as diverged instead
    of using up its iteration budget.  Start points, success flags and the
    iterations of successful runs are the same as without the floor.
    """
    suite = standard_suite() if suite is None else list(suite)
    config = config if config is not None else SolverConfig(max_iterations=SUITE_MAX_ITERATIONS)
    table = BenchmarkTable()
    for problem in suite:
        floored = dataclasses.replace(
            config, f_floor=problem.known_min_value - SUCCESS_VALUE_GAP)
        for solver in solvers:
            successes = 0
            for attempt in range(attempt_cap):
                if successes >= runs_required:
                    break
                seed = _substream_seed(master_seed, problem.name, solver, attempt)
                rng = np.random.default_rng(
                    np.random.SeedSequence([master_seed & 0xFFFFFFFF,
                                            zlib.crc32(problem.name.encode()),
                                            zlib.crc32(solver.encode()), attempt]))
                x0 = _draw_start(problem, rng)
                result = _solver_run(solver, problem, x0, floored, q0)
                if result_hook is not None:
                    result_hook(problem, solver, result)
                ok = is_success(problem, result)
                successes += int(ok)
                table.rows.append(BenchmarkRow(
                    problem=problem.name, solver=solver, run_index=attempt,
                    seed=seed, success=ok, iterations=result.iterations,
                    elapsed_seconds=result.elapsed_seconds, start_point=x0))
            if successes < runs_required:
                log.warning("problem %s / solver %s: only %d/%d successes within %d attempts",
                            problem.name, solver, successes, runs_required, attempt_cap)
    return table


def _cell_metric(table, problem, solver, metric, runs_required):
    good = [r for r in table.cell(problem, solver) if r.success]
    if runs_required is not None:
        if len(good) < runs_required:
            return float("inf")  # attempt cap hit before the quota: unsolved
        good = good[:runs_required]
    if not good:
        return float("inf")
    if metric == "iterations":
        return sum(r.iterations for r in good) / len(good)
    if metric == "time":
        return sum(r.elapsed_seconds for r in good) / len(good)
    raise ValueError(f"unknown metric {metric!r}")


def performance_profile(table, metric="iterations", runs_required=None):
    """Dolan-More curves: P_s(tau) = fraction of problems with ratio <= tau.

    Per-problem ratios divide each solver's mean metric by the best solver's
    mean on that problem; unsolved cells get ratio +inf and never enter a
    curve.  When ``runs_required`` is given, a cell below that success quota
    counts as unsolved.  Problems unsolved by every solver are dropped from
    the count (with a warning).
    """
    problems = table.problems()
    solvers = table.solvers()
    if not problems or not solvers:
        return []
    ratios = {}
    counted = []
    for prob in problems:
        vals = {s: _cell_metric(table, prob, s, metric, runs_required) for s in solvers}
        best = min(vals.values())
        if not np.isfinite(best):
            log.warning("problem %s unsolved by every solver; excluded from profile", prob)
            continue
        counted.append(prob)
        for s in solvers:
            v = vals[s]
            # guard the degenerate all-zero cell (e.g. 0-iteration runs)
            ratios[(prob, s)] = v / best if best > 0 else (1.0 if v == best else float("inf"))
    n_p = len(counted)
    if n_p == 0:
        return [ProfileCurve(solver=s, points=[(1.0, 0.0)]) for s in solvers]
    finite = sorted({ratios[(p, s)] for p in counted for s in solvers
                     if np.isfinite(ratios[(p, s)])})
    taus = sorted({1.0, *finite})
    curves = []
    for s in solvers:
        pts = []
        for tau in taus:
            frac = sum(1 for p in counted if ratios[(p, s)] <= tau) / n_p
            pts.append((tau, frac))
        curves.append(ProfileCurve(solver=s, points=pts))
    return curves


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

RUNS_HEADER = "problem,solver,run_index,seed,success,iterations,elapsed_seconds,start_point"
PROFILE_HEADER = "solver,tau,fraction"
FC_HEADER = ("c,iter_bfgs,iter_q1,iter_q2,iter_q3,"
             "time_bfgs,time_q1,time_q2,time_q3")


def _fmt(x):
    return repr(float(x))


def emit(obj, fmt, path):
    """Write a BenchmarkTable, fc summary list, or profile curves to disk.

    ``fmt`` is "csv" for any of the three, or "svg" for profile curves.
    """
    try:
        if fmt == "csv":
            text = _to_csv(obj)
        elif fmt == "svg":
            if not (isinstance(obj, list) and all(isinstance(c, ProfileCurve) for c in obj)):
                raise TypeError("svg emission expects a list of ProfileCurve")
            text = _profiles_svg(obj)
        else:
            raise ValueError(f"unknown format {fmt!r}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _to_csv(obj):
    if isinstance(obj, BenchmarkTable):
        lines = [RUNS_HEADER]
        for r in obj.sorted_rows():
            start = ";".join(_fmt(v) for v in np.asarray(r.start_point))
            lines.append(f"{r.problem},{r.solver},{r.run_index},{r.seed},"
                         f"{'true' if r.success else 'false'},{r.iterations},"
                         f"{_fmt(r.elapsed_seconds)},{start}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, list) and all(isinstance(c, ProfileCurve) for c in obj):
        lines = [PROFILE_HEADER]
        for c in obj:
            for tau, frac in c.points:
                lines.append(f"{c.solver},{_fmt(tau)},{_fmt(frac)}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, list) and all(isinstance(r, FcSummaryRow) for r in obj):
        lines = [FC_HEADER]
        for r in obj:
            iters = ",".join(_fmt(r.iterations.get(s, float("nan"))) for s in SOLVERS)
            times = ",".join(_fmt(r.times.get(s, float("nan"))) for s in SOLVERS)
            lines.append(f"{_fmt(r.c)},{iters},{times}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def load_runs_csv(path):
    table = BenchmarkTable()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != RUNS_HEADER:
            raise ValueError(f"unexpected runs header in {path}: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            prob, solver, run_index, seed, success, iters, secs, start = line.split(",")
            table.rows.append(BenchmarkRow(
                problem=prob, solver=solver, run_index=int(run_index),
                seed=int(seed), success=(success == "true"), iterations=int(iters),
                elapsed_seconds=float(secs),
                start_point=np.array([float(v) for v in start.split(";")])))
    return table


def load_profile_csv(path):
    curves = {}
    order = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != PROFILE_HEADER:
            raise ValueError(f"unexpected profile header in {path}: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            solver, tau, frac = line.split(",")
            if solver not in curves:
                curves[solver] = []
                order.append(solver)
            curves[solver].append((float(tau), float(frac)))
    return [ProfileCurve(solver=s, points=curves[s]) for s in order]


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled; deterministic output, no plotting dependency)
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1b6ca8", "#c23b22", "#2e8540", "#8031a7", "#b8860b", "#444444")


def _profiles_svg(curves, width=640, height=440):
    margin = 60
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    max_tau = max((t for c in curves for t, _ in c.points), default=1.0)
    log_max = max(np.log2(max_tau), 1e-9)

    def sx(tau):
        return margin + plot_w * (np.log2(max(tau, 1.0)) / log_max if log_max > 0 else 0.0)

    def sy(frac):
        return height - margin - plot_h * frac

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
             'fill="none" stroke="#999"/>']
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(f'<line x1="{margin}" y1="{y:.2f}" x2="{width - margin}" y2="{y:.2f}" '
                     'stroke="#ddd"/>')
        parts.append(f'<text x="{margin - 8}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end" font-family="sans-serif">{frac:g}</text>')
    n_ticks = int(np.ceil(log_max))
    for e in range(n_ticks + 1):
        tau = 2.0 ** e
        x = sx(tau)
        parts.append(f'<line x1="{x:.2f}" y1="{margin}" x2="{x:.2f}" y2="{height - margin}" '
                     'stroke="#eee"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - margin + 16}" font-size="11" '
                     f'text-anchor="middle" font-family="sans-serif">{tau:g}</text>')
    parts.append(f'<text x="{width / 2}" y="{height - 14}" font-size="12" text-anchor="middle" '
                 'font-family="sans-serif">performance ratio tau (log2 scale)</text>')
    parts.append(f'<text x="16" y="{height / 2}" font-size="12" text-anchor="middle" '
                 f'font-family="sans-serif" transform="rotate(-90 16 {height / 2})">'
                 'fraction of problems solved</text>')
    for ci, curve in enumerate(curves):
        color = _SVG_COLORS[ci % len(_SVG_COLORS)]
        pts = []
        prev_frac = None
        for tau, frac in curve.points:
            x = sx(tau)
            if prev_frac is not None:
                pts.append(f"{x:.2f},{sy(prev_frac):.2f}")  # horizontal run of the step
            pts.append(f"{x:.2f},{sy(frac):.2f}")
            prev_frac = frac
        if prev_frac is not None:
            pts.append(f"{width - margin:.2f},{sy(prev_frac):.2f}")
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
                     'stroke-width="1.8"/>')
        ly = margin + 18 + 16 * ci
        parts.append(f'<line x1="{width - margin - 110}" y1="{ly - 4}" '
                     f'x2="{width - margin - 86}" y2="{ly - 4}" stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{width - margin - 80}" y="{ly}" font-size="12" '
                     f'font-family="sans-serif">{curve.solver}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
