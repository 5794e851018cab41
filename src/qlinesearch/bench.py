"""Benchmark sweeps, Dolan-More performance profiles, and CSV/SVG emission.

Two experiments are provided: the fc family sweep (deterministic starts on
the line x = c) and the randomized test-set sweep (starts drawn from the
unit hypercube centered on a known minimizer until a fixed number of
successes, with per-run RNG substreams so results are byte-reproducible for
a given master seed regardless of execution order).
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import operator
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CallbackError, check_counts
from .problems import make_fc, standard_suite
from .qmatrix import QSchedule
from .usolve import (DEFAULT_SCHEDULE, NUMERIC_ERRORS, STATUS_CONVERGED, SolverConfig, Trace,
                     _norm, solve_bfgs, solve_qls)

log = logging.getLogger(__name__)

SOLVERS = ("bfgs", "q1", "q2", "q3")
DEFAULT_C_VALUES = DEFAULT_Y_VALUES = tuple(round(0.1 + 0.2 * i, 1) for i in range(10))

#: the published suite protocol: master seed, success quota, attempt cap per cell
SUITE_SEED = 0
SUITE_RUNS_REQUIRED = 10
SUITE_ATTEMPT_CAP = 200

#: a run succeeds if it converged and lands near a known global minimizer,
#: either by distance or by objective gap
SUCCESS_DISTANCE = 1e-3
SUCCESS_VALUE_GAP = 1e-6

#: perfbench's SQP iteration budget, kept here under this name only because
#: perfbench/workloads.py builds SQP_CONFIG from it; no sweep reads it
SUITE_MAX_ITERATIONS = 300


@dataclass(eq=False)
class BenchmarkRow:
    problem: str
    solver: str
    run_index: int
    seed: int  # the sweep's master seed; 0 for fc rows, which draw nothing
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

    def successes(self, problem, solver):
        """A cell's successful rows, in run order."""
        return [r for r in self.cell(problem, solver) if r.success]

    def short_cells(self, runs_required):
        """(problem, solver, successes) of every cell short of the quota."""
        return [(p, s, n) for p in self.problems() for s in self.solvers()
                if (n := len(self.successes(p, s))) < runs_required]

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
    return (any(_norm(result.x_final - m) < SUCCESS_DISTANCE for m in problem.known_minimizers)
            or abs(result.f_final - problem.known_min_value) < SUCCESS_VALUE_GAP)


def sweep_rules(problem, config):
    """``problem`` and ``config`` (None: SolverConfig()) as a sweep or ``qlinesearch solve``
    runs them: config.f_floor is known_min_value - SUCCESS_VALUE_GAP, below which no run
    succeeds, and an error of the objective or gradient but ``usolve.NUMERIC_ERRORS`` raises
    CallbackError, so the run ends as ``callback_error`` and a sweep records it and goes on."""
    def guarded(callback):
        def call(x):
            try:
                return callback(x)
            except NUMERIC_ERRORS:
                raise
            except Exception as exc:
                raise CallbackError(f"{type(exc).__name__}: {exc}") from exc
        return call
    floor = problem.known_min_value - SUCCESS_VALUE_GAP
    return (dataclasses.replace(problem, objective=guarded(problem.objective),
                                gradient=guarded(problem.gradient)),
            dataclasses.replace(config if config is not None else SolverConfig(), f_floor=floor))


def solver_call(solver, q0=DEFAULT_SCHEDULE.q0):
    """The solve of a runs-CSV solver name, a function of (problem, x0, config):
    ``bfgs`` for solve_bfgs, or ``q<gamma>`` for solve_qls under QSchedule(q0, gamma).
    Raises ValueError for any other name (``q01`` too), and for a q0 outside (0, 1);
    the solve raises it for an x0 that is not a vector of the problem's dimension.
    The solve is looked up when solver_call is called, so a patch of
    ``bench.solve_qls`` or ``bench.solve_bfgs`` around a whole sweep is seen."""
    gamma = solver[1:] if solver[:1] == "q" else ""
    if solver != "bfgs" and not (gamma.isdecimal() and gamma == str(int(gamma))):
        raise ValueError(f"unknown solver {solver!r}; a solver is bfgs or q<gamma>")
    schedule = QSchedule(q0, int(gamma) if gamma else DEFAULT_SCHEDULE.gamma)
    return solve_bfgs if solver == "bfgs" else functools.partial(solve_qls, schedule=schedule)


def _sweep(problems, solvers, q0, wrap, config, seed, starts, runs_required=None):
    """The table of each solver's rows on each problem, with seed ``seed``,
    from each x0 of ``starts(problem, solver)`` in order, a cell ending at
    ``runs_required`` successes (never, if None).  Each solve is built before
    the first, passed through ``wrap`` if given, and handed each problem and
    config as ``sweep_rules`` gives them, once per problem; ValueError for a
    name given twice, or a problem name that a runs-CSV cell cannot hold."""
    solvers = list(solvers)
    for kind, names in (("problem", [_text_cell(p.name) for p in problems]), ("solver", solvers)):
        if len(set(names)) < len(names):
            raise ValueError(f"a sweep names each {kind} once, got {', '.join(names)}")
    solves = {solver: solver_call(solver, q0) for solver in solvers}
    solves = {s: wrap(s, solve) for s, solve in solves.items()} if wrap is not None else solves
    table = BenchmarkTable()
    for problem, floored in (sweep_rules(p, config) for p in problems):
        for solver, solve in solves.items():
            successes = 0
            for run_index, x0 in enumerate(starts(problem, solver)):
                result = solve(problem, x0, floored)
                table.rows.append(BenchmarkRow(
                    problem=problem.name, solver=solver, run_index=run_index, seed=seed,
                    success=is_success(problem, result), iterations=result.iterations,
                    elapsed_seconds=result.elapsed_seconds, start_point=x0))
                successes += table.rows[-1].success
                if successes == runs_required:
                    break
    return table


def run_fc_benchmark(c_values=DEFAULT_C_VALUES, q0=DEFAULT_SCHEDULE.q0, solvers=SOLVERS,
                     config=None, y_values=DEFAULT_Y_VALUES, wrap=None):
    """Sweep the fc family: each of ``solvers`` from the starts (c, y).

    Returns a run-level BenchmarkTable; aggregate with ``fc_summary``.
    Individual failures are recorded (success=False), never raised.
    ``wrap(solver, solve)``, if given, is called once per solver before the
    first solve and returns the function of (problem, x0, config) that runs
    in place of ``solve``: the way to watch, count or alter a sweep's solves.
    It is handed the problem and config the sweep runs, ``sweep_rules`` applied,
    so it may run any solver on them; a callback it substitutes is its own to guard.
    """
    c_values = [float(c) for c in c_values]
    y_values = [float(y) for y in y_values]
    if not np.isfinite(y_values).all():
        raise ValueError(f"every fc start needs a finite y, got {y_values}")
    problems = [make_fc(c) for c in c_values]
    c_of = {problem.name: c for c, problem in zip(c_values, problems)}
    return _sweep(problems, solvers, q0, wrap, config, 0,
                  lambda problem, solver: (np.array([c_of[problem.name], y]) for y in y_values))


def _success_mean(rows, field_name):
    """Mean of a row field over a cell's successful ``rows``; NaN if none."""
    return sum(getattr(r, field_name) for r in rows) / len(rows) if rows else float("nan")


def fc_summary(table):
    """Per-c mean iterations and time over successful runs, one row per c.

    Each fc problem's c is its rows' first start coordinate, as every fc
    start lies on its line x = c; the solvers are the table's.  Raises
    ValueError for a table with no rows, whose summary would have no columns.
    """
    if not table.rows:
        raise ValueError("cannot summarize an empty fc table")
    c_of = {r.problem: float(r.start_point[0]) for r in table.rows}
    out = []
    for problem, c in sorted(c_of.items(), key=lambda item: item[1]):
        good = {s: table.successes(problem, s) for s in table.solvers()}
        out.append(FcSummaryRow(
            c=c, iterations={s: _success_mean(g, "iterations") for s, g in good.items()},
            times={s: _success_mean(g, "elapsed_seconds") for s, g in good.items()}))
    return out


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _seed_hash(const, mult):
    """SeedSequence's word hash, its constant advancing by ``mult`` per call."""
    def hashed(value):
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashed


def _pcg64_uniforms(key, n):
    """NumPy's ``default_rng(key).random(n)`` as a list, bit for bit, for a
    list of whole numbers >= 0, without loading NumPy's random module (6 MB).
    The key's 32-bit words seed NumPy's SeedSequence (NEP 19), whose state
    seeds PCG64 (O'Neill 2014, XSL-RR output); a uniform is 53 output bits."""
    words = []
    for entry in map(operator.index, key):
        if entry < 0:
            raise ValueError(f"expected non-negative integer, got {entry}")
        words += [entry >> s & _M32 for s in range(0, max(entry.bit_length(), 1), 32)]
    hashmix = _seed_hash(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = list(map(_seed_hash(0x8B51F9DD, 0x58F38DED), pool * 2))  # generate_state
    u = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]  # as 4 little-endian uint64
    inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    x = ((inc + (u[0] << 64 | u[1])) * mult + inc) & _M128
    out = []
    for _ in range(n):
        x = (x * mult + inc) & _M128
        word, rot = (x >> 64 ^ x) & _M64, x >> 122
        out.append((((word >> rot | word << 64 - rot) & _M64) >> 11) * 2.0 ** -53)
    return out


def suite_start(problem, solver, master_seed, run_index):
    """The start of suite run ``run_index`` of ``solver`` on ``problem``,
    drawn from the box around a known minimizer by its own RNG substream."""
    # crc32 keys are stable across platforms and runs, unlike hash()
    u = _pcg64_uniforms([master_seed, zlib.crc32(problem.name.encode()),
                         zlib.crc32(solver.encode()), run_index], problem.dimension)
    box = problem.start_box
    return box.center + box.side * (np.array(u) - 0.5)


def run_suite_benchmark(suite=None, solvers=SOLVERS, master_seed=SUITE_SEED,
                        runs_required=SUITE_RUNS_REQUIRED, attempt_cap=SUITE_ATTEMPT_CAP,
                        config=None, q0=DEFAULT_SCHEDULE.q0, wrap=None):
    """Randomized sweep over the test suite.

    For each (problem, solver), starts are drawn by ``suite_start``, one RNG
    substream per (master_seed, problem, solver, attempt), until
    ``runs_required`` successes or ``attempt_cap`` attempts.  Every attempt
    is recorded as a row, with ``master_seed`` as its seed; a cell left
    short of the quota is named by ``BenchmarkTable.short_cells``.
    ``wrap`` is as in ``run_fc_benchmark``.  Each problem's start box needs
    a finite center of the problem's dimension.
    """
    check_counts(runs_required=runs_required, attempt_cap=attempt_cap)
    check_counts(0, master_seed=master_seed)
    suite = standard_suite() if suite is None else list(suite)
    for problem in suite:
        box = problem.start_box
        if box is None or np.shape(box.center) != (problem.dimension,) or \
                not np.isfinite(box.center).all():
            raise ValueError(f"{problem.name} needs a start box with a finite center of "
                             f"dimension {problem.dimension}")
    # a generator, so no start is drawn after a cell reaches its quota
    return _sweep(suite, solvers, q0, wrap, config, master_seed,
                  lambda problem, solver: (suite_start(problem, solver, master_seed, attempt)
                                           for attempt in range(attempt_cap)),
                  runs_required)


#: the row field each profile metric averages
METRIC_FIELDS = {"iterations": "iterations", "time": "elapsed_seconds"}


def performance_profile(table, metric="iterations", runs_required=None):
    """Dolan-More curves: P_s(tau) = fraction of problems with ratio <= tau.

    Per-problem ratios divide each solver's mean metric by the best solver's
    mean on that problem; unsolved cells get ratio +inf and never enter a
    curve.  When ``runs_required`` is given, at least 1, a cell below that
    success quota counts as unsolved.  Problems unsolved by every solver are
    dropped from the count (with a warning).
    """
    if metric not in METRIC_FIELDS:
        raise ValueError(f"unknown metric {metric!r}")
    if runs_required is not None:
        check_counts(runs_required=runs_required)
    problems, solvers = table.problems(), table.solvers()
    ratios = {}
    counted = []
    for prob in problems:
        good = {s: table.successes(prob, s) for s in solvers}
        vals = {s: _success_mean(g[:runs_required], METRIC_FIELDS[metric])
                if len(g) >= (runs_required or 1) else float("inf") for s, g in good.items()}
        best = min(vals.values())
        if not np.isfinite(best):
            log.warning("problem %s unsolved by every solver; excluded from profile", prob)
            continue
        counted.append(prob)
        for s in solvers:
            v = vals[s]
            # guard the degenerate all-zero cell (e.g. 0-iteration runs)
            ratios[(prob, s)] = v / best if best > 0 else (1.0 if v == best else float("inf"))
    taus = sorted({1.0, *(r for r in ratios.values() if np.isfinite(r))})
    n_p = max(len(counted), 1)  # with no problem counted, each curve is (1, 0) alone
    return [ProfileCurve(solver=s, points=[(tau, sum(ratios[(p, s)] <= tau for p in counted) / n_p)
                                           for tau in taus]) for s in solvers]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _text_cell(v):
    """The cell of text ``v``; ValueError unless it reads back as ``v``: a
    comma or line break would split the row, and reading strips each line."""
    if v != v.strip() or set(v) & set(",\n\r"):
        raise ValueError(f"a CSV cell cannot hold the text {v!r}")
    return v


def _count_cell(s):
    value = int(s)
    check_counts(0, count=value)  # every int field of a row is a count
    return value


def _finite_cell(s):
    value = float(s)
    if not np.isfinite(value):
        raise ValueError(f"a number cell reads {s!r}, which is not finite")
    return value


#: the text of a CSV cell and its parse, by the annotation of the cell's field;
#: a float is written as a Python float's repr, which parses back bit for bit.
#: A number cell is read back only as a count or a finite number, and every
#: cell only as the text its value is written as
_CELLS = {
    "str": (_text_cell, str),
    "int": (str, _count_cell),
    "bool": (lambda v: "true" if v else "false", lambda s: s == "true"),
    "float": (lambda v: repr(float(v)), _finite_cell),
    "Optional[float]": (lambda v: "" if v is None else repr(float(v)),
                        lambda s: None if s == "" else _finite_cell(s)),
    "np.ndarray": (lambda v: ";".join(map(repr, np.asarray(v, dtype=float).tolist())),
                   lambda s: np.array([_finite_cell(t) for t in s.split(";")])),
}
RUNS_HEADER = ",".join(f.name for f in dataclasses.fields(BenchmarkRow))
PROFILE_HEADER = "solver,tau,fraction"


def _cell_rules(types, which):
    """The writers (``which`` 0) or parsers (1) of cells annotated ``types``;
    TypeError for an annotation without a rule, before any cell is written."""
    if set(types) - _CELLS.keys():
        raise TypeError(f"no CSV cell rule for annotations {set(types) - _CELLS.keys()}")
    return [_CELLS[t][which] for t in types]


def emit(obj, fmt, path):
    """Write a BenchmarkTable, fc summary list, profile curves or a solve's
    Trace to disk as ``fmt`` "csv", or profile curves as "svg".  The columns
    of a runs CSV or a trace are its record's fields, each cell written by
    its annotation's rule (None as an empty cell, as BFGS's q_k)."""
    try:
        if fmt == "csv":
            lines = _csv_lines(obj)
        elif fmt == "svg":
            if not (isinstance(obj, list) and all(isinstance(c, ProfileCurve) for c in obj)):
                raise TypeError("svg emission expects a list of ProfileCurve")
            lines = _profiles_svg(obj)
        else:
            raise ValueError(f"unknown format {fmt!r}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _csv_lines(obj):
    if isinstance(obj, (BenchmarkTable, Trace)):
        table = isinstance(obj, BenchmarkTable)
        fields = dataclasses.fields(BenchmarkRow if table else obj.record)
        names, types = [f.name for f in fields], [f.type for f in fields]
        rows = (vars(r).values() for r in (obj.sorted_rows() if table else obj))
    elif isinstance(obj, list) and all(isinstance(c, ProfileCurve) for c in obj):
        names, types = PROFILE_HEADER.split(","), ("str", "float", "float")
        rows = ((c.solver, tau, frac) for c in obj for tau, frac in c.points)
    elif isinstance(obj, list) and all(isinstance(r, FcSummaryRow) for r in obj):
        # the columns are the summary's own solvers: c, iter_<s>..., time_<s>...
        solvers = list(obj[0].iterations)
        names = ["c"] + [f"iter_{s}" for s in solvers] + [f"time_{s}" for s in solvers]
        types = ["float"] * len(names)
        rows = ([r.c, *map(r.iterations.get, solvers), *map(r.times.get, solvers)] for r in obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    writers = _cell_rules(types, 0)
    return [",".join(names)] + [",".join([w(v) for w, v in zip(writers, row)]) for row in rows]


def load_runs_csv(path):
    """The BenchmarkTable of a runs CSV, the one file the package reads back.
    The header must be RUNS_HEADER, and each cell is parsed by its field's
    annotation; blank lines are skipped.  A row of another length, or a cell
    that does not parse or is not the text its value is written as, raises
    ValueError naming the file, the line and the column."""
    types = [f.type for f in dataclasses.fields(BenchmarkRow)]
    columns = list(zip(RUNS_HEADER.split(","), _cell_rules(types, 1), _cell_rules(types, 0)))
    table = BenchmarkTable()
    with open(path, encoding="utf-8") as fh:
        found = fh.readline().strip()
        if found != RUNS_HEADER:
            raise ValueError(f"unexpected runs header in {path}: {found!r}")
        for number, line in enumerate(map(str.strip, fh), start=2):
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValueError(f"{path} line {number}: {len(cells)} cells, "
                                 f"the header has {len(columns)}")
            row = []
            for (name, parse, write), cell in zip(columns, cells):
                try:
                    row.append(parse(cell))
                    if write(row[-1]) != cell:  # int() and float() also read " +5 ", "1_0"
                        raise ValueError(f"written as {write(row[-1])!r}, not {cell!r}")
                except ValueError as exc:
                    raise ValueError(f"{path} line {number}, column {name}: {exc}") from exc
            table.rows.append(BenchmarkRow(*row))
    return table


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled; deterministic output, no plotting dependency)
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1b6ca8", "#c23b22", "#2e8540", "#8031a7", "#b8860b", "#444444")


def _profiles_svg(curves):
    from xml.sax.saxutils import escape  # here, not at the top: it imports urllib.request (~30 ms)
    width, height, margin = 640, 440, 60
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    max_tau = max((t for c in curves for t, _ in c.points), default=1.0)
    log_max = max(np.log2(max_tau), 1.0)  # at least one doubling, so tau = 2 is on the canvas

    def sx(tau):
        return margin + plot_w * np.log2(max(tau, 1.0)) / log_max

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
                     f'font-family="sans-serif">{escape(curve.solver)}</text>')
    parts.append("</svg>")
    return parts
