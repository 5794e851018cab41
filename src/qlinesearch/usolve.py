"""Unconstrained solvers: q-line-search and the BFGS baseline.

All three solvers run in one iteration driver, ``drive``, which owns the
config, the iteration and time caps, the mapping of errors to statuses, the
``Trace``, the callback and ``f_final``; each run supplies only a step and a
stop test, and each solver is a rule on its run.  QLS and BFGS are matrix
rules on ``solve_descent``, which stops on the gradient norm and the objective
floor, takes the condition number of the M each rule returns and emits the
same per-iteration trace; SQP is a curvature rule on ``sqp._SqpRun``.  QLS
rebuilds M every iteration from the q-Hessian; BFGS updates it by rank two.
Every step, SQP's merit step included, is Armijo backtracking (Nocedal &
Wright 2006, Alg. 3.1) with the paper's c1 = 1e-4, halving from alpha = 1.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import (CallbackError, GradientShapeError, LineSearchError, NumericError, QPError,
                     check_counts)
from .psdfactor import psd_modify
from .qmatrix import QSchedule, checked_gradient, q_hessian

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_TIME_CAP = "time_cap"
STATUS_LINE_SEARCH_FAILURE = "line_search_failure"
STATUS_NUMERIC_FAILURE = "numeric_failure"
STATUS_QP_FAILURE = "qp_failure"
STATUS_DIVERGED = "diverged"
STATUS_CALLBACK_ERROR = "callback_error"

#: the q schedule QLS and SQP run when given none
DEFAULT_SCHEDULE = QSchedule(0.9, 1)


@dataclass
class SolverConfig:
    grad_tolerance: float = 1e-5
    max_iterations: int = 10_000
    time_cap_seconds: float = 100.0
    #: unconstrained solvers stop with STATUS_DIVERGED at the first iterate,
    #: the start included, whose finite f is below this value and whose
    #: gradient does not meet grad_tolerance (Armijo steps never raise f
    #: again), so a start below it stops after 0 steps; the SQP solver,
    #: whose steps decrease a merit function instead, ignores it
    f_floor: float = float("-inf")

    def __post_init__(self):
        # "not > 0" also rejects NaN, which "<= 0" lets through
        if not self.grad_tolerance > 0.0:
            raise ValueError("gradient tolerance must be positive")
        if not self.time_cap_seconds > 0.0:
            raise ValueError("time cap must be positive")
        check_counts(0, max_iterations=self.max_iterations)
        if np.isnan(self.f_floor):
            raise ValueError("objective floor must not be NaN")


@dataclass
class IterationRecord:
    """Iteration k of QLS or BFGS, the step x_{k+1} = x_k + alpha p.

    ``f_value`` and ``grad_norm`` are f and ||g|| at x_k, g = grad f(x_k).
    ``alpha`` is the accepted step length and ``trials`` the line search's
    trials, one objective evaluation each (an alpha whose target lies below
    ``Problem.lower_bound`` is not tried).  ``q_k`` is the step's q (None
    for BFGS).  ``cos_theta`` is -g.p / (||g|| ||p||).  ``condition_number``
    is the 2-norm condition number of the M that the direction rule returns
    (A + E for QLS, B for BFGS); it is inf when M is not positive definite.
    ``fallback_count`` counts the q-Hessian entries that came from the zero
    band's central difference, n per such row (0 for BFGS).
    """

    k: int
    f_value: float
    grad_norm: float
    alpha: float
    q_k: Optional[float]
    cos_theta: float
    condition_number: float
    fallback_count: int
    trials: int


@functools.cache
def _field_reads(record):  # None (BFGS's q) packs as NaN; only an Optional field reads NaN as None
    kinds = {"int": int, "float": float, "Optional[float]": lambda v: None if np.isnan(v) else v}
    return tuple(kinds[f.type] for f in fields(record))


class Trace(Sequence):
    """A run's records: one float64 row per iteration (``values``: all rows,
    flat) of the fields of ``record``, the type each read builds afresh."""

    __slots__ = ("record", "_rows")

    def __init__(self, record, values):
        self.record = record
        self._rows = np.array(values, dtype=float).reshape(-1, len(fields(record)))

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self.record(*[read(v) for read, v in
                             zip(_field_reads(self.record), self._rows[i].tolist())])

    def __eq__(self, other):  # equal to any sequence of equal records, a list or a tuple
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass(eq=False)
class SolveResult:
    status: str
    x_final: np.ndarray
    f_final: float
    iterations: int
    elapsed_seconds: float
    trace: Sequence  # a Trace, from drive


def _norm(v):
    """``np.linalg.norm(v)`` of a float vector, bit for bit: norm dots the
    ravelled v, and on a strided view v.dot(v) can differ in the last bit."""
    v = v.ravel()
    return float(np.sqrt(v.dot(v)))


def _spd_condition(M):
    w = np.linalg.eigvalsh(M)
    return np.inf if w[0] <= 0.0 else float(w[-1] / w[0])


def bfgs_update(B, s, y):
    """Rank-two BFGS update of B; skipped (B returned unchanged) unless y.s is
    safely positive, which keeps B positive definite."""
    s, y = np.asarray(s, dtype=float), np.asarray(y, dtype=float)
    sy = float(y @ s)
    if not sy > 1e-10 * _norm(s) * _norm(y):  # a NaN y.s skips the update too
        return B
    v = B @ s
    sBs = float(s @ v)
    return B - v[:, None] * v / sBs + y[:, None] * y / sy


C1 = 1e-4
ALPHA0 = 1.0
BACKTRACK_FACTOR = 0.5
MAX_HALVINGS = 60


@dataclass
class StepResult:
    alpha: float
    trials: int  # phi's evaluations, which an alpha skipped below the bound is not
    value: float  # phi(alpha), the last trial's value


def backtracking_step(phi, phi0, slope, lower_bound=float("-inf")):
    """Largest alpha in {ALPHA0 * BACKTRACK_FACTOR^j} with
    phi(alpha) <= phi0 + C1 alpha slope.

    ``phi(a)`` is the function along the ray, ``phi0`` its value at 0 and
    ``slope`` its derivative there.  An alpha whose target lies below
    ``lower_bound``, a value phi never falls below, cannot pass and is not
    tried.  Raises ``LineSearchError`` when no alpha within MAX_HALVINGS
    halvings passes, after at most MAX_HALVINGS + 1 trials.

    The inputs are not checked.  The unconstrained solvers require a finite
    phi0 and a negative slope; the SQP merit search does not, as its l1
    slope can round to a tiny positive number on a step that still
    decreases the merit.  A non-finite trial value fails the test.
    """
    alpha, trials = ALPHA0, 0
    for _ in range(MAX_HALVINGS + 1):
        target = phi0 + C1 * alpha * slope
        if not target < lower_bound:  # below it, no phi value passes; NaN is tried
            trials += 1
            if (value := phi(alpha)) <= target:
                return StepResult(alpha=alpha, trials=trials, value=value)
        alpha *= BACKTRACK_FACTOR
    raise LineSearchError(f"Armijo condition not satisfied within {MAX_HALVINGS} halvings")


class _PastDeadline(Exception):
    """The time cap passed before an objective evaluation."""


#: the errors, in a stop test or a step, that end a run as numeric_failure
NUMERIC_ERRORS = (ArithmeticError, GradientShapeError, np.linalg.LinAlgError)


def drive(run, config, callback):
    """The iteration loop every solver shares.

    ``run`` holds the iterate ``x``, the objective there as ``f_x`` (None
    until known) and the callable ``objective``; ``config`` (None for
    ``SolverConfig()``) is held here alone.  Each pass has
    ``run.stop(config)`` evaluate the iterate and return a status or None,
    then checks ``max_iterations`` and the time cap, then calls
    ``run.step(k)``, which only moves ``run.x`` and returns the iteration's
    ``run.record``, kept as a row of the ``Trace``.  An exception from either ends the run
    with a status (``numeric_failure`` for ``NUMERIC_ERRORS``, ``callback_error``
    for a ``CallbackError``), at its last accepted iterate, or surfaces.
    ``run.objective`` is wrapped to check the time cap first, in a line
    search too.  ``f_final`` is the f the run holds, NaN when it holds none:
    ``drive`` never calls f itself.
    """
    config = config if config is not None else SolverConfig()
    t0 = time.perf_counter()
    deadline = t0 + config.time_cap_seconds
    objective = run.objective

    def capped_objective(x):
        if time.perf_counter() > deadline:
            raise _PastDeadline
        return objective(x)
    run.objective = capped_objective
    values = []  # each record's fields in order (a dataclass's vars), flat
    k = 0
    while True:
        try:
            status = run.stop(config)
            if status is None:
                if k >= config.max_iterations:
                    status = STATUS_MAX_ITERATIONS
                elif time.perf_counter() > deadline:
                    status = STATUS_TIME_CAP
                else:
                    values.extend(vars(run.step(k)).values())
        except _PastDeadline:
            status = STATUS_TIME_CAP
        except LineSearchError:
            status = STATUS_LINE_SEARCH_FAILURE
        except QPError:
            status = STATUS_QP_FAILURE
        except NUMERIC_ERRORS:
            status = STATUS_NUMERIC_FAILURE
        except CallbackError:
            status = STATUS_CALLBACK_ERROR
        if status is not None:
            break
        k += 1
        if callback is not None:
            callback(run.x.copy())
    f_final = run.f_x if run.f_x is not None else float("nan")
    return SolveResult(status, run.x, f_final, k, time.perf_counter() - t0,
                       Trace(run.record, values))


class _DescentRun:
    """One run of ``solve_descent``: x, f and grad f at x, and the rule."""
    record = IterationRecord

    def __init__(self, problem, x0, direction):
        if np.shape(x0) != (problem.dimension,):
            raise ValueError(f"{problem.name} expects dimension {problem.dimension}, "
                             f"got x0 of shape {np.shape(x0)}")
        self.objective = problem.objective
        self.gradient = problem.gradient
        self.lower_bound = problem.lower_bound
        self.direction = direction
        self.x = np.asarray(x0, dtype=float).copy()
        self.f_x = None
        self.g = self.gnorm = None  # grad f at x and its norm, from stop()

    def stop(self, config):
        if self.f_x is None:
            self.f_x = float(self.objective(self.x))
        self.g = checked_gradient(self.gradient(self.x), self.x)
        if not np.isfinite(self.f_x):
            raise NumericError("non-finite objective")
        self.gnorm = _norm(self.g)
        if self.gnorm < config.grad_tolerance:
            return STATUS_CONVERGED
        if self.f_x < config.f_floor:
            return STATUS_DIVERGED
        return None

    def step(self, k):
        x, f0, g, gnorm = self.x, self.f_x, self.g, self.gnorm
        p, q_k, M, fallbacks = self.direction(x, g)
        cond = _spd_condition(M)
        slope = float(g @ p)
        if not np.isfinite(slope):
            raise NumericError("non-finite directional derivative at alpha = 0")
        if slope >= 0.0:
            raise LineSearchError(f"not a descent direction (slope {slope:.6g} >= 0)")
        step = backtracking_step(lambda a: float(self.objective(x + a * p)), f0, slope,
                                 self.lower_bound)
        x_new = x + step.alpha * p
        if np.array_equal(x_new, x):
            raise LineSearchError(f"accepted step alpha = {step.alpha:.3g} leaves x unchanged")
        record = IterationRecord(k=k, f_value=f0, grad_norm=gnorm, alpha=step.alpha,
                                 q_k=q_k, cos_theta=-slope / (gnorm * _norm(p)),
                                 condition_number=cond, fallback_count=fallbacks,
                                 trials=step.trials)
        self.x, self.f_x = x_new, step.value
        return record


def solve_descent(problem, x0, direction, config=None, callback=None):
    """Armijo backtracking along the rule's p: the descent run of QLS and BFGS.

    ``direction(x, g)``, g = grad f(x), returns ``(p, q_k, M, fallback_count)``,
    p solving M p = -g; it runs once per iteration.  The run takes M's
    condition number as soon as the rule returns (inf unless M is positive
    definite) and records ``q_k`` and ``fallback_count`` as given (None and 0
    for a rule with no q).  Each pass evaluates f (unless carried) and then
    grad f at x, and ends the run on a non-finite f before any other test;
    each step only moves x, paying one objective evaluation per trial and carrying f
    from the accepted one.  A p with g.p >= 0 fails the line search before any trial.
    """
    return drive(_DescentRun(problem, x0, direction), config, callback)


def solve_qls(problem, x0, config=None, schedule=DEFAULT_SCHEDULE, callback=None):
    """q-line-search: modified q-Hessian direction plus Armijo backtracking.

    The direction solves B_q p = -grad(f) through the factorization computed by
    the modification (no explicit inverse).  ``schedule`` is any iterable of q
    in (0, 1), a ``QSchedule`` say, drawn once per iteration from q_0 on; a run
    that draws from a schedule that has run out ends as ``numeric_failure``.
    """
    grad = problem.gradient
    qs = iter(schedule)

    def direction(x, g):
        if (q_k := next(qs, None)) is None:
            raise NumericError("the q schedule ran out")
        qh = q_hessian(grad, x, q_k, g0=g)
        mod = psd_modify(qh.matrix)
        return mod.solve(-g), q_k, mod.modified_matrix, qh.fallback_count

    return solve_descent(problem, x0, direction, config, callback)


def solve_bfgs(problem, x0, config=None, callback=None):
    """BFGS baseline under the same step, stop test and tracing as ``solve_qls``."""
    B = np.eye(problem.dimension)
    x_prev = g_prev = None

    def direction(x, g):
        nonlocal B, x_prev, g_prev
        if x_prev is not None:
            B = bfgs_update(B, x - x_prev, g - g_prev)
        x_prev, g_prev = x.copy(), g.copy()  # a gradient callback may reuse its buffer
        return np.linalg.solve(B, -g), None, B, 0

    return solve_descent(problem, x0, direction, config, callback)
