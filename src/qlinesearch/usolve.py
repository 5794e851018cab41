"""Unconstrained solvers: q-line-search and the BFGS baseline.

Both solvers share the termination rules (gradient norm, iteration cap, time
cap) and emit the same per-iteration trace.  The q solver rebuilds its
positive definite matrix from scratch every iteration out of the q-Hessian
surrogate; BFGS carries the classical rank-two update forward.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DescentDirectionError, LineSearchError, NumericError
from .linesearch import LineSearchParams, backtracking_step
from .psdfactor import default_delta, psd_modify
from .qcalc import QSchedule, next_q
from .qmatrix import checked_gradient, q_hessian

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_TIME_CAP = "time_cap"
STATUS_LINE_SEARCH_FAILURE = "line_search_failure"
STATUS_NUMERIC_FAILURE = "numeric_failure"
STATUS_QP_FAILURE = "qp_failure"
STATUS_DIVERGED = "diverged"


@dataclass
class SolverConfig:
    grad_tolerance: float = 1e-5
    max_iterations: int = 10_000
    time_cap_seconds: float = 100.0
    line_search: LineSearchParams = field(default_factory=LineSearchParams)
    delta_policy: Optional[callable] = None  # matrix -> delta; None = default rule
    #: unconstrained solvers stop with STATUS_DIVERGED once an accepted step
    #: lands below this objective value (Armijo steps never raise f again);
    #: the SQP solver, whose steps decrease a merit function instead, ignores it
    f_floor: float = float("-inf")

    def __post_init__(self):
        if self.grad_tolerance <= 0.0:
            raise ValueError("gradient tolerance must be positive")
        if self.time_cap_seconds <= 0.0:
            raise ValueError("time cap must be positive")
        if np.isnan(self.f_floor):
            raise ValueError("objective floor must not be NaN")


@dataclass
class IterationRecord:
    k: int
    f_value: float
    grad_norm: float
    alpha: float
    q_k: Optional[float]
    cos_theta: float
    condition_number: float
    fallback_count: int
    trials: int  # line-search trials, one objective evaluation each


@dataclass
class SolveResult:
    status: str
    x_final: np.ndarray
    f_final: float
    iterations: int
    elapsed_seconds: float
    trace: list


def _spd_condition(M):
    w = np.linalg.eigvalsh(M)
    if w[0] <= 0.0:
        return np.inf
    return float(w[-1] / w[0])


def bfgs_update(B, s, y):
    """Rank-two BFGS update of B; skipped (B returned unchanged) unless y.s is
    safely positive, which keeps B positive definite."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    sy = float(y @ s)
    if sy <= 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
        return B
    v = B @ s
    sBs = float(s @ v)
    return B - np.outer(v, v) / sBs + np.outer(y, y) / sy


def _solve_loop(problem, x0, config, direction_fn, callback):
    """Shared iteration: direction_fn(x, g, k) -> (p, q_k, cond, fallbacks, advance).

    The objective at the current iterate is carried over from the accepted
    line-search trial (the same expression f(x + alpha p)), so each
    iteration pays one objective evaluation per trial and one gradient
    evaluation at the accepted step.
    """
    f = problem.objective
    grad = problem.gradient
    x = np.asarray(x0, dtype=float).copy()
    t0 = time.perf_counter()
    trace = []
    k = 0
    status = None
    f_x = None  # f(x), once known
    try:
        g = checked_gradient(grad(x), x)
    except NumericError:
        return SolveResult(STATUS_NUMERIC_FAILURE, x, float("nan"), 0,
                           time.perf_counter() - t0, trace)
    while True:
        gnorm = float(np.linalg.norm(g))
        if gnorm < config.grad_tolerance:
            status = STATUS_CONVERGED
            break
        if f_x is not None and f_x < config.f_floor:
            status = STATUS_DIVERGED
            break
        if k >= config.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break
        if time.perf_counter() - t0 > config.time_cap_seconds:
            status = STATUS_TIME_CAP
            break
        try:
            p, q_k, cond, fallbacks, advance = direction_fn(x, g, k)
            if f_x is None:
                f_x = float(f(x))
            f0 = f_x
            cache = {}

            def phi(a):
                if a == 0.0:
                    return f0
                fa = float(f(x + a * p))
                cache["f"] = (a, fa)
                return fa

            def dphi(a):
                if a == 0.0:
                    return float(g @ p)
                xt = x + a * p
                gt = checked_gradient(grad(xt), xt)
                cache["grad"] = (a, gt)
                return float(gt @ p)

            step = backtracking_step(phi, dphi, config.line_search)
        except (LineSearchError, DescentDirectionError):
            status = STATUS_LINE_SEARCH_FAILURE
            break
        except (NumericError, np.linalg.LinAlgError):
            status = STATUS_NUMERIC_FAILURE
            break
        alpha = step.alpha
        x_new = x + alpha * p
        # the accepted trial is the last phi call, and the curvature test
        # evaluates the gradient there
        f_alpha, f_x = cache["f"]
        g_alpha, g_new = cache.get("grad", (None, None))
        if f_alpha != alpha:
            f_x = None
        try:
            if g_alpha != alpha:
                g_new = checked_gradient(grad(x_new), x_new)
        except NumericError:
            status = STATUS_NUMERIC_FAILURE
            x = x_new
            break
        pnorm = float(np.linalg.norm(p))
        cos_theta = float(-(g @ p) / (gnorm * pnorm))
        trace.append(IterationRecord(k=k, f_value=f0, grad_norm=gnorm, alpha=alpha,
                                     q_k=q_k, cos_theta=cos_theta,
                                     condition_number=cond,
                                     fallback_count=fallbacks, trials=step.trials))
        x = x_new
        g = g_new
        advance()
        k += 1
        if callback is not None:
            callback(x.copy())
    if f_x is None:
        try:
            f_x = float(f(x))
        except Exception:
            f_x = float("nan")
    return SolveResult(status, x, f_x, k, time.perf_counter() - t0, trace)


def solve_qls(problem, x0, config=None, schedule=None, callback=None):
    """q-line-search: modified q-Hessian direction plus backtracking Wolfe steps.

    The direction solves B_q p = -grad(f) through the factorization computed by
    the modification (no explicit inverse).  The schedule starts at q_0 and is
    advanced once per accepted step.
    """
    config = config if config is not None else SolverConfig()
    state = {"schedule": schedule if schedule is not None else QSchedule(0.9, 1)}
    grad = problem.gradient
    policy = config.delta_policy if config.delta_policy is not None else default_delta

    def direction(x, g, k):
        sched = state["schedule"]
        qh = q_hessian(grad, x, sched.q_current, g0=g)
        mod = psd_modify(qh.matrix, policy(qh.matrix))
        p = mod.solve(-g)
        cond = _spd_condition(mod.modified_matrix)

        def advance():
            state["schedule"] = next_q(state["schedule"])

        return p, sched.q_current, cond, qh.fallback_count, advance

    return _solve_loop(problem, x0, config, direction, callback)


def solve_bfgs(problem, x0, config=None, callback=None):
    """BFGS baseline under the same line search, termination and tracing."""
    config = config if config is not None else SolverConfig()
    n = np.asarray(x0).shape[0]
    state = {"B": np.eye(n), "x": None, "g": None}
    grad = problem.gradient

    def direction(x, g, k):
        if state["x"] is not None:
            s = x - state["x"]
            y = g - state["g"]
            state["B"] = bfgs_update(state["B"], s, y)
        state["x"] = x.copy()
        state["g"] = g.copy()
        B = state["B"]
        p = np.linalg.solve(B, -g)
        cond = _spd_condition(B)

        def advance():
            pass

        return p, None, cond, 0, advance

    return _solve_loop(problem, x0, config, direction, callback)
