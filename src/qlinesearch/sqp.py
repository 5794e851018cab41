"""SQP with q-Hessian Lagrangian surrogates: QP subproblem, l1 merit search.

Each iteration builds the positive definite modification of the Lagrangian's
q-Hessian, solves the inequality-constrained QP model by a primal active-set
method (equality-only subproblems go through one KKT factorization), picks a
common step length for (x, u, v) by backtracking on the exact l1 penalty, and
advances the q schedule.  Convergence is declared on the KKT residual
||grad L|| + ||h|| + ||min(v, -g)||.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DegenerateConstraintError, LineSearchError, NumericError,
                     QPError)
from .psdfactor import default_delta, ldl_factor, psd_modify
from .qcalc import QSchedule, next_q
from .qmatrix import q_hessian_lagrangian
from .usolve import (STATUS_CONVERGED, STATUS_LINE_SEARCH_FAILURE,
                     STATUS_MAX_ITERATIONS, STATUS_NUMERIC_FAILURE,
                     STATUS_QP_FAILURE, STATUS_TIME_CAP, SolveResult,
                     SolverConfig)


@dataclass
class ConstrainedProblem:
    """min f(x) s.t. h(x) = 0 (m of them), g(x) <= 0 (p of them), m < n.

    Jacobian callbacks return (m, n) / (p, n) arrays with constraint
    gradients as rows.  ``u0`` / ``v0`` default to zero multipliers.
    """

    objective: callable
    gradient: callable
    x0: np.ndarray
    h: callable = None
    jac_h: callable = None
    g: callable = None
    jac_g: callable = None
    u0: np.ndarray = None
    v0: np.ndarray = None
    n_eq: int = 0
    n_ineq: int = 0

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        n = self.x0.shape[0]
        if self.n_eq >= n and self.n_eq > 0:
            raise ValueError("need fewer equality constraints than variables")
        self.u0 = np.zeros(self.n_eq) if self.u0 is None else np.asarray(self.u0, float)
        self.v0 = np.zeros(self.n_ineq) if self.v0 is None else np.asarray(self.v0, float)


@dataclass
class QpSolution:
    """QP minimizer with its multipliers (d_u for equalities, d_v >= 0 for
    inequalities; inactive inequalities carry multiplier 0)."""

    d_x: np.ndarray
    d_u: np.ndarray
    d_v: np.ndarray
    active_set: tuple


@dataclass
class SqpTraceRecord:
    k: int
    merit_value: float
    kkt_residual: float
    alpha: float
    q_k: float
    beta1_observed: float
    beta2_observed: float
    beta3_observed: float
    merit_penalty: float


def kkt_solve(B, grad, A_eq, rhs):
    """Solve the equality-constrained QP  min g.d + d.B.d/2  s.t.  A_eq d = rhs.

    Returns (d, lam) with B d + grad + A_eq^T lam = 0 and A_eq d = rhs, via a
    symmetric indefinite factorization of the KKT matrix (no modification).
    """
    B = np.asarray(B, dtype=float)
    grad = np.asarray(grad, dtype=float)
    A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    n = grad.shape[0]
    if A_eq.size == 0:
        A_eq = A_eq.reshape(0, n)
    m = A_eq.shape[0]
    if m > 0 and np.linalg.matrix_rank(A_eq) < m:
        raise DegenerateConstraintError("equality-constraint rows are linearly dependent")
    K = np.zeros((n + m, n + m))
    K[:n, :n] = 0.5 * (B + B.T)
    K[n:, :n] = A_eq
    K[:n, n:] = A_eq.T
    full_rhs = np.concatenate([-grad, rhs])
    sol = ldl_factor(K).solve(full_rhs)
    return sol[:n], sol[n:]


def merit_l1(f_val, h_vals, g_vals, mu):
    """Exact l1 penalty: f + mu * (sum |h_i| + sum max(0, g_j))."""
    if mu <= 0.0:
        raise ValueError("penalty parameter must be positive")
    total = float(f_val)
    if h_vals is not None and len(h_vals) > 0:
        total += mu * float(np.sum(np.abs(h_vals)))
    if g_vals is not None and len(g_vals) > 0:
        total += mu * float(np.sum(np.maximum(0.0, g_vals)))
    return total


def _violation(h_vals, g_vals):
    total = 0.0
    if h_vals is not None and len(h_vals) > 0:
        total += float(np.sum(np.abs(h_vals)))
    if g_vals is not None and len(g_vals) > 0:
        total += float(np.sum(np.maximum(0.0, g_vals)))
    return total


def _active_set_iterate(B, grad, A_eq, b_eq, A_in, b_in, d_start, work_set, max_iter):
    """Primal active-set loop from a feasible d_start.

    Each pass solves the equality QP pinned to the working set in position
    form, steps toward its minimizer with a ratio test on the inactive
    inequalities, and adds/drops constraints until the KKT conditions hold.
    """
    n = grad.shape[0]
    m = A_eq.shape[0]
    p = A_in.shape[0]
    d = np.asarray(d_start, dtype=float).copy()
    W = list(work_set)
    scale = 1.0 + float(np.max(np.abs(b_in))) if p else 1.0
    for _ in range(max_iter):
        rows = np.vstack([A_eq, A_in[W]]) if (m or W) else np.zeros((0, n))
        rhs = np.concatenate([b_eq, b_in[W]]) if (m or W) else np.zeros(0)
        try:
            d_new, mult = kkt_solve(B, grad, rows, rhs)
        except DegenerateConstraintError as exc:
            raise QPError(f"degenerate working set {sorted(W)}: {exc}") from exc
        step = d_new - d
        if float(np.max(np.abs(step), initial=0.0)) <= 1e-12 * (1.0 + float(np.max(np.abs(d_new), initial=0.0))):
            mu_W = mult[m:]
            if mu_W.size == 0 or float(np.min(mu_W)) >= -1e-9:
                d_v = np.zeros(p)
                for idx, wi in enumerate(W):
                    d_v[wi] = max(float(mu_W[idx]), 0.0)
                return QpSolution(d_x=d_new, d_u=mult[:m], d_v=d_v,
                                  active_set=tuple(sorted(W)))
            W.pop(int(np.argmin(mu_W)))
            continue
        blocking = -1
        alpha = 1.0
        for i in range(p):
            if i in W:
                continue
            advance = float(A_in[i] @ step)
            if advance > 1e-13 * scale:
                ratio = (float(b_in[i]) - float(A_in[i] @ d)) / advance
                ratio = max(ratio, 0.0)
                if ratio < alpha:
                    alpha = ratio
                    blocking = i
        if blocking < 0:
            d = d_new
        else:
            d = d + alpha * step
            W.append(blocking)
    raise QPError("active-set iteration did not terminate")


def _feasible_start(A_eq, b_eq, A_in, b_in):
    """A point satisfying the QP constraints, via least squares plus (if
    needed) an auxiliary strictly convex phase-1 QP in (d, t)."""
    n = A_eq.shape[1] if A_eq.size else A_in.shape[1]
    m = A_eq.shape[0]
    p = A_in.shape[0]
    if m > 0:
        d0, *_ = np.linalg.lstsq(A_eq, b_eq, rcond=None)
    else:
        d0 = np.zeros(n)
    if p == 0:
        return d0
    viol = float(np.max(A_in @ d0 - b_in, initial=0.0))
    if viol <= 1e-10 * (1.0 + float(np.max(np.abs(b_in), initial=0.0))):
        return d0
    # Phase 1: min t^2/2 + eps/2 ||d - d0||^2  s.t.  A_eq d = b_eq,
    # A_in d - t <= b_in, -t <= 0, started strictly feasible at t = viol + 1.
    # The d-regularization must be tiny: the optimal t is O(eps_reg) whenever
    # the true feasible region is nonempty.
    eps_reg = 1e-8
    B1 = np.eye(n + 1) * eps_reg
    B1[n, n] = 1.0
    grad1 = np.concatenate([-eps_reg * d0, [0.0]])
    A_eq1 = np.hstack([A_eq, np.zeros((m, 1))]) if m else np.zeros((0, n + 1))
    A_in1 = np.vstack([np.hstack([A_in, -np.ones((p, 1))]),
                       np.concatenate([np.zeros(n), [-1.0]])[None, :]])
    b_in1 = np.concatenate([b_in, [0.0]])
    z0 = np.concatenate([d0, [viol + 1.0]])
    sol = _active_set_iterate(B1, grad1, A_eq1, b_eq, A_in1, b_in1, z0, [],
                              max_iter=50 + 10 * (p + m + 1))
    d1 = sol.d_x[:n]
    residual = float(np.max(A_in @ d1 - b_in, initial=0.0))
    if residual > 1e-7 * (1.0 + float(np.max(np.abs(b_in), initial=0.0))):
        raise QPError(f"QP constraints infeasible (phase-1 residual {residual:.3e})")
    return d1


def qp_active_set(B, grad, eq=None, ineq=None, warm_start=None):
    """Minimize g.d + d.B.d/2 subject to A_eq d = b_eq and A_in d <= b_in.

    B must be positive definite, so the minimizer is unique.  ``warm_start``
    is an iterable of inequality indices used to seed the working set.
    Infeasible constraints raise ``QPError``.
    """
    B = np.asarray(B, dtype=float)
    grad = np.asarray(grad, dtype=float)
    n = grad.shape[0]
    A_eq, b_eq = eq if eq is not None else (np.zeros((0, n)), np.zeros(0))
    A_in, b_in = ineq if ineq is not None else (np.zeros((0, n)), np.zeros(0))
    A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float)) if np.size(A_eq) else np.zeros((0, n))
    A_in = np.atleast_2d(np.asarray(A_in, dtype=float)) if np.size(A_in) else np.zeros((0, n))
    b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float)) if np.size(b_eq) else np.zeros(0)
    b_in = np.atleast_1d(np.asarray(b_in, dtype=float)) if np.size(b_in) else np.zeros(0)
    p = A_in.shape[0]
    if p == 0:
        d, lam = kkt_solve(B, grad, A_eq, b_eq)
        return QpSolution(d_x=d, d_u=lam, d_v=np.zeros(0), active_set=())
    d0 = _feasible_start(A_eq, b_eq, A_in, b_in)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(b_in))))
    active0 = [i for i in range(p) if A_in[i] @ d0 - b_in[i] >= -tol]
    if warm_start is not None:
        work = [i for i in warm_start if i in active0]
    else:
        work = []
    return _active_set_iterate(B, grad, A_eq, b_eq, A_in, b_in, d0, work,
                               max_iter=100 + 20 * p)


def _sqp_delta(A):
    # The Lagrangian surrogate vanishes at cold multiplier starts; a unit
    # eigenvalue floor keeps the first QP steps (and the multiplier jump
    # toward the QP estimate) at sane scale.  Only constrained problems use
    # it: without constraints the floor would only slow the q-Newton step.
    return max(1.0, default_delta(A))


def _beta_monitors(M, jac_eq):
    w = np.linalg.eigvalsh(M)
    beta2 = float(np.max(np.abs(w)))
    beta3 = float(1.0 / np.min(np.abs(w))) if np.min(np.abs(w)) > 0 else np.inf
    if jac_eq is not None and jac_eq.shape[0] > 0:
        _, s, vt = np.linalg.svd(jac_eq)
        rank = int(np.sum(s > s[0] * 1e-12)) if s.size else 0
        Z = vt[rank:].T
    else:
        Z = np.eye(M.shape[0])
    if Z.shape[1] == 0:
        beta1 = float("nan")
    else:
        beta1 = float(np.min(np.linalg.eigvalsh(Z.T @ M @ Z)))
    return beta1, beta2, beta3


def solve_qsqp(problem, config=None, schedule=None, callback=None):
    """q-line-search SQP on a ConstrainedProblem.

    With no constraints at all the iterate sequence coincides exactly with
    ``solve_qls`` on the same objective, config and schedule (the q-Hessian
    is then modified under the same default eigenvalue floor).  The
    objective and constraint values at a new iterate are carried over from
    the accepted merit trial; ``config.f_floor`` is not used.
    """
    config = config if config is not None else SolverConfig()
    schedule = schedule if schedule is not None else QSchedule(0.9, 1)
    f = problem.objective
    grad = problem.gradient
    m = problem.n_eq
    p = problem.n_ineq
    x = problem.x0.astype(float).copy()
    u = problem.u0.astype(float).copy()
    v = problem.v0.astype(float).copy()
    n = x.shape[0]
    ls = config.line_search
    policy = config.delta_policy
    if policy is None:
        policy = _sqp_delta if (m or p) else default_delta

    mu_pen = 1.0
    warm = None
    trace = []
    k = 0
    status = None
    t0 = time.perf_counter()

    def eval_h(pt):
        return (np.atleast_1d(np.asarray(problem.h(pt), float)) if m else np.zeros(0))

    def eval_g(pt):
        return (np.atleast_1d(np.asarray(problem.g(pt), float)) if p else np.zeros(0))

    held = None  # (f, h, g) at x, once known
    while True:
        try:
            if held is None:
                held = (float(f(x)), eval_h(x), eval_g(x))
            fval, hx, gx = held
            g_obj = np.asarray(grad(x), dtype=float)
            Jh = np.atleast_2d(np.asarray(problem.jac_h(x), float)) if m else np.zeros((0, n))
            Jg = np.atleast_2d(np.asarray(problem.jac_g(x), float)) if p else np.zeros((0, n))
            if not (np.isfinite(fval) and np.all(np.isfinite(g_obj))
                    and np.all(np.isfinite(hx)) and np.all(np.isfinite(gx))):
                status = STATUS_NUMERIC_FAILURE
                break
        except (ArithmeticError, FloatingPointError):
            status = STATUS_NUMERIC_FAILURE
            break
        # zero multipliers add nothing, as in q_hessian_lagrangian, so this is
        # bitwise the gradient the q-Hessian would evaluate at x
        grad_lag = g_obj
        if m and np.any(u != 0.0):
            grad_lag = grad_lag + Jh.T @ u
        if p and np.any(v != 0.0):
            grad_lag = grad_lag + Jg.T @ v
        residual = float(np.linalg.norm(grad_lag))
        residual += float(np.linalg.norm(hx))
        if p:
            residual += float(np.linalg.norm(np.minimum(v, -gx)))
        if residual < config.grad_tolerance:
            status = STATUS_CONVERGED
            break
        if k >= config.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break
        if time.perf_counter() - t0 > config.time_cap_seconds:
            status = STATUS_TIME_CAP
            break

        try:
            qh = q_hessian_lagrangian(grad, x, schedule.q_current,
                                      jac_h=problem.jac_h if m else None, u=u if m else None,
                                      jac_g=problem.jac_g if p else None, v=v if p else None,
                                      g0=grad_lag)
            mod = psd_modify(qh.matrix, policy(qh.matrix))
            if m == 0 and p == 0:
                d = mod.solve(-g_obj)
                lam_new = np.zeros(0)
                mu_new = np.zeros(0)
            else:
                qp = qp_active_set(mod.modified_matrix, g_obj,
                                   eq=(Jh, -hx), ineq=(Jg, -gx), warm_start=warm)
                d, lam_new, mu_new = qp.d_x, qp.d_u, qp.d_v
                warm = qp.active_set
        except QPError:
            status = STATUS_QP_FAILURE
            break
        except (NumericError, np.linalg.LinAlgError, DegenerateConstraintError):
            status = STATUS_NUMERIC_FAILURE
            break

        mult_norm = float(np.max(np.abs(np.concatenate([lam_new, mu_new])), initial=0.0))
        mu_pen = max(mu_pen, mult_norm + 1.0)
        viol0 = _violation(hx, gx)
        phi0 = fval + mu_pen * viol0
        slope = float(g_obj @ d) - mu_pen * viol0

        if float(np.max(np.abs(d), initial=0.0)) <= 1e-14 * max(1.0, float(np.max(np.abs(x)))):
            alpha = 1.0  # multiplier-only update; x barely moves, so re-evaluate
            accepted = None
        else:
            alpha = None
            trial = ls.alpha0
            for _ in range(ls.max_halvings + 1):
                xt = x + trial * d
                f_t, h_t, g_t = float(f(xt)), eval_h(xt), eval_g(xt)
                phi_t = f_t + mu_pen * _violation(h_t, g_t)
                if phi_t <= phi0 + ls.c1 * trial * slope:
                    alpha = trial
                    accepted = (f_t, h_t, g_t)  # at x + alpha d, the next iterate
                    break
                trial *= ls.backtrack_factor
            if alpha is None:
                status = STATUS_LINE_SEARCH_FAILURE
                break

        beta1, beta2, beta3 = _beta_monitors(mod.modified_matrix, Jh if m else None)
        trace.append(SqpTraceRecord(k=k, merit_value=phi0, kkt_residual=residual,
                                    alpha=alpha, q_k=schedule.q_current,
                                    beta1_observed=beta1, beta2_observed=beta2,
                                    beta3_observed=beta3, merit_penalty=mu_pen))
        x = x + alpha * d
        held = accepted
        if m:
            u = u + alpha * (lam_new - u)
        if p:
            v = v + alpha * (mu_new - v)
        schedule = next_q(schedule)
        k += 1
        if callback is not None:
            callback(x.copy())

    try:
        f_final = held[0] if held is not None else float(f(x))
    except Exception:
        f_final = float("nan")
    return SolveResult(status=status, x_final=x, f_final=f_final, iterations=k,
                       elapsed_seconds=time.perf_counter() - t0, trace=trace)
