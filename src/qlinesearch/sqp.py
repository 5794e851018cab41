"""SQP with q-Hessian Lagrangian surrogates: QP subproblem, l1 merit search.

Each iteration factors the positive definite modification B of the
Lagrangian's q-Hessian once, solves the inequality-constrained QP model on
that factorization by the dual active-set method of Goldfarb & Idnani
(started at the equality-constrained minimizer, each working-set
subproblem by the range-space method, with no KKT matrix), picks a common
step length for (x, u, v) by backtracking on the exact l1 penalty
f + mu (sum |h_i| + sum max(0, g_j)), and advances the q schedule.
Convergence is declared on the KKT residual ||grad L|| + ||h|| + ||min(v, -g)||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GradientShapeError, LineSearchError, NumericError, QPError, check_counts
from .psdfactor import default_delta, ldl_factor, psd_modify
from .qmatrix import (checked_gradient, checked_jacobian, lagrangian_gradient,
                      q_hessian_lagrangian)
from .usolve import DEFAULT_SCHEDULE, STATUS_CONVERGED, _norm, backtracking_step, drive


@dataclass(eq=False)
class ConstrainedProblem:
    """min f(x) s.t. h(x) = 0 (m of them), g(x) <= 0 (p of them), m < n.

    ``h``, ``jac_h`` are given exactly when m = n_eq > 0, and ``g``, ``jac_g``
    when p = n_ineq > 0; they return (m,), (m, n), (p,), (p, n) arrays, with
    constraint gradients as rows.  A value of the wrong shape or a non-finite
    Jacobian ends the run as ``numeric_failure``.  ``u0``, ``v0`` default to 0.
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
        check_counts(0, n_eq=self.n_eq, n_ineq=self.n_ineq)
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.ndim != 1:
            raise ValueError(f"x0 must be a vector, got shape {self.x0.shape}")
        n = self.x0.shape[0]
        if self.n_eq >= n and self.n_eq > 0:
            raise ValueError("need fewer equality constraints than variables")
        for names in (("n_eq", "h", "jac_h"), ("n_ineq", "g", "jac_g")):
            count, value, jac = (getattr(self, a) for a in names)
            if not (value is None) == (jac is None) == (count == 0):
                raise ValueError("{1} and {2} are given exactly when {0} > 0".format(*names))
        self.u0 = np.zeros(self.n_eq) if self.u0 is None else np.asarray(self.u0, float)
        self.v0 = np.zeros(self.n_ineq) if self.v0 is None else np.asarray(self.v0, float)
        if self.u0.shape != (self.n_eq,) or self.v0.shape != (self.n_ineq,):
            raise ValueError("u0 and v0 need one multiplier per equality and inequality")


@dataclass(eq=False)
class QpSolution:
    """QP minimizer with its multipliers (d_u for equalities, d_v >= 0 for
    inequalities; inactive inequalities carry multiplier 0)."""

    d_x: np.ndarray
    d_u: np.ndarray
    d_v: np.ndarray
    active_set: tuple


@dataclass
class SqpTraceRecord:
    """Iteration k of SQP: x moves by alpha d, and u and v by alpha toward
    the QP's multipliers.

    ``merit_value`` is the l1 merit at x_k under the step's penalty
    ``merit_penalty``, and ``kkt_residual`` the KKT residual at (x_k, u_k,
    v_k).  ``alpha`` is the accepted step length and ``q_k`` the step's q.
    B is the modified q-Hessian of the Lagrangian that the QP solved with:
    ``beta1_observed`` is the least eigenvalue of B on J_h's null space, B's
    least eigenvalue without equalities; ``beta2_observed`` is max |lambda(B)|
    and ``beta3_observed`` is 1 / min |lambda(B)|, inf when that is 0.
    """

    k: int
    merit_value: float
    kkt_residual: float
    alpha: float
    q_k: float
    beta1_observed: float
    beta2_observed: float
    beta3_observed: float
    merit_penalty: float


def _rows(A, n):
    A = np.asarray(A, dtype=float)
    return A.reshape(0, n) if A.size == 0 else np.atleast_2d(A)


def kkt_solve(B, grad, A_eq, rhs):
    """Solve the equality-constrained QP  min g.d + d.B.d/2  s.t.  A_eq d = rhs.

    Returns (d, lam) with B d + grad + A_eq^T lam = 0 and A_eq d = rhs, by the
    range-space method (Nocedal & Wright 2006, 16.2): with d0 = B^-1 (-grad)
    and Y = B^-1 A_eq^T, lam solves (A_eq Y) lam = A_eq d0 - rhs and
    d = d0 - Y lam.  B is a factorization of a nonsingular symmetric
    matrix: anything with ``.solve``, such as ``ldl_factor``'s or
    ``psd_modify``'s result.  Dependent rows give a vanishing pivot of
    A_eq Y and raise ``QPError``.
    """
    grad = np.asarray(grad, dtype=float)
    A_eq = _rows(A_eq, grad.shape[0])
    d0 = B.solve(-grad)
    if A_eq.shape[0] == 0:
        return d0, np.zeros(0)
    Y = B.solve(A_eq.T)
    S = A_eq @ Y
    try:
        lam = ldl_factor(0.5 * (S + S.T)).solve(A_eq @ d0 - np.atleast_1d(rhs))
    except np.linalg.LinAlgError as exc:
        raise QPError("dependent constraint rows") from exc
    return d0 - Y @ lam, lam


def _penalized(f_val, violation, mu):
    return float(f_val) + mu * violation


def _violation(h_vals, g_vals):
    return float(np.abs(h_vals).sum()) + float(np.maximum(0.0, g_vals).sum())


def qp_active_set(B, grad, eq=((), ()), ineq=((), ())):
    """Minimize g.d + d.B.d/2 subject to A_eq d = b_eq and A_in d <= b_in.

    B must be positive definite, so the minimizer is unique.  It is given
    as a factorization: anything with ``.solve``, such as ``psd_modify``'s
    result.  ``eq`` and ``ineq`` are (A, b) pairs, each empty by default.

    The dual active-set method of Goldfarb & Idnani (1983; Nocedal & Wright
    2006, 16.8) starts at the equality-constrained minimizer, so it needs no
    feasible start.  It adds the most violated inequality q by raising q's
    multiplier while the working set W stays pinned: a full step makes q
    active, a partial step drops the row of W whose multiplier reaches zero
    first.  A row q in the span of the equality rows and W's rows moves
    only the multipliers.  After each full step, d and the multipliers are
    solved afresh with W pinned, W in the order its rows were added.
    Infeasible constraints (neither step bounded) and dependent equality
    rows raise ``QPError``.
    """
    grad = np.asarray(grad, dtype=float)
    n = grad.shape[0]
    (A_eq, b_eq), (A_in, b_in) = eq, ineq
    A_eq, A_in = _rows(A_eq, n), _rows(A_in, n)
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    b_in = np.asarray(b_in, dtype=float).reshape(-1)
    m, p = A_eq.shape[0], A_in.shape[0]
    tol = 1e-9 * (1.0 + float(np.abs(b_in).max(initial=0.0)))
    W = []
    q = -1  # the inequality being added, or -1 between additions
    d, mult = kkt_solve(B, grad, A_eq, b_eq)
    for _ in range(100 + 20 * p):
        if q < 0:
            viol = A_in @ d - b_in
            viol[W] = -np.inf
            q = int(viol.argmax()) if p else -1
            if q < 0 or viol[q] <= tol:
                d_v = np.zeros(p)
                d_v[W] = np.maximum(mult[m:], 0.0)
                return QpSolution(d_x=d, d_u=mult[:m], d_v=d_v,
                                  active_set=tuple(sorted(W)))
        a_q = A_in[q]
        rows = np.vstack([A_eq, A_in[W]])
        z, r = kkt_solve(B, a_q, rows, np.zeros(rows.shape[0]))
        # partial step: the first multiplier of W to fall to zero
        t1, drop = np.inf, -1
        for j in range(len(W)):
            if r[m + j] < 0.0 and -mult[m + j] / r[m + j] < t1:
                t1, drop = -mult[m + j] / r[m + j], j
        # full step: unbounded when a_q lies in the span of the rows
        t2, curvature = np.inf, -float(a_q @ z)
        if curvature > 0.0 and np.abs(a_q + rows.T @ r).max() > 1e-9 * np.abs(a_q).max():
            t2 = (float(a_q @ d) - b_in[q]) / curvature
        if t2 <= t1:
            if t2 == np.inf:
                raise QPError("QP constraints infeasible")
            W.append(q)
            q = -1
            d, mult = kkt_solve(B, grad, np.vstack([A_eq, A_in[W]]),
                                np.concatenate([b_eq, b_in[W]]))
        else:
            d = d + t1 * z
            mult = np.delete(mult + t1 * r, m + drop)
            del W[drop]
    raise QPError("active-set iteration did not terminate")


def _sqp_delta(A):
    # The Lagrangian surrogate vanishes at cold multiplier starts; a unit
    # eigenvalue floor keeps the first QP steps (and the multiplier jump
    # toward the QP estimate) at sane scale.  Only constrained problems use
    # it: without constraints the floor would only slow the q-Newton step.
    return max(1.0, default_delta(A))


def _beta_monitors(M, jac_eq):
    w = np.linalg.eigvalsh(M)  # ascending, so the largest |w_i| is at one end
    beta2, least = float(max(w[-1], -w[0])), np.abs(w).min()
    beta3 = float(1.0 / least) if least > 0 else np.inf
    if jac_eq.shape[0] == 0:  # the null space is everything: beta1 is M's least eigenvalue
        return float(w[0]), beta2, beta3
    # ConstrainedProblem keeps m < n: a nonempty J_h has singular values, and
    # its null space Z, the columns of vt past J_h's rank, is never empty.
    _, s, vt = np.linalg.svd(jac_eq)
    Z = vt[int((s > s[0] * 1e-12).sum()):].T
    beta1 = float(np.linalg.eigvalsh(Z.T @ M @ Z)[0])
    return beta1, beta2, beta3


class _SqpRun:
    """One SQP run in the shared driver: the primal-dual iterate, the l1
    penalty, and f, h and g at x, each None until known."""
    record = SqpTraceRecord

    def __init__(self, problem, schedule):
        self.problem = problem
        self.objective = problem.objective
        self.qs = iter(schedule)  # q_0, q_1, ...: one per step
        self.x = problem.x0.astype(float)
        self.u = problem.u0.astype(float)
        self.v = problem.v0.astype(float)
        self.mu_pen = 1.0
        self.f_x = self.h_x = self.g_x = None
        self.at_x = None  # derivatives and KKT residual at x, from stop()
        self.flat_from = None  # the KKT residual before a step that left the merit unchanged

    def _values(self, pt):
        prob = self.problem
        f = float(self.objective(pt))
        h = np.atleast_1d(np.asarray(prob.h(pt), float)) if prob.n_eq else np.zeros(0)
        g = np.atleast_1d(np.asarray(prob.g(pt), float)) if prob.n_ineq else np.zeros(0)
        if h.shape != (prob.n_eq,) or g.shape != (prob.n_ineq,):
            raise GradientShapeError(f"constraints returned shapes {h.shape} and {g.shape}, "
                                     f"expected ({prob.n_eq},) and ({prob.n_ineq},)")
        return f, h, g

    def stop(self, config):
        prob, x, u, v = self.problem, self.x, self.u, self.v
        m, p, n = prob.n_eq, prob.n_ineq, x.shape[0]
        if self.f_x is None:
            self.f_x, self.h_x, self.g_x = self._values(x)
        fval, hx, gx = self.f_x, self.h_x, self.g_x
        g_obj = checked_gradient(prob.gradient(x), x)
        Jh = checked_jacobian(prob.jac_h(x), m, x) if m else np.zeros((0, n))
        Jg = checked_jacobian(prob.jac_g(x), p, x) if p else np.zeros((0, n))
        if not (np.isfinite(fval) and np.isfinite(hx).all() and np.isfinite(gx).all()):
            raise NumericError("non-finite objective or constraint value", point=x.copy())
        # the same function the q-Hessian's closure calls, so this is bitwise
        # the gradient it would evaluate at x
        grad_lag = lagrangian_gradient(g_obj, Jh, u, Jg, v)
        residual = _norm(grad_lag) + _norm(hx) + _norm(np.minimum(v, -gx))
        if residual < config.grad_tolerance:
            return STATUS_CONVERGED
        if self.flat_from is not None and not residual < self.flat_from:
            # the run cannot move: at its rounding floor, or on a wrong gradient
            raise LineSearchError("a flat merit step did not lower the KKT residual")
        self.at_x = (g_obj, Jh, Jg, grad_lag, residual)
        return None

    def step(self, k):
        prob, x, u, v = self.problem, self.x, self.u, self.v
        m, p = prob.n_eq, prob.n_ineq
        q_k = next(self.qs)
        fval, hx, gx = self.f_x, self.h_x, self.g_x
        g_obj, Jh, Jg, grad_lag, residual = self.at_x
        qh = q_hessian_lagrangian(prob.gradient, x, q_k, jac_h=prob.jac_h, u=u,
                                  jac_g=prob.jac_g, v=v, g0=grad_lag)
        mod = psd_modify(qh.matrix, _sqp_delta(qh.matrix) if m or p else None)
        # without constraints this is mod.solve(-g_obj), the q-Newton step
        qp = qp_active_set(mod, g_obj, eq=(Jh, -hx), ineq=(Jg, -gx))
        d, lam_new, mu_new = qp.d_x, qp.d_u, qp.d_v

        mult_norm = float(np.abs(np.concatenate([lam_new, mu_new])).max(initial=0.0))
        mu_pen = self.mu_pen = max(self.mu_pen, mult_norm + 1.0)
        violation = _violation(hx, gx)
        phi0 = _penalized(fval, violation, mu_pen)
        slope = float(g_obj @ d) - mu_pen * violation

        accepted = (None, None, None)  # (f, h, g) at the last merit trial
        self.flat_from = None
        if float(np.abs(d).max(initial=0.0)) <= 1e-14 * max(1.0, float(np.abs(x).max())):
            alpha = 1.0  # multiplier-only update; x barely moves, so re-evaluate
        else:
            def merit(a):
                nonlocal accepted
                accepted = f, h, g = self._values(x + a * d)
                return _penalized(f, _violation(h, g), mu_pen)

            # no descent check: the slope can round to a tiny positive
            # number on a step that still decreases the merit
            step = backtracking_step(merit, phi0, slope)
            alpha = step.alpha
            if not step.value < phi0:  # a flat step: stop() checks that the residual fell
                self.flat_from = residual

        beta1, beta2, beta3 = _beta_monitors(mod.modified_matrix, Jh)
        record = SqpTraceRecord(k=k, merit_value=phi0, kkt_residual=residual,
                                alpha=alpha, q_k=q_k,
                                beta1_observed=beta1, beta2_observed=beta2,
                                beta3_observed=beta3, merit_penalty=mu_pen)
        self.x = x + alpha * d
        self.f_x, self.h_x, self.g_x = accepted
        self.u = u + alpha * (lam_new - u)
        self.v = v + alpha * (mu_new - v)
        return record


def solve_qsqp(problem, config=None, schedule=DEFAULT_SCHEDULE, callback=None):
    """q-line-search SQP on a ConstrainedProblem.

    With no constraints at all the iterate sequence coincides exactly with
    ``solve_qls`` on the same objective, schedule and config, if the
    config's ``f_floor`` is -inf (the q-Hessian is then modified under the
    same default eigenvalue floor).  ``config.f_floor`` is not used, so under
    a finite floor QLS may stop as ``diverged`` where this run goes on.  The
    objective and constraint values at a new iterate are carried over from
    the accepted merit trial.  ``schedule`` is as in ``solve_qls``: any
    iterable of q in (0, 1), drawn once per iteration from q_0 on.
    """
    return drive(_SqpRun(problem, schedule), config, callback)
