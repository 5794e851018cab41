import numpy as np
import pytest

from qlinesearch.errors import DegenerateConstraintError, QPError
from qlinesearch.problems import Problem
from qlinesearch.qcalc import QSchedule
from qlinesearch.sqp import (ConstrainedProblem, kkt_solve, merit_l1,
                             qp_active_set, solve_qsqp)
from qlinesearch.usolve import STATUS_CONVERGED, SolverConfig, solve_qls


def circle_problem(x0=(-0.5, -1.5), u0=0.0):
    return ConstrainedProblem(
        objective=lambda x: float(x[0] + x[1]),
        gradient=lambda x: np.array([1.0, 1.0]),
        x0=np.array(x0, dtype=float),
        h=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
        jac_h=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        u0=np.array([u0]),
        n_eq=1)


def kkt_residual(B, grad, A_eq, rhs, d, lam):
    r1 = B @ d + grad + (A_eq.T @ lam if A_eq.size else 0.0)
    r2 = A_eq @ d - rhs if A_eq.size else np.zeros(0)
    return max(np.max(np.abs(r1)), np.max(np.abs(r2), initial=0.0))


class TestKktSolve:
    def test_hand_example_antisymmetric_constraint(self):
        d, lam = kkt_solve(np.eye(2), np.array([1.0, 1.0]),
                           np.array([[1.0, -1.0]]), np.array([0.0]))
        np.testing.assert_allclose(d, [-1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(lam, [0.0], atol=1e-12)

    def test_stationary_feasible_input(self):
        d, lam = kkt_solve(np.eye(3), np.zeros(3),
                           np.array([[1.0, 0.0, 0.0]]), np.array([0.0]))
        np.testing.assert_allclose(d, np.zeros(3), atol=1e-14)
        np.testing.assert_allclose(lam, [0.0], atol=1e-14)

    def test_pinned_coordinate(self):
        d, lam = kkt_solve(2.0 * np.eye(2), np.array([2.0, 0.0]),
                           np.array([[1.0, 0.0]]), np.array([0.0]))
        np.testing.assert_allclose(d, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(lam, [-2.0], atol=1e-12)

    def test_rank_deficient_rows_rejected(self):
        with pytest.raises(DegenerateConstraintError):
            kkt_solve(np.eye(2), np.zeros(2),
                      np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))

    def test_random_residuals(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(0, n))
            M = rng.uniform(-1, 1, (n, n))
            B = M @ M.T + 0.3 * np.eye(n)
            A = rng.uniform(-1, 1, (m, n))
            if m and np.linalg.matrix_rank(A) < m:
                continue
            g = rng.uniform(-1, 1, n)
            rhs = rng.uniform(-1, 1, m)
            d, lam = kkt_solve(B, g, A, rhs)
            data = 1.0 + max(np.max(np.abs(g)), np.max(np.abs(rhs), initial=0.0))
            assert kkt_residual(B, g, A, rhs, d, lam) < 1e-8 * data


class TestMeritL1:
    def test_feasible_point_is_plain_objective(self):
        assert merit_l1(3.5, np.zeros(2), np.array([-1.0, -0.5]), 10.0) == 3.5

    def test_equality_violation(self):
        assert merit_l1(1.0, np.array([0.5]), None, 10.0) == pytest.approx(6.0)

    def test_only_violated_inequalities_count(self):
        assert merit_l1(0.0, None, np.array([-1.0, 2.0]), 2.0) == pytest.approx(4.0)

    def test_positive_mu_required(self):
        with pytest.raises(ValueError):
            merit_l1(0.0, None, None, 0.0)


class TestQpActiveSet:
    def test_no_inequalities_matches_kkt_solve(self):
        B = 2.0 * np.eye(2)
        g = np.array([2.0, 0.0])
        A = np.array([[1.0, 0.0]])
        rhs = np.array([0.0])
        sol = qp_active_set(B, g, eq=(A, rhs))
        d, lam = kkt_solve(B, g, A, rhs)
        np.testing.assert_array_equal(sol.d_x, d)
        np.testing.assert_array_equal(sol.d_u, lam)
        assert sol.active_set == ()

    def test_active_bound(self):
        sol = qp_active_set(np.eye(2), np.array([1.0, 0.0]),
                            ineq=(np.array([[-1.0, 0.0]]), np.array([0.0])))
        np.testing.assert_allclose(sol.d_x, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(sol.d_v, [1.0], atol=1e-12)
        assert sol.active_set == (0,)

    def test_inactive_bound(self):
        sol = qp_active_set(np.eye(2), np.array([-1.0, 0.0]),
                            ineq=(np.array([[-1.0, 0.0]]), np.array([0.0])))
        np.testing.assert_allclose(sol.d_x, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(sol.d_v, [0.0], atol=1e-12)
        assert sol.active_set == ()

    def test_random_qps_against_kkt_conditions(self):
        rng = np.random.default_rng(59)
        checked = 0
        for _ in range(120):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, 5))
            M = rng.uniform(-1, 1, (n, n))
            B = M @ M.T + 0.5 * np.eye(n)
            g = rng.uniform(-2, 2, n)
            A_in = rng.uniform(-1, 1, (p, n))
            b_in = rng.uniform(0.1, 1.5, p)  # d = 0 strictly feasible
            sol = qp_active_set(B, g, ineq=(A_in, b_in))
            data = 1.0 + max(np.max(np.abs(g)), np.max(np.abs(b_in)))
            stat = B @ sol.d_x + g + A_in.T @ sol.d_v
            assert np.max(np.abs(stat)) < 1e-8 * data
            assert np.all(A_in @ sol.d_x <= b_in + 1e-8 * data)
            assert np.all(sol.d_v >= 0.0)
            comp = sol.d_v * (A_in @ sol.d_x - b_in)
            assert np.max(np.abs(comp)) < 1e-7 * data
            checked += 1
        assert checked > 100

    def test_infeasible_detected(self):
        with pytest.raises(QPError):
            qp_active_set(np.eye(1), np.zeros(1),
                          ineq=(np.array([[1.0], [-1.0]]), np.array([-2.0, -2.0])))

    def test_phase_one_start(self):
        # d = 0 violates the first constraint; a feasible point must be found
        sol = qp_active_set(np.eye(2), np.array([0.0, 1.0]),
                            ineq=(np.array([[-1.0, 0.0], [1.0, 1.0]]),
                                  np.array([-1.0, 4.0])))
        assert sol.d_x[0] >= 1.0 - 1e-8
        stat = sol.d_x + np.array([0.0, 1.0]) + np.array([[-1.0, 0.0], [1.0, 1.0]]).T @ sol.d_v
        assert np.max(np.abs(stat)) < 1e-8


class TestSolveQsqp:
    def test_circle_problem(self):
        r = solve_qsqp(circle_problem())
        assert r.status == STATUS_CONVERGED
        assert r.iterations <= 30
        np.testing.assert_allclose(r.x_final, [-1.0, -1.0], atol=1e-5)
        assert r.trace[-1].kkt_residual < 1e-3

    def test_merit_decreases_at_fixed_penalty(self):
        xs = []
        prob = circle_problem()
        r = solve_qsqp(prob, callback=lambda x: xs.append(x))
        assert r.status == STATUS_CONVERGED
        pts = [prob.x0] + xs
        for rec, x_k, x_next in zip(r.trace, pts, pts[1:]):
            mu = rec.merit_penalty
            phi = lambda z: prob.objective(z) + mu * abs(prob.h(z)[0])
            if np.linalg.norm(x_next - x_k) > 0:
                assert phi(x_next) < phi(x_k)

    def test_recorded_merit_strictly_decreases(self):
        r = solve_qsqp(circle_problem())
        merits = [t.merit_value for t in r.trace]
        assert all(b < a for a, b in zip(merits, merits[1:]))

    def test_quadratic_with_linear_constraint_single_iteration(self):
        prob = ConstrainedProblem(
            objective=lambda x: float(x @ x),
            gradient=lambda x: 2.0 * x,
            x0=np.array([3.0, -2.0, 0.7]),
            h=lambda x: np.array([x[0] - 1.0]),
            jac_h=lambda x: np.array([[1.0, 0.0, 0.0]]),
            n_eq=1)
        r = solve_qsqp(prob)
        assert r.status == STATUS_CONVERGED
        assert r.iterations == 1
        np.testing.assert_allclose(r.x_final, [1.0, 0.0, 0.0], atol=1e-8)

    def test_zero_iterations_from_optimal_triple(self):
        r = solve_qsqp(circle_problem(x0=(-1.0, -1.0), u0=0.5))
        assert r.status == STATUS_CONVERGED
        assert r.iterations == 0

    def test_inequality_problem(self):
        prob = ConstrainedProblem(
            objective=lambda x: float(x[0] + x[1]),
            gradient=lambda x: np.array([1.0, 1.0]),
            x0=np.array([0.0, 0.0]),
            g=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
            jac_g=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
            n_ineq=1)
        r = solve_qsqp(prob)
        assert r.status == STATUS_CONVERGED
        np.testing.assert_allclose(r.x_final, [-1.0, -1.0], atol=1e-5)

    @staticmethod
    def assert_parity_with_qls(objective, gradient, x0):
        n = x0.shape[0]
        prob_u = Problem(name="bowl", dimension=n, objective=objective,
                         gradient=gradient, known_minimizers=[np.zeros(n)],
                         known_min_value=0.0)
        xs_a, xs_b = [], []
        ra = solve_qls(prob_u, x0, schedule=QSchedule(0.9, 2),
                       callback=lambda x: xs_a.append(x))
        rb = solve_qsqp(ConstrainedProblem(objective=objective, gradient=gradient, x0=x0),
                        schedule=QSchedule(0.9, 2),
                        callback=lambda x: xs_b.append(x))
        assert ra.status == rb.status == STATUS_CONVERGED
        assert ra.iterations == rb.iterations == len(xs_a) == len(xs_b)
        assert all(np.array_equal(a, b) for a, b in zip(xs_a, xs_b))
        assert ra.f_final == rb.f_final
        return ra.iterations

    def test_zero_constraints_bitwise_matches_qls(self):
        # quartic bowl: curvature above 1 everywhere
        iterations = self.assert_parity_with_qls(
            lambda x: float(np.sum(x ** 4 + x ** 2)), lambda x: 4.0 * x ** 3 + 2.0 * x,
            np.array([1.0, -0.7, 0.4, 1.3]))
        assert iterations >= 3

    def test_zero_constraints_no_unit_eigenvalue_floor(self):
        # curvature 0.2: the unit floor meant for constrained runs would
        # shorten every step; the q-Newton step solves it at once
        iterations = self.assert_parity_with_qls(
            lambda x: float(0.1 * (x @ x)), lambda x: 0.2 * x, np.array([1.0, -0.7, 0.4]))
        assert iterations == 1

    def test_n_plus_one_gradients_per_iteration(self):
        counts = {"f": 0, "g": 0}

        def objective(x):
            counts["f"] += 1
            return float(x[0] + x[1])

        def gradient(x):
            counts["g"] += 1
            return np.array([1.0, 1.0])

        xs = []
        prob = ConstrainedProblem(
            objective=objective, gradient=gradient, x0=np.array([-0.5, -1.5]),
            h=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
            jac_h=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]), n_eq=1)
        r = solve_qsqp(prob, callback=lambda x: xs.append(x))
        assert r.status == STATUS_CONVERGED
        # no iterate has a coordinate in the q-Hessian's zero band
        assert all(np.min(np.abs(x)) > 0.1 for x in [prob.x0] + xs[:-1])
        # the gradient at each iterate (the last one included) plus n q-shifts
        assert counts["g"] == 1 + (2 + 1) * r.iterations
        # f at the start, then once per merit trial (halving from alpha = 1)
        trials = [1 + round(-np.log2(t.alpha)) for t in r.trace]
        assert counts["f"] == 1 + sum(trials)
        assert r.f_final == float(r.x_final[0] + r.x_final[1])

    def test_superlinear_tail_on_circle(self):
        xs = []
        r = solve_qsqp(circle_problem(), callback=lambda x: xs.append(x))
        assert r.status == STATUS_CONVERGED
        xstar = np.array([-1.0, -1.0])
        errs = [np.linalg.norm(x - xstar) for x in xs]
        ratios = [b / a for a, b in zip(errs, errs[1:]) if a > 0]
        assert all(rho < 0.2 for rho in ratios[-3:])

    def test_beta_monitors_recorded(self):
        r = solve_qsqp(circle_problem())
        for t in r.trace:
            assert t.beta1_observed > 0.0
            assert np.isfinite(t.beta2_observed)
            assert np.isfinite(t.beta3_observed)
            assert t.beta2_observed >= t.beta1_observed - 1e-12
