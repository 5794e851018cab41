import dataclasses

import numpy as np
import pytest

from qlinesearch.problems import Problem, get_problem, make_fc
from qlinesearch.qcalc import QSchedule
from qlinesearch.usolve import (STATUS_CONVERGED, STATUS_DIVERGED,
                                STATUS_LINE_SEARCH_FAILURE,
                                STATUS_MAX_ITERATIONS, STATUS_NUMERIC_FAILURE,
                                SolverConfig, bfgs_update, solve_bfgs, solve_qls)

FC_STARTS = [np.array([0.5, y]) for y in np.arange(0.1, 2.0, 0.2)]


def quadratic_problem(n=2):
    return Problem(name="quad", dimension=n,
                   objective=lambda x: float(x @ x),
                   gradient=lambda x: 2.0 * x,
                   known_minimizers=[np.zeros(n)], known_min_value=0.0)


class TestBfgsUpdate:
    def test_fixed_point_when_y_equals_Bs(self):
        B = np.eye(3)
        out = bfgs_update(B, np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))
        np.testing.assert_allclose(out, np.eye(3), atol=1e-15)

    def test_hand_rank_two_example(self):
        B = np.eye(3)
        out = bfgs_update(B, np.array([1.0, 0, 0]), np.array([2.0, 0, 0]))
        np.testing.assert_allclose(out, np.diag([2.0, 1.0, 1.0]), atol=1e-15)

    def test_negative_curvature_skipped(self):
        B = np.eye(2)
        out = bfgs_update(B, np.array([1.0, 0]), np.array([-1.0, 0]))
        assert out is B

    def test_secant_property(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            M = rng.uniform(-1, 1, (n, n))
            B = M @ M.T + np.eye(n)
            s = rng.uniform(-1, 1, n)
            y = rng.uniform(-1, 1, n)
            out = bfgs_update(B, s, y)
            if out is not B:
                np.testing.assert_allclose(out @ s, y, atol=1e-10)
                assert np.array_equal(out, out.T)


class TestSolveQls:
    def test_quadratic_one_iteration(self):
        r = solve_qls(quadratic_problem(), np.array([1.0, 1.0]),
                      schedule=QSchedule(0.9, 1))
        assert r.status == STATUS_CONVERGED
        assert r.iterations == 1
        np.testing.assert_allclose(r.x_final, [0.0, 0.0], atol=1e-12)
        assert r.trace[0].alpha == 1.0

    def test_zero_iterations_at_optimum(self):
        r = solve_qls(quadratic_problem(), np.zeros(2))
        assert r.status == STATUS_CONVERGED
        assert r.iterations == 0
        assert r.trace == []

    def test_fc_mean_iterations_in_published_range(self):
        fc = make_fc(0.5)
        its = []
        for x0 in FC_STARTS:
            r = solve_qls(fc, x0, schedule=QSchedule(0.9, 1))
            assert r.status == STATUS_CONVERGED
            its.append(r.iterations)
        assert 3.0 <= np.mean(its) <= 7.0

    def test_trace_fields_populated(self):
        fc = make_fc(0.7)
        r = solve_qls(fc, np.array([0.7, 0.3]), schedule=QSchedule(0.9, 2))
        assert r.status == STATUS_CONVERGED
        for t in r.trace:
            assert t.q_k is not None and 0.0 < t.q_k < 1.0
            assert t.cos_theta > 0.0
            assert t.condition_number >= 1.0
            assert t.fallback_count == 0

    def test_descent_and_monotone_objective(self):
        fc = make_fc(0.3)
        r = solve_qls(fc, np.array([0.3, 1.9]), schedule=QSchedule(0.9, 3))
        fs = [t.f_value for t in r.trace] + [r.f_final]
        assert all(b < a for a, b in zip(fs, fs[1:]))

    def test_lemma_monitor_on_trace(self):
        for gamma in (1, 2, 3):
            for c in (0.1, 0.9, 1.9):
                fc = make_fc(c)
                r = solve_qls(fc, np.array([c, 1.1]), schedule=QSchedule(0.9, gamma))
                for t in r.trace:
                    assert t.cos_theta >= 1.0 / t.condition_number - 1e-10

    def test_max_iterations_status(self):
        fc = make_fc(0.5)
        r = solve_qls(fc, np.array([0.5, 1.9]),
                      config=SolverConfig(max_iterations=1))
        assert r.status == STATUS_MAX_ITERATIONS
        assert r.iterations == 1

    def test_numeric_failure_status(self):
        bad = Problem(name="bad", dimension=1,
                      objective=lambda x: float(x[0] ** 2),
                      gradient=lambda x: np.array([np.nan]),
                      known_minimizers=[np.zeros(1)], known_min_value=0.0)
        r = solve_qls(bad, np.array([1.0]))
        assert r.status == STATUS_NUMERIC_FAILURE

    def test_superlinear_error_ratios(self):
        # quartic-plus-quadratic bowl: the surrogate converges to the true
        # Hessian near the minimum, so late error ratios collapse.  A tight
        # tolerance gives the run enough iterations to reach the asymptotic
        # regime before stopping.
        prob = Problem(name="quartic", dimension=4,
                       objective=lambda x: float(np.sum(x ** 4 + x ** 2)),
                       gradient=lambda x: 4.0 * x ** 3 + 2.0 * x,
                       known_minimizers=[np.zeros(4)], known_min_value=0.0)
        xs = []
        r = solve_qls(prob, np.ones(4), config=SolverConfig(grad_tolerance=1e-8),
                      schedule=QSchedule(0.9, 2), callback=lambda x: xs.append(x))
        assert r.status == STATUS_CONVERGED
        errs = [np.linalg.norm(np.ones(4))] + [np.linalg.norm(x) for x in xs]
        ratios = [b / a for a, b in zip(errs, errs[1:]) if a > 0]
        assert len(ratios) >= 4
        assert all(rho < 0.1 for rho in ratios[-3:])


class TestSolveBfgs:
    def test_first_direction_is_steepest_descent(self):
        xs = []
        x0 = np.array([1.0, 1.0])
        r = solve_bfgs(quadratic_problem(), x0, callback=lambda x: xs.append(x))
        assert r.status == STATUS_CONVERGED
        # B0 = I so the first step moves along -grad(x0) = (-2, -2)
        step = xs[0] - x0
        g0 = np.array([2.0, 2.0])
        cos = -(step @ g0) / (np.linalg.norm(step) * np.linalg.norm(g0))
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_fc_mean_iterations_in_published_range(self):
        fc = make_fc(0.5)
        its = []
        for x0 in FC_STARTS:
            r = solve_bfgs(fc, x0)
            assert r.status == STATUS_CONVERGED
            its.append(r.iterations)
        assert 6.0 <= np.mean(its) <= 13.0

    def test_trace_has_no_q(self):
        fc = make_fc(0.5)
        r = solve_bfgs(fc, np.array([0.5, 0.7]))
        assert all(t.q_k is None for t in r.trace)
        assert all(t.fallback_count == 0 for t in r.trace)

    def test_monitor_inequality(self):
        fc = make_fc(1.5)
        r = solve_bfgs(fc, np.array([1.5, 0.5]))
        for t in r.trace:
            assert t.cos_theta > 0.0
            assert t.cos_theta >= 1.0 / t.condition_number - 1e-10

    def test_time_cap_status(self):
        slow = Problem(name="slow", dimension=2,
                       objective=lambda x: float((x @ x) ** 2 + x @ x),
                       gradient=lambda x: (4.0 * (x @ x) + 2.0) * x,
                       known_minimizers=[np.zeros(2)], known_min_value=0.0)
        r = solve_bfgs(slow, np.array([50.0, -30.0]),
                       config=SolverConfig(time_cap_seconds=1e-9))
        assert r.status == "time_cap"


def counted(problem):
    """The problem with counting callbacks, and the counter they share."""
    counts = {"f": 0, "g": 0}

    def objective(x):
        counts["f"] += 1
        return problem.objective(x)

    def gradient(x):
        counts["g"] += 1
        return problem.gradient(x)

    return dataclasses.replace(problem, objective=objective, gradient=gradient), counts


class TestEvaluationAccounting:
    """Each evaluation a solve pays is one the iterates need: f once at the
    start and once per line-search trial, the gradient once at the start,
    once per accepted step and (QLS) n times for the q-Hessian."""

    X0 = np.array([3.0, 2.5])

    def test_qls_pays_n_plus_one_gradients_per_iteration(self):
        branin = get_problem("branin")
        prob, counts = counted(branin)
        r = solve_qls(prob, self.X0)
        assert r.status == STATUS_CONVERGED
        assert r.iterations == 4
        assert all(t.fallback_count == 0 for t in r.trace)  # no zero-band coordinate
        n = branin.dimension
        assert counts["g"] == 1 + (n + 1) * r.iterations == 13
        assert counts["f"] == 1 + sum(t.trials for t in r.trace)
        assert r.f_final == branin.objective(r.x_final)

    def test_bfgs_pays_one_gradient_per_iteration(self):
        branin = get_problem("branin")
        prob, counts = counted(branin)
        r = solve_bfgs(prob, self.X0)
        assert r.status == STATUS_CONVERGED
        assert counts["g"] == 1 + r.iterations
        assert counts["f"] == 1 + sum(t.trials for t in r.trace)
        assert r.f_final == branin.objective(r.x_final)

    def test_trials_recorded_per_iteration(self):
        r = solve_bfgs(make_fc(0.5), np.array([0.5, 1.9]))
        assert all(t.trials >= 1 for t in r.trace)
        assert any(t.trials > 1 for t in r.trace)
        assert all(t.alpha == 0.5 ** (t.trials - 1) for t in r.trace)

    def test_converged_at_start_pays_one_of_each(self):
        prob, counts = counted(quadratic_problem())
        r = solve_qls(prob, np.zeros(2))
        assert r.iterations == 0 and r.f_final == 0.0
        assert counts == {"f": 1, "g": 1}

    def test_line_search_failure_reuses_f(self):
        # the objective is finite only at its first call, so every trial
        # fails Armijo and the search gives up; f_final is that first value
        calls = []

        def objective(x):
            calls.append(x.copy())
            return 1.0 if len(calls) == 1 else float("nan")

        prob = Problem(name="cliff", dimension=1, objective=objective,
                       gradient=lambda x: np.array([2.0 * x[0]]),
                       known_minimizers=[np.zeros(1)], known_min_value=0.0)
        r = solve_bfgs(prob, np.array([1.0]))
        assert r.status == STATUS_LINE_SEARCH_FAILURE
        assert r.f_final == 1.0
        halvings = SolverConfig().line_search.max_halvings
        assert len(calls) == 1 + halvings + 1  # f(x0), then every trial


class TestDivergenceGuard:
    START = np.array([0.5, 1.9])

    def test_floor_off_by_default(self):
        assert SolverConfig().f_floor == float("-inf")

    def test_nan_floor_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(f_floor=float("nan"))

    @pytest.mark.parametrize("solve", [solve_bfgs, solve_qls])
    def test_stops_after_first_step_below_floor(self, solve):
        fc = make_fc(0.5)
        xs_free = []
        free = solve(fc, self.START, callback=lambda x: xs_free.append(x))
        assert free.status == STATUS_CONVERGED and free.iterations >= 3
        fs = [t.f_value for t in free.trace] + [free.f_final]
        floor = 0.5 * (fs[1] + fs[2])  # f falls below it with the second step
        prob, counts = counted(fc)
        xs = []
        r = solve(prob, self.START, config=SolverConfig(f_floor=floor),
                  callback=lambda x: xs.append(x))
        assert r.status == STATUS_DIVERGED
        assert r.iterations == 2
        assert all(np.array_equal(a, b) for a, b in zip(xs, xs_free[:2]))
        assert np.array_equal(r.x_final, xs_free[1])
        assert r.f_final == fs[2] < floor
        # the guard reads f from the accepted trial: no evaluation beyond them
        assert counts["f"] == 1 + sum(t.trials for t in r.trace)

    def test_converged_run_is_not_diverged(self):
        # a floor above the minimum value does not turn convergence into
        # divergence when the step lands on a stationary point
        r = solve_qls(quadratic_problem(), np.array([1.0, 1.0]),
                      config=SolverConfig(f_floor=0.5))
        assert r.status == STATUS_CONVERGED and r.iterations == 1
