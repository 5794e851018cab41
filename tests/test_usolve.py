import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlinesearch.errors import LineSearchError
from qlinesearch.problems import Problem, get_problem, make_fc
from qlinesearch.qmatrix import QSchedule
from qlinesearch.usolve import (ALPHA0, BACKTRACK_FACTOR, C1, MAX_HALVINGS, STATUS_CONVERGED,
                                STATUS_DIVERGED, STATUS_LINE_SEARCH_FAILURE,
                                STATUS_MAX_ITERATIONS, STATUS_NUMERIC_FAILURE,
                                STATUS_TIME_CAP, SolverConfig, _norm, _spd_condition,
                                backtracking_step, bfgs_update, solve_bfgs, solve_descent,
                                solve_qls)

from conftest import MAX_N, SOLVES, solve_sqp


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
            n = int(rng.integers(2, MAX_N + 1))
            M = rng.uniform(-1, 1, (n, n))
            B = M @ M.T + np.eye(n)
            s = rng.uniform(-1, 1, n)
            y = rng.uniform(-1, 1, n)
            out = bfgs_update(B, s, y)
            if out is not B:
                np.testing.assert_allclose(out @ s, y, atol=1e-10)
                assert np.array_equal(out, out.T)


@st.composite
def float_matrices(draw):
    """An n x k float matrix, n and k up to MAX_N, with any float64 entries."""
    n, k = draw(st.integers(1, MAX_N)), draw(st.integers(1, MAX_N))
    return np.reshape(draw(st.lists(st.floats(), min_size=n * k, max_size=n * k)), (n, k))


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


class TestReductionForms:
    """The array-method forms that the library reduces with give the bits of
    numpy's function forms, on contiguous vectors (a matrix's rows) and on
    strided views (its columns), NaN and inf included."""

    @given(float_matrices())
    def test_method_forms_match_function_forms(self, M):
        with np.errstate(all="ignore"):
            for v in (*M, *M.T):
                w = v[::-1]
                for method, function in (
                        (v.max(), np.max(v)), (v.min(), np.min(v)),
                        (v.max(initial=0.0), np.max(v, initial=0.0)),
                        (v.min(initial=0.0), np.min(v, initial=0.0)),
                        (v.sum(), np.sum(v)), (v.prod(), np.prod(v)),
                        ((v > 0.0).all(), np.all(v > 0.0)), ((v > 0.0).any(), np.any(v > 0.0)),
                        (np.isfinite(v).all(), np.all(np.isfinite(v))),
                        (v[:, None] * w, np.outer(v, w)),
                        (_norm(v), float(np.linalg.norm(v)))):
                    assert _bits(method) == _bits(function)
            for axis in (0, 1):
                assert _bits(M.sum(axis=axis)) == _bits(np.sum(M, axis=axis))


@pytest.mark.parametrize("M", [np.diag([1.0, 0.0]), np.diag([1.0, -2.0])],
                         ids=["singular", "indefinite"])
def test_condition_number_is_inf_unless_positive_definite(M):
    assert _spd_condition(M) == np.inf


class TestSolveQls:
    def test_quadratic_one_iteration(self):
        r = solve_qls(quadratic_problem(), np.array([1.0, 1.0]),
                      schedule=QSchedule(0.9, 1))
        assert r.status == STATUS_CONVERGED
        assert r.iterations == 1
        np.testing.assert_allclose(r.x_final, [0.0, 0.0], atol=1e-12)
        assert r.trace[0].alpha == 1.0

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

    @pytest.mark.parametrize("schedule", [QSchedule(0.5, 60), QSchedule(1e-17, 1)],
                             ids=["q0.5-gamma60", "q1e-17-gamma1"])
    @pytest.mark.parametrize("solve", [solve_qls, solve_sqp])
    def test_schedule_reaching_one_is_numeric_failure(self, solve, schedule):
        # q_2 = 1 - q_1^gamma / 1 rounds to 1 in the second step, which used
        # to end in QSchedule's ValueError; the run ends at its first iterate
        branin = get_problem("branin")
        r = solve(branin, [2.5, 3.0], schedule=schedule)
        one = solve(branin, [2.5, 3.0], config=SolverConfig(max_iterations=1), schedule=schedule)
        assert r.status == STATUS_NUMERIC_FAILURE and r.iterations == 1
        assert np.array_equal(r.x_final, one.x_final) and r.f_final == one.f_final


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

    def test_trace_has_no_q(self):
        fc = make_fc(0.5)
        r = solve_bfgs(fc, np.array([0.5, 0.7]))
        assert r.status == STATUS_CONVERGED and r.trace
        assert all(t.q_k is None for t in r.trace)
        assert all(t.fallback_count == 0 for t in r.trace)


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

    def test_bounded_run_skips_trials_below_the_bound(self):
        # fc_c0.5 is bounded below, and QLS's first step from START halves its
        # direction 25 times: the Armijo targets of the longest steps lie
        # below the bound, so those trials are not evaluated
        prob, counts = counted(make_fc(0.5))
        r = solve_qls(prob, TestDivergenceGuard.START)
        assert r.status == STATUS_CONVERGED
        assert counts["f"] == 1 + sum(t.trials for t in r.trace)
        assert any(t.alpha < 0.5 ** (t.trials - 1) for t in r.trace)

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
        assert len(calls) == 1 + MAX_HALVINGS + 1  # f(x0), then every trial


class TestDivergenceGuard:
    START = np.array([0.5, 1.9])

    def test_floor_off_by_default(self):
        assert SolverConfig().f_floor == float("-inf")

    def test_nan_floor_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(f_floor=float("nan"))

    @pytest.mark.parametrize("field,value", [
        pytest.param("grad_tolerance", float("nan"), id="grad_tolerance"),
        pytest.param("time_cap_seconds", float("nan"), id="time_cap_seconds"),
        pytest.param("max_iterations", -5, id="max_iterations"),
        pytest.param("max_iterations", 1.5, id="max_iterations_fraction"),
        pytest.param("max_iterations", 2.0, id="max_iterations_whole_float"),
        pytest.param("max_iterations", float("nan"), id="max_iterations_nan"),
        pytest.param("max_iterations", float("inf"), id="max_iterations_inf"),
        pytest.param("max_iterations", True, id="max_iterations_bool")])
    def test_nan_tolerance_and_time_cap_rejected(self, field, value):
        # "nan <= 0" is False: a NaN tolerance turned a run that lands on the
        # minimizer into line_search_failure, and a NaN time cap was no cap;
        # a negative iteration cap acted as 0 (a cap of 0 stays valid), and a
        # cap of 1.5 ran 2 iterations
        with pytest.raises(ValueError):
            SolverConfig(**{field: value})

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


def one_dim_problem(gradient):
    return Problem(name="inconsistent", dimension=1,
                   objective=lambda x: float(x[0] ** 2), gradient=gradient,
                   known_minimizers=[np.zeros(1)], known_min_value=0.0)


class TestSharedStep:
    """The step the solvers share: preconditions of the Armijo search,
    faults at trial and accepted points, zero-length steps."""

    X0 = np.array([1.0, 1.0])

    @staticmethod
    def bowl(objective=None, gradient=None):
        return Problem(name="bowl", dimension=2,
                       objective=objective or (lambda x: float(x @ x)),
                       gradient=gradient or (lambda x: 2.0 * x),
                       known_minimizers=[np.zeros(2)], known_min_value=0.0)

    def test_ascent_direction_is_line_search_failure(self):
        # the search checks no slope; the solver step rejects p with g.p >= 0
        # before any trial is evaluated
        prob, counts = counted(self.bowl())
        r = solve_descent(prob, self.X0, lambda x, g: (g, None, np.eye(2), 0))
        assert r.status == STATUS_LINE_SEARCH_FAILURE
        assert r.iterations == 0
        assert np.array_equal(r.x_final, self.X0) and r.f_final == 2.0
        assert counts == {"f": 1, "g": 1}

    @pytest.mark.parametrize("method", sorted(SOLVES))
    def test_time_cap_holds_between_line_search_trials(self, method):
        # f takes 10 ms and never decreases, so no Armijo trial passes; the
        # 50 ms cap must end the search long before its 61 trials
        def objective(x):
            time.sleep(0.01)
            return 1.0

        prob, counts = counted(self.bowl(objective=objective, gradient=lambda x: np.ones(2)))
        r = SOLVES[method](prob, self.X0, config=SolverConfig(time_cap_seconds=0.05))
        assert r.status == STATUS_TIME_CAP
        assert r.iterations == 0 and r.trace == []
        assert np.array_equal(r.x_final, self.X0) and r.f_final == 1.0
        assert counts["f"] <= 6

    @pytest.mark.parametrize("solve", SOLVES.values())
    def test_nan_gradient_at_accepted_point(self, solve):
        # every solver accepts x = 0 first (BFGS after one halving); a
        # gradient that is NaN only there ends the run at that accepted
        # iterate, with the f its line search carried
        prob = self.bowl(gradient=lambda x: 2.0 * x if np.any(x) else np.full(2, np.nan))
        r = solve(prob, self.X0)
        assert r.status == STATUS_NUMERIC_FAILURE
        assert r.iterations == 1 and len(r.trace) == 1
        assert np.array_equal(r.x_final, [0.0, 0.0])
        assert r.f_final == 0.0

    @pytest.mark.parametrize("bad", [lambda g: np.append(g, 0.0),
                                     lambda g: np.full_like(g, np.nan)], ids=["wrong-shape", "nan"])
    @pytest.mark.parametrize("solve", SOLVES.values())
    def test_unusable_gradient_at_start(self, solve, bad):
        # a 2-D problem whose gradient returns three entries, or NaN, cannot
        # start; f is evaluated before the gradient, so f_final is f(x0)
        branin = get_problem("branin")
        prob, counts = counted(dataclasses.replace(
            branin, gradient=lambda x: bad(branin.gradient(x))))
        r = solve(prob, np.array([3.0, 2.5]))
        assert r.status == STATUS_NUMERIC_FAILURE
        assert r.iterations == 0 and r.trace == []
        assert np.array_equal(r.x_final, [3.0, 2.5])
        assert r.f_final == branin.objective(np.array([3.0, 2.5])) == 0.5065217799344683
        assert counts == {"f": 1, "g": 1}

    @pytest.mark.parametrize("x0", [[1.0, 2.0], 2.5, [[1.0] * 8]], ids=["2", "scalar", "1x8"])
    @pytest.mark.parametrize("solve", [solve_qls, solve_bfgs])
    def test_start_of_another_dimension_raises(self, solve, x0):
        # [1, 2] used to be solved as a 2-D sphere, converged at (0, 0);
        # BFGS raised IndexError on 2.5
        with pytest.raises(ValueError, match=r"sphere expects dimension 8, got x0 of shape"):
            solve(get_problem("sphere"), x0)

    @pytest.mark.parametrize("solve", SOLVES.values())
    def test_wrong_shaped_gradient_at_accepted_point(self, solve):
        # as in the NaN case above: the run ends at the accepted iterate
        prob = self.bowl(gradient=lambda x: 2.0 * x if np.any(x) else np.zeros(3))
        r = solve(prob, self.X0)
        assert r.status == STATUS_NUMERIC_FAILURE
        assert r.iterations == 1 and len(r.trace) == 1
        assert np.array_equal(r.x_final, [0.0, 0.0])
        assert r.f_final == 0.0

    @pytest.mark.parametrize("solve", SOLVES.values())
    def test_time_cap_checked_before_each_iteration(self, solve):
        # f(x0) is paid well within the 250 ms cap; the gradient then sleeps
        # past it, so the check before the first step ends the run
        def gradient(x):
            time.sleep(0.3)
            return 2.0 * x

        prob, counts = counted(self.bowl(gradient=gradient))
        r = solve(prob, self.X0, config=SolverConfig(time_cap_seconds=0.25))
        assert r.status == STATUS_TIME_CAP
        assert r.iterations == 0 and r.trace == []
        assert np.array_equal(r.x_final, self.X0) and r.f_final == 2.0
        assert counts == {"f": 1, "g": 1}

    def test_other_value_errors_surface(self):
        def gradient(x):
            raise ValueError("bug in the callback")

        with pytest.raises(ValueError, match="bug in the callback"):
            solve_qls(self.bowl(gradient=gradient), self.X0)

    @pytest.mark.parametrize("solve", SOLVES.values())
    def test_nan_objective_on_first_trial_is_skipped(self, solve):
        # the q-Newton unit step of QLS and SQP lands on the origin, where f
        # is NaN; the search backtracks to alpha = 1/2 and carries f from
        # that trial
        prob = self.bowl(objective=lambda x: float(x @ x) if np.any(x) else float("nan"))
        if solve is solve_bfgs:  # BFGS's first trial is -grad, two units long
            prob = dataclasses.replace(prob, gradient=lambda x: x)
        r = solve(prob, self.X0, config=SolverConfig(max_iterations=1))
        assert r.status == STATUS_MAX_ITERATIONS
        assert r.iterations == len(r.trace) == 1
        assert r.trace[0].alpha == 0.5
        assert getattr(r.trace[0], "trials", 2) == 2  # an SQP record counts no trials
        assert np.array_equal(r.x_final, [0.5, 0.5])
        assert r.f_final == 0.5

    # runs that would end before any step, were f(x0) not to raise
    ENDS_AT_START = [(solve_qls, lambda x: np.zeros(2), None),
                     (solve_bfgs, lambda x: np.zeros(2), None),
                     (solve_bfgs, lambda x: 2.0 * x, SolverConfig(max_iterations=0)),
                     (solve_sqp, lambda x: np.zeros(2), None)]
    ENDS_AT_START_IDS = ["qls-zero-gradient", "bfgs-zero-gradient", "bfgs-no-iterations",
                         "sqp-zero-gradient"]

    @pytest.mark.parametrize("solve, gradient, config", ENDS_AT_START, ids=ENDS_AT_START_IDS)
    def test_other_errors_from_the_final_objective_surface(self, solve, gradient, config):
        # as they do in a step; this used to end the run with f_final NaN
        def objective(x):
            raise TypeError("bug in the callback")

        with pytest.raises(TypeError, match="bug in the callback"):
            solve(self.bowl(objective=objective, gradient=gradient), self.X0, config=config)

    @pytest.mark.parametrize("solve, gradient, config", ENDS_AT_START, ids=ENDS_AT_START_IDS)
    def test_arithmetic_error_from_the_final_objective_is_nan(self, solve, gradient, config):
        # the stop test evaluates f(x0) first, so the error ends the run; the
        # run holds no f, so the final f reads NaN
        def objective(x):
            raise OverflowError("objective overflow")

        r = solve(self.bowl(objective=objective, gradient=gradient), self.X0, config=config)
        assert r.status == STATUS_NUMERIC_FAILURE
        assert r.iterations == 0 and r.trace == []
        assert np.array_equal(r.x_final, self.X0) and np.isnan(r.f_final)

    @pytest.mark.parametrize("solve", SOLVES.values())
    def test_non_finite_objective_at_start_is_numeric_failure(self, solve):
        # the stop test checks f(x0) right after the gradient, so no
        # q-Hessian or direction is paid for; the run keeps that f
        prob, counts = counted(self.bowl(objective=lambda x: float("nan")))
        r = solve(prob, self.X0)
        assert r.status == STATUS_NUMERIC_FAILURE
        assert r.iterations == 0 and r.trace == []
        assert np.array_equal(r.x_final, self.X0) and np.isnan(r.f_final)
        assert counts["f"] == 1
        assert counts["g"] == 1

    @pytest.mark.parametrize("solve", SOLVES.values())
    def test_non_finite_objective_is_checked_before_convergence(self, solve):
        # a zero gradient at a point where f is NaN is no minimizer
        prob, counts = counted(self.bowl(objective=lambda x: float("nan"),
                                         gradient=lambda x: np.zeros(2)))
        r = solve(prob, self.X0)
        assert r.status == STATUS_NUMERIC_FAILURE
        assert r.iterations == 0 and r.trace == []
        assert np.array_equal(r.x_final, self.X0) and np.isnan(r.f_final)
        assert counts == {"f": 1, "g": 1}

    @pytest.mark.parametrize("solve", SOLVES.values())
    def test_time_cap_before_the_first_objective_calls_no_f(self, solve):
        # the cap passes before f(x0) is paid; nothing evaluates f past it,
        # so the run holds no f and reports NaN
        prob, counts = counted(self.bowl())
        r = solve(prob, self.X0, config=SolverConfig(time_cap_seconds=1e-9))
        assert r.status == STATUS_TIME_CAP
        assert r.iterations == 0 and r.trace == []
        assert np.array_equal(r.x_final, self.X0) and np.isnan(r.f_final)
        assert counts == {"f": 0, "g": 0}

    def test_non_finite_slope_is_numeric_failure(self):
        # a direction with an infinite entry has slope g.p = -inf
        prob, counts = counted(self.bowl())
        r = solve_descent(prob, self.X0,
                          lambda x, g: (np.array([-np.inf, 0.0]), None, np.eye(2), 0))
        assert r.status == STATUS_NUMERIC_FAILURE
        assert r.iterations == 0 and r.trace == []
        assert np.array_equal(r.x_final, self.X0) and r.f_final == 2.0
        assert counts == {"f": 1, "g": 1}

    @pytest.mark.parametrize("M, kappa, status",
                             [(np.diag([2.0, 4.0]), 2.0, STATUS_CONVERGED),
                              (np.diag([2.0, -4.0]), np.inf, STATUS_LINE_SEARCH_FAILURE)],
                             ids=["positive-definite", "indefinite"])
    def test_record_carries_what_the_rule_returns(self, M, kappa, status):
        # the run takes the condition number of the rule's M, inf unless M is
        # positive definite, and records its q_k and fallback count as given;
        # the indefinite M turns p uphill after one step
        r = solve_descent(self.bowl(), self.X0, lambda x, g: (np.linalg.solve(M, -g), 0.5, M, 3))
        assert r.status == status and r.trace and len(r.trace) == r.iterations
        assert _spd_condition(M) == kappa
        assert all(t.condition_number == kappa for t in r.trace)
        assert all(t.q_k == 0.5 and t.fallback_count == 3 for t in r.trace)

    @pytest.mark.parametrize("solve", SOLVES.values())
    def test_arithmetic_error_in_a_trial_is_numeric_failure(self, solve):
        def objective(x):
            if not np.array_equal(x, self.X0):
                raise OverflowError("objective overflow")
            return float(x @ x)

        r = solve(self.bowl(objective=objective), self.X0)
        assert r.status == STATUS_NUMERIC_FAILURE
        assert np.array_equal(r.x_final, self.X0) and r.f_final == 2.0

    @pytest.mark.parametrize("solve, gradient, trials", [
        # the gradient's sign is flipped: f rises along p until alpha p is
        # below half an ulp of x, where Armijo passes with x unchanged
        (solve_bfgs, lambda x: -2.0 * x, 55),
        # the gradient of (x - 10)^2; its q-Hessian is exact, so QLS steps
        # toward 10 where f = x^2 rises
        (solve_bfgs, lambda x: 2.0 * (x - 10.0), 59),
        (solve_qls, lambda x: 2.0 * (x - 10.0), 58),
    ], ids=["bfgs-flipped", "bfgs-shifted", "qls-shifted"])
    def test_zero_length_step_is_line_search_failure(self, solve, gradient, trials):
        prob, counts = counted(one_dim_problem(gradient))
        r = solve(prob, np.array([1.0]), config=SolverConfig(max_iterations=200))
        assert r.status == STATUS_LINE_SEARCH_FAILURE
        assert r.iterations == 0
        assert r.x_final[0] == 1.0 and r.f_final == 1.0
        # f at the start and at every trial; no gradient at the unmoved point
        assert counts["f"] == 1 + trials
        assert counts["g"] == (1 if solve is solve_bfgs else 2)


def test_full_step_accepted_on_linear_decrease():
    res = backtracking_step(lambda a: 1.0 - a, 1.0, -1.0)
    assert res.alpha == 1.0
    assert res.trials == 1
    assert res.value == 0.0


def test_one_halving_on_shifted_parabola():
    # phi(a) = (1 - 2a)^2: alpha = 1 fails Armijo, alpha = 0.5 is the minimum
    phi = lambda a: (1.0 - 2.0 * a) ** 2
    res = backtracking_step(phi, 1.0, -4.0)
    assert res.alpha == 0.5
    assert res.trials == 2
    assert res.value == 0.0


def test_positive_slope_accepted_when_phi_decreases():
    # the search checks no precondition: an l1 merit slope that rounds to
    # +1e-17 still takes the unit step when the merit drops
    res = backtracking_step(lambda a: 1.0 - 1e-3 * a, 1.0, 1e-17)
    assert res.alpha == 1.0
    assert res.trials == 1


def test_failure_after_max_halvings():
    # never satisfies sufficient decrease: the unit step and MAX_HALVINGS
    # halvings are tried, then the search gives up
    trials = []

    def phi(a):
        trials.append(a)
        return 2.0

    with pytest.raises(LineSearchError):
        backtracking_step(phi, 1.0, -1.0)
    assert len(trials) == MAX_HALVINGS + 1 == 61
    assert trials[-1] == ALPHA0 * BACKTRACK_FACTOR ** MAX_HALVINGS


def test_accepted_alpha_is_largest_in_sequence():
    # re-check: every larger candidate in the backtracking sequence violates
    phi = lambda a: 1.0 - a * (1.0 - 0.9 * a) ** 31
    res = backtracking_step(phi, phi(0.0), -1.0)
    d0, phi0 = -1.0, phi(0.0)
    alpha = ALPHA0
    while alpha > res.alpha * (1 + 1e-12):
        assert phi(alpha) > phi0 + C1 * alpha * d0
        alpha *= BACKTRACK_FACTOR
    assert phi(res.alpha) <= phi0 + C1 * res.alpha * d0


def test_newton_step_on_convex_quadratic_takes_unit_alpha():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(1, MAX_N + 1))
        M = rng.uniform(-1, 1, (n, n))
        Q = M @ M.T + np.eye(n)
        x = rng.uniform(-2, 2, n)
        g = Q @ x
        if np.linalg.norm(g) < 1e-12:
            continue
        p = -np.linalg.solve(Q, g)
        phi = lambda a: float(0.5 * (x + a * p) @ Q @ (x + a * p))
        res = backtracking_step(phi, phi(0.0), float(g @ p))
        assert res.alpha == 1.0
        assert res.trials == 1


def test_nan_trials_are_skipped():
    # non-finite objective values fail the test and backtracking continues
    phi = lambda a: float("nan") if a > 0.3 else 1.0 - a
    res = backtracking_step(phi, 1.0, -1.0)
    assert res.alpha == 0.25
    assert res.trials == 3


@given(st.floats(-1e6, 1e6), st.floats(0.0, 1e3), st.floats(-1e9, -1e-6),
       st.floats(0.0, 1e3), st.floats(-1e3, 1e3))
def test_lower_bound_skips_only_trials_that_cannot_pass(bound, gap, slope, w, k):
    # phi >= bound everywhere (bound plus a nonnegative term rounds to no
    # less than bound), so a target below the bound cannot be met: the
    # search with the bound ends as the one without it, evaluating phi only
    # where the target is at least the bound
    calls = []

    def phi(a):
        calls.append(a)
        return bound + abs(gap * np.cos(w * a) + k * a)

    phi0 = phi(0.0)

    def search(lower_bound):
        calls.clear()
        try:
            return backtracking_step(phi, phi0, slope, lower_bound)
        except LineSearchError:
            return None

    free = search(float("-inf"))
    assert len(calls) == (MAX_HALVINGS + 1 if free is None else free.trials)
    bounded = search(bound)
    assert all(phi0 + C1 * a * slope >= bound for a in calls)
    assert (bounded is None) == (free is None)
    if free is not None:
        assert (bounded.alpha, bounded.value, bounded.trials) == (free.alpha, free.value, len(calls))
