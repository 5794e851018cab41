import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qlinesearch import psdfactor, sqp
from qlinesearch.errors import QPError
from qlinesearch.problems import get_problem, make_fc
from qlinesearch.psdfactor import ldl_factor, psd_modify
from qlinesearch.qmatrix import QSchedule
from qlinesearch.sqp import ConstrainedProblem, kkt_solve, qp_active_set, solve_qsqp
from qlinesearch.usolve import (STATUS_CONVERGED, STATUS_DIVERGED, STATUS_LINE_SEARCH_FAILURE,
                                STATUS_NUMERIC_FAILURE, STATUS_QP_FAILURE, SolverConfig,
                                solve_qls)

from conftest import MAX_N, circle, solve_sqp


def circle_problem(x0=(-0.5, -1.5), u0=0.0):
    return ConstrainedProblem(**circle(x0=np.array(x0, dtype=float), u0=np.array([u0])))


def cycling_kkt_solve(B, grad, rows, rhs):
    """A ``kkt_solve`` under which two violated unit rows of A_in replace
    each other in W forever: adding row a gives z = -a, each pinned
    multiplier falling at unit rate, and every other solve gives d = 0 with
    unit multipliers."""
    if np.count_nonzero(grad) == 1 and np.max(grad) == 1.0:  # adding a unit row
        return -grad, -np.ones(rows.shape[0])
    return np.zeros(grad.shape[0]), np.ones(rows.shape[0])


def kkt_residual(B, grad, A_eq, rhs, d, lam):
    r1 = B @ d + grad + (A_eq.T @ lam if A_eq.size else 0.0)
    r2 = A_eq @ d - rhs if A_eq.size else np.zeros(0)
    return max(np.max(np.abs(r1)), np.max(np.abs(r2), initial=0.0))


class TestKktSolve:
    def test_hand_example_antisymmetric_constraint(self):
        d, lam = kkt_solve(ldl_factor(np.eye(2)), np.array([1.0, 1.0]),
                           np.array([[1.0, -1.0]]), np.array([0.0]))
        np.testing.assert_allclose(d, [-1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(lam, [0.0], atol=1e-12)

    def test_stationary_feasible_input(self):
        d, lam = kkt_solve(ldl_factor(np.eye(3)), np.zeros(3),
                           np.array([[1.0, 0.0, 0.0]]), np.array([0.0]))
        np.testing.assert_allclose(d, np.zeros(3), atol=1e-14)
        np.testing.assert_allclose(lam, [0.0], atol=1e-14)

    def test_pinned_coordinate(self):
        d, lam = kkt_solve(ldl_factor(2.0 * np.eye(2)), np.array([2.0, 0.0]),
                           np.array([[1.0, 0.0]]), np.array([0.0]))
        np.testing.assert_allclose(d, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(lam, [-2.0], atol=1e-12)

    def test_rank_deficient_rows_rejected(self):
        with pytest.raises(QPError, match="dependent constraint rows"):
            kkt_solve(ldl_factor(np.eye(2)), np.zeros(2),
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
            d, lam = kkt_solve(ldl_factor(B), g, A, rhs)
            data = 1.0 + max(np.max(np.abs(g)), np.max(np.abs(rhs), initial=0.0))
            assert kkt_residual(B, g, A, rhs, d, lam) < 1e-8 * data


class TestMeritL1:
    """The exact l1 merit, f + mu * violation, as SQP prices phi(0) and each trial."""

    @staticmethod
    def merit(f_val, h_vals, g_vals, mu):
        return sqp._penalized(f_val, sqp._violation(h_vals, g_vals), mu)

    def test_feasible_point_is_plain_objective(self):
        assert self.merit(3.5, np.zeros(2), np.array([-1.0, -0.5]), 10.0) == 3.5

    def test_equality_violation(self):
        assert self.merit(1.0, np.array([0.5]), np.zeros(0), 10.0) == pytest.approx(6.0)

    def test_no_constraint_values_add_nothing(self):
        assert self.merit(2.5, np.zeros(0), np.zeros(0), 10.0) == 2.5

    def test_only_violated_inequalities_count(self):
        assert self.merit(0.0, np.zeros(0), np.array([-1.0, 2.0]), 2.0) == pytest.approx(4.0)


class TestQpActiveSet:
    def test_no_inequalities_matches_kkt_solve(self):
        B = ldl_factor(2.0 * np.eye(2))
        g = np.array([2.0, 0.0])
        A = np.array([[1.0, 0.0]])
        rhs = np.array([0.0])
        sol = qp_active_set(B, g, eq=(A, rhs))
        d, lam = kkt_solve(B, g, A, rhs)
        np.testing.assert_array_equal(sol.d_x, d)
        np.testing.assert_array_equal(sol.d_u, lam)
        assert sol.active_set == ()

    def test_no_constraints_is_the_newton_step(self):
        B = ldl_factor(np.array([[2.0, 0.5], [0.5, 1.0]]))
        g = np.array([1.0, -3.0])
        sol = qp_active_set(B, g)
        np.testing.assert_array_equal(sol.d_x, B.solve(-g))
        assert sol.d_u.shape == sol.d_v.shape == (0,)
        assert sol.active_set == ()

    def test_infeasible_detected(self):
        with pytest.raises(QPError):
            qp_active_set(ldl_factor(np.eye(1)), np.zeros(1),
                          ineq=(np.array([[1.0], [-1.0]]), np.array([-2.0, -2.0])))

    def test_dual_method_starts_at_an_infeasible_minimizer(self):
        # the unconstrained minimizer d = -g = (0, -1) violates row 0
        # (d0 >= 1); the dual method starts there and ends with row 0 met
        # and the KKT stationarity condition holding
        sol = qp_active_set(ldl_factor(np.eye(2)), np.array([0.0, 1.0]),
                            ineq=(np.array([[-1.0, 0.0], [1.0, 1.0]]),
                                  np.array([-1.0, 4.0])))
        assert sol.d_x[0] >= 1.0 - 1e-8
        stat = sol.d_x + np.array([0.0, 1.0]) + np.array([[-1.0, 0.0], [1.0, 1.0]]).T @ sol.d_v
        assert np.max(np.abs(stat)) < 1e-8

    def test_hyperplane_pinned_from_both_sides(self):
        # a.d <= b and -a.d <= -b leave d = b/a; once both rows are in one
        # working set they are dependent, which must not end the solve
        a, b = -0.444, 1.703
        sol = qp_active_set(ldl_factor(np.eye(1)), np.array([-1.0]),
                            ineq=(np.array([[a], [-a]]), np.array([b, -b])))
        np.testing.assert_allclose(sol.d_x, [b / a], rtol=1e-12)
        stat = sol.d_x + np.array([-1.0]) + np.array([[a], [-a]]).T @ sol.d_v
        assert np.max(np.abs(stat)) < 1e-12
        assert np.all(sol.d_v >= 0.0)

    def test_partial_step_drops_a_row(self, monkeypatch):
        # min |d|^2/2 s.t. d0 + d1 >= 2 (row 0, most violated at d = 0) and
        # d0 >= 3 (row 1).  Raising row 1's multiplier from (1, 1) drives row
        # 0's multiplier 1/2 to zero after t = 2, half the full step t = 4,
        # so row 0 is dropped before row 1 becomes active.
        calls = []

        def spy(B, grad, rows, rhs):
            calls.append((np.array(grad), np.array(rows)))
            return kkt_solve(B, grad, rows, rhs)

        monkeypatch.setattr(sqp, "kkt_solve", spy)
        A_in = np.array([[-2.0, -2.0], [-1.0, 0.0]])
        sol = qp_active_set(ldl_factor(np.eye(2)), np.zeros(2),
                            ineq=(A_in, np.array([-4.0, -3.0])))
        np.testing.assert_allclose(sol.d_x, [3.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(sol.d_v, [0.0, 3.0], atol=1e-12)
        assert sol.active_set == (1,)
        directions = [rows.tolist() for grad, rows in calls if np.array_equal(grad, A_in[1])]
        assert directions == [[[-2.0, -2.0]], []]

    def test_cycling_working_set_raises(self, monkeypatch):
        # d0 <= -4 and d1 <= -4, both violated at d = 0; the stand-in
        # drops the row of W each time the other is added, for good
        monkeypatch.setattr(sqp, "kkt_solve", cycling_kkt_solve)
        with pytest.raises(QPError, match="did not terminate"):
            qp_active_set(ldl_factor(np.eye(2)), np.zeros(2),
                          ineq=(np.eye(2), np.array([-4.0, -4.0])))


# Equality rows number at most 4 (the benchmark's working sets have at most
# 3 rows), with singular values within a factor 20 of the largest and of 1,
# and at most 4 inequality rows are added, so the residual bounds hold with
# room to spare.


def _matrix(draw, rows, cols, bound=1.0):
    entries = draw(st.lists(st.floats(-bound, bound), min_size=rows * cols,
                            max_size=rows * cols))
    return np.reshape(np.array(entries, dtype=float), (rows, cols))


def _full_rank(A):
    if A.shape[0] == 0:
        return True
    s = np.linalg.svd(A, compute_uv=False)
    return s[-1] >= 0.05 * max(s[0], 1.0)


@st.composite
def equality_qps(draw):
    """(B, grad, A, rhs): B positive definite, A of full row rank."""
    n = draw(st.integers(1, MAX_N))
    m = draw(st.integers(0, min(n, 4)))
    M = _matrix(draw, n, n)
    B = M @ M.T + draw(st.floats(0.1, 2.0)) * np.eye(n)
    A = _matrix(draw, m, n)
    assume(_full_rank(A))
    return B, _matrix(draw, 1, n, 2.0)[0], A, _matrix(draw, 1, m, 2.0)[0]


@st.composite
def modified_qps(draw):
    """(PsdModification of an indefinite matrix under a unit floor, grad, A,
    rhs, A_in, b_in); d = 0 satisfies the inequalities."""
    n = draw(st.integers(1, MAX_N))
    m = draw(st.integers(0, min(n - 1, 2)))
    p = draw(st.integers(0, 3))
    M = _matrix(draw, n, n, 3.0)
    A = _matrix(draw, m, n)
    assume(_full_rank(A))
    b_in = np.array(draw(st.lists(st.floats(0.1, 1.5), min_size=p, max_size=p)))
    return (psd_modify(0.5 * (M + M.T), 1.0), _matrix(draw, 1, n, 2.0)[0], A,
            np.zeros(m), _matrix(draw, p, n), b_in)


def _scale(*arrays):
    return 1.0 + max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


def _assert_kkt(B, g, A, rhs, A_in, b_in, sol, tol):
    """The KKT conditions of the QP at ``sol``, each to within ``tol``."""
    stat = B @ sol.d_x + g + A.T @ sol.d_u + A_in.T @ sol.d_v
    assert np.max(np.abs(stat)) <= tol
    assert np.max(np.abs(A @ sol.d_x - rhs), initial=0.0) <= tol
    assert np.all(A_in @ sol.d_x - b_in <= tol)
    assert np.all(sol.d_v >= 0.0)
    assert np.max(np.abs(sol.d_v * (A_in @ sol.d_x - b_in)), initial=0.0) <= tol


def brute_force_qp(B, g, A, rhs, A_in, b_in, tol):
    """The QP's minimizer by brute force: ``kkt_solve`` pinned to every
    subset of the inequalities, kept when it is feasible with nonnegative
    multipliers (B is positive definite, so any such point is the
    minimizer).  Of those, the one with the least objective."""
    m, p = A.shape[0], A_in.shape[0]
    factors = ldl_factor(B)
    best = None
    for k in range(p + 1):
        for subset in itertools.combinations(range(p), k):
            subset = list(subset)
            try:
                d, lam = kkt_solve(factors, g, np.vstack([A, A_in[subset]]),
                                   np.concatenate([rhs, b_in[subset]]))
            except QPError:
                continue
            if np.all(A_in @ d - b_in <= tol) and np.all(lam[m:] >= -tol):
                value = float(g @ d + 0.5 * d @ B @ d)
                if best is None or value < best[0]:
                    best = (value, d)
    return best[1]


@st.composite
def feasible_qps(draw, max_ineq=4):
    """(B, grad, A, rhs, A_in, b_in, point): the equality_qps data with
    rows A_in that ``point`` satisfies, some of them with zero slack.  At
    ``point`` = 0 these include every b_in in [0, 1.5]^p."""
    B, g, A, _ = draw(equality_qps())
    n = g.shape[0]
    p = draw(st.integers(1, max_ineq))
    point = _matrix(draw, 1, n)[0]
    A_in = _matrix(draw, p, n)
    slack = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.5), min_size=p, max_size=p))
    return B, g, A, A @ point, A_in, A_in @ point + np.array(slack), point


class TestQpProperties:
    @given(equality_qps())
    def test_kkt_residual_small(self, case):
        B, g, A, rhs = case
        d, lam = kkt_solve(ldl_factor(B), g, A, rhs)
        assert kkt_residual(B, g, A, rhs, d, lam) <= 1e-9 * _scale(g, rhs)

    @given(modified_qps())
    def test_matrix_and_its_factorization_agree(self, case):
        mod, g, A, rhs, A_in, b_in = case
        B = mod.modified_matrix
        tol = 1e-8 * _scale(g, b_in) * _scale(B)
        d_fact, lam_fact = kkt_solve(mod, g, A, rhs)
        d_mat, lam_mat = kkt_solve(ldl_factor(B), g, A, rhs)
        assert np.max(np.abs(d_fact - d_mat)) <= tol
        assert np.max(np.abs(lam_fact - lam_mat), initial=0.0) <= tol * _scale(B)
        sol_fact = qp_active_set(mod, g, eq=(A, rhs), ineq=(A_in, b_in))
        sol_mat = qp_active_set(ldl_factor(B), g, eq=(A, rhs), ineq=(A_in, b_in))
        assert np.max(np.abs(sol_fact.d_x - sol_mat.d_x)) <= tol

    @given(equality_qps(), st.data())
    def test_dependent_rows_raise(self, case, data):
        B, g, A, rhs = case
        assume(A.shape[0] > 0)
        # a copy of one row scaled by a power of two: dependent in floating
        # point too, with a consistent right-hand side
        j = data.draw(st.integers(0, A.shape[0] - 1))
        k = data.draw(st.integers(-3, 3))
        rows = np.vstack([A, 2.0 ** k * A[j]])
        rhs2 = np.append(rhs, 2.0 ** k * rhs[j])
        with pytest.raises(QPError, match="dependent constraint rows"):
            kkt_solve(ldl_factor(B), g, rows, rhs2)
        n = g.shape[0]
        loose = (np.eye(1, n), np.array([1e3]))
        with pytest.raises(QPError, match="dependent constraint rows"):
            qp_active_set(ldl_factor(B), g, eq=(rows, rhs2), ineq=loose)

    @given(equality_qps(), st.floats(-1e-5, 1e-5), st.floats(-2.0, 2.0), st.data())
    def test_near_infeasible_inequalities(self, case, gap, b, data):
        # the slab b <= a.d <= b - gap is empty for gap > 0, plus extra rows
        # that hold with slack at the slab's point closest to the origin
        B, g, _, _ = case
        n = g.shape[0]
        a = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        a = np.array(a)
        assume(np.linalg.norm(a) >= 0.1)
        extra = _matrix(data.draw, data.draw(st.integers(0, 3)), n)
        d_slab = a * (b / (a @ a))
        slack = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=extra.shape[0],
                                            max_size=extra.shape[0])))
        A_in = np.vstack([-a, a, extra])
        b_in = np.concatenate([[-b], [b - gap], extra @ d_slab + slack])
        try:
            sol = qp_active_set(ldl_factor(B), g, ineq=(A_in, b_in))
        except QPError:
            return
        assert np.all(A_in @ sol.d_x - b_in <= 1e-6 * _scale(b_in, sol.d_x))
        assert np.all(sol.d_v >= 0.0)

    @given(feasible_qps())
    def test_agrees_with_brute_force(self, case):
        B, g, A, rhs, A_in, b_in, _ = case
        tol = 1e-9 * _scale(g, rhs, b_in) * _scale(B)
        sol = qp_active_set(ldl_factor(B), g, eq=(A, rhs), ineq=(A_in, b_in))
        _assert_kkt(B, g, A, rhs, A_in, b_in, sol, tol / _scale(B))
        d_ref = brute_force_qp(B, g, A, rhs, A_in, b_in, tol)
        assert np.max(np.abs(sol.d_x - d_ref)) <= 1e3 * tol * _scale(d_ref)

    @given(feasible_qps(max_ineq=3), st.sampled_from(["slab", "copy"]), st.data())
    def test_dependent_inequality_rows_are_solved(self, case, kind, data):
        # a row pinned from both sides (a zero-gap slab), or a power-of-two
        # copy of a row: dependent rows of a feasible QP, never QPError
        B, g, A, rhs, A_in, b_in, point = case
        j = data.draw(st.integers(0, A_in.shape[0] - 1))
        if kind == "slab":
            b_in[j] = A_in[j] @ point
            scale = -1.0
        else:
            scale = 2.0 ** data.draw(st.integers(-3, 3))
        A_in = np.vstack([A_in, scale * A_in[j]])
        b_in = np.append(b_in, scale * b_in[j])
        order = data.draw(st.permutations(range(A_in.shape[0])))
        A_in, b_in = A_in[order], b_in[order]
        sol = qp_active_set(ldl_factor(B), g, eq=(A, rhs), ineq=(A_in, b_in))
        _assert_kkt(B, g, A, rhs, A_in, b_in, sol,
                    1e-7 * _scale(g, rhs, b_in) * _scale(B) * _scale(sol.d_x, sol.d_v))


class TestConstrainedProblem:
    CIRCLE = circle()
    BALL = dict(g=lambda x: np.array([x @ x - 4.0]), jac_g=lambda x: np.atleast_2d(2.0 * x),
                n_ineq=1)

    @pytest.mark.parametrize("dropped", [
        "n_eq",  # the constraint was silently dropped: a run to max_iterations
        "h", "jac_h",  # a TypeError from inside the first stop test
    ])
    def test_equality_count_matches_callbacks(self, dropped):
        kwargs = {k: v for k, v in self.CIRCLE.items() if k != dropped}
        with pytest.raises(ValueError, match="h and jac_h are given exactly when n_eq > 0"):
            ConstrainedProblem(**kwargs)

    @pytest.mark.parametrize("dropped", ["n_ineq", "g", "jac_g"])
    def test_inequality_count_matches_callbacks(self, dropped):
        kwargs = {**self.CIRCLE, **{k: v for k, v in self.BALL.items() if k != dropped}}
        with pytest.raises(ValueError, match="g and jac_g are given exactly when n_ineq > 0"):
            ConstrainedProblem(**kwargs)

    def test_fewer_equalities_than_variables_required(self):
        # with m = n the null space of J_h, on which beta1 is read, is empty
        kwargs = dict(self.CIRCLE, h=lambda x: x - 1.0, jac_h=lambda x: np.eye(2), n_eq=2)
        with pytest.raises(ValueError, match="fewer equality constraints than variables"):
            ConstrainedProblem(**kwargs)

    @pytest.mark.parametrize("count", [-1, 1.0, True], ids=repr)
    def test_equality_count_is_a_whole_number(self, count):
        # -1 used to raise numpy's "negative dimensions are not allowed",
        # 1.0 and True a TypeError
        with pytest.raises(ValueError, match="n_eq must be a whole number"):
            ConstrainedProblem(**dict(self.CIRCLE, n_eq=count))

    @pytest.mark.parametrize("x0", [3.0, [[1.0, 2.0]]], ids=str)
    def test_x0_must_be_a_vector(self, x0):
        # 3.0 used to raise an IndexError; [[1.0, 2.0]] gave n = 1 and a
        # numeric_failure after 0 iterations
        with pytest.raises(ValueError, match="x0 must be a vector"):
            ConstrainedProblem(objective=lambda x: float(x @ x), gradient=lambda x: 2.0 * x,
                               x0=x0)

    def test_matching_counts_accepted(self):
        assert solve_qsqp(ConstrainedProblem(**self.CIRCLE, **self.BALL)).status == \
            STATUS_CONVERGED


class TestSolveQsqp:
    @pytest.mark.parametrize("n_ineq", [0, 1], ids=["equalities-only", "with-inequality"])
    def test_dependent_equality_rows_are_qp_failure(self, n_ineq):
        # two parallel planes, consistent at x0; the inequality stays inactive
        A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        ineq = dict(g=lambda x: np.array([x[2] - 10.0]),
                    jac_g=lambda x: np.array([[0.0, 0.0, 1.0]]), n_ineq=1)
        prob = ConstrainedProblem(
            objective=lambda x: float(x @ x), gradient=lambda x: 2.0 * x,
            x0=np.array([3.0, -2.0, 0.7]),
            h=lambda x: A @ x - np.array([1.0, 2.0]), jac_h=lambda x: A, n_eq=2,
            **(ineq if n_ineq else {}))
        r = solve_qsqp(prob)
        assert r.status == STATUS_QP_FAILURE
        assert r.iterations == 0 and np.array_equal(r.x_final, prob.x0)

    def test_cycling_qp_is_qp_failure(self, monkeypatch):
        # x0 <= -4 and x1 <= -4, both violated at the start
        monkeypatch.setattr(sqp, "kkt_solve", cycling_kkt_solve)
        prob = ConstrainedProblem(
            objective=lambda x: float(x @ x), gradient=lambda x: 2.0 * x - [1.0, 2.0],
            x0=np.zeros(2), g=lambda x: x + 4.0, jac_g=lambda x: np.eye(2), n_ineq=2)
        r = solve_qsqp(prob)
        assert r.status == STATUS_QP_FAILURE
        assert r.iterations == 0 and np.array_equal(r.x_final, prob.x0)

    def test_one_factorization_of_b_per_iteration(self, monkeypatch):
        # every QP pass solves on psd_modify's factorization of B: besides
        # it, only Schur complements of at most m + p rows, and no phase-1
        # matrix of n + 1 rows
        sizes = []
        original = psdfactor.ldl_factor

        def counting(A):
            sizes.append(np.shape(A)[0])
            return original(A)

        monkeypatch.setattr(psdfactor, "ldl_factor", counting)
        monkeypatch.setattr(sqp, "ldl_factor", counting)
        c = np.array([2.0, -1.0, 1.5, 0.5])
        n, m, p = 4, 1, 1
        prob = ConstrainedProblem(
            objective=lambda x: float(np.sum((x - c) ** 4 + (x - c) ** 2)),
            gradient=lambda x: 4.0 * (x - c) ** 3 + 2.0 * (x - c),
            x0=np.array([0.3, -0.2, 0.4, 0.5]),
            h=lambda x: np.array([np.sum(x) - 1.0]), jac_h=lambda x: np.ones((1, n)),
            g=lambda x: np.array([x @ x - 2.0]), jac_g=lambda x: 2.0 * x[None, :],
            n_eq=m, n_ineq=p)
        r = solve_qsqp(prob)
        assert r.status == STATUS_CONVERGED
        assert abs(r.x_final @ r.x_final - 2.0) < 1e-8  # the ball is active
        assert sizes.count(n) == r.iterations >= 3
        assert n + 1 not in sizes
        assert all(s <= m + p for s in sizes if s != n)

    def test_multipliers_must_match_constraint_counts(self):
        # one multiplier per constraint: the iterate update and the
        # Lagrangian gradient rely on it
        with pytest.raises(ValueError, match="multiplier"):
            dataclasses.replace(circle_problem(), u0=np.zeros(2))
        with pytest.raises(ValueError, match="multiplier"):
            ConstrainedProblem(objective=lambda x: float(x @ x), gradient=lambda x: 2.0 * x,
                               x0=np.ones(2), v0=np.ones(1))

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

    @pytest.mark.parametrize("size", [1, 3])
    def test_wrong_shape_gradient_at_a_shifted_point_is_numeric_failure(self, size):
        # with u0 != 0 the Lagrangian q-Hessian used to add J_h^T u to an
        # unchecked grad f: a (1,) value took one step on a wrong matrix, and
        # a (3,) value escaped as numpy's ValueError
        prob = circle_problem(u0=0.5)
        x0 = prob.x0.copy()
        prob.gradient = lambda x: np.ones(2) if np.array_equal(x, x0) else np.ones(size)
        r = solve_qsqp(prob)
        assert r.status == STATUS_NUMERIC_FAILURE
        assert r.iterations == 0 and r.trace == [] and np.array_equal(r.x_final, x0)

    PLANE = dict(h=lambda x: np.array([x[0] + x[1] - 1.0]),
                 jac_h=lambda x: np.array([[1.0, 1.0]]), n_eq=1)
    BALL = dict(g=lambda x: np.array([x @ x - 4.0]), jac_g=lambda x: 2.0 * x[None, :], n_ineq=1)

    @pytest.mark.parametrize("gradient, constraints", [
        (lambda x: -2.0 * x, PLANE), (lambda x: -2.0 * x, BALL),
        (lambda x: 2.0 * (x - 10.0), BALL)], ids=["-2x-plane", "-2x-ball", "2(x-10)-ball"])
    def test_wrong_gradient_is_line_search_failure(self, gradient, constraints):
        # f = |x|^2 with a gradient that is not its own: the merit search
        # accepts a step too short to change the merit or the KKT residual;
        # each run used to take all 300 iterations without moving
        prob = ConstrainedProblem(objective=lambda x: float(x @ x), gradient=gradient,
                                  x0=np.array([1.0, -0.5]), **constraints)
        r = solve_qsqp(prob, config=SolverConfig(max_iterations=300))
        assert r.status == STATUS_LINE_SEARCH_FAILURE and r.iterations <= 5
        np.testing.assert_allclose(r.x_final, prob.x0, rtol=0, atol=1e-15)

    @staticmethod
    def two_plane_problem(**callbacks):
        # min |x|^2 on two planes, with an inactive inequality; the minimizer
        # is (2/3, 1/3, 1/3)
        A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        fields = dict(objective=lambda x: float(x @ x), gradient=lambda x: 2.0 * x,
                      x0=np.array([3.0, -2.0, 0.7]),
                      h=lambda x: A @ x - 1.0, jac_h=lambda x: A, n_eq=2,
                      g=lambda x: np.array([x[2] - 10.0]),
                      jac_g=lambda x: np.array([[0.0, 0.0, 1.0]]), n_ineq=1)
        fields.update(callbacks)
        return ConstrainedProblem(**fields)

    def test_two_planes_converge(self):
        r = solve_qsqp(self.two_plane_problem())
        assert r.status == STATUS_CONVERGED
        np.testing.assert_allclose(r.x_final, [2 / 3, 1 / 3, 1 / 3], atol=1e-6)

    @pytest.mark.parametrize("callbacks", [
        dict(jac_h=lambda x: np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])),
        dict(jac_h=lambda x: np.array([[1.0, 1.0, 0.0], [1.0, 0.0, np.nan]])),
        dict(h=lambda x: np.array([x[0] + x[1] - 1.0])),
        dict(jac_g=lambda x: np.array([[0.0, 0.0, np.nan]])),
    ], ids=["jac_h-transposed", "jac_h-nan", "h-one-value", "jac_g-nan"])
    def test_bad_constraint_callback_is_numeric_failure(self, callbacks):
        # a constraint value or Jacobian of the wrong shape, or a non-finite
        # Jacobian, ends the run with a status at the start, not with a
        # traceback, a QP failure or a wrong answer
        prob = self.two_plane_problem(**callbacks)
        r = solve_qsqp(prob)
        assert r.status == STATUS_NUMERIC_FAILURE
        assert r.iterations == 0 and np.array_equal(r.x_final, prob.x0)

    @pytest.mark.parametrize("callbacks", [
        dict(h=lambda x: np.array([np.nan, 0.0])),
        dict(g=lambda x: np.array([np.inf])),
    ], ids=["h-nan", "g-inf"])
    def test_non_finite_value_at_start_is_numeric_failure(self, callbacks):
        # h and g at x are checked before any QP; the run keeps f(x0)
        prob = self.two_plane_problem(**callbacks)
        r = solve_qsqp(prob)
        assert r.status == STATUS_NUMERIC_FAILURE
        assert r.iterations == 0 and r.trace == []
        assert np.array_equal(r.x_final, prob.x0)
        assert r.f_final == prob.objective(prob.x0)

    @pytest.mark.parametrize("schedule", [QSchedule(0.9, 2), QSchedule(0.5, 3)],
                             ids=["q0.9-gamma2", "q0.5-gamma3"])
    @pytest.mark.parametrize("solve, least", [
        (lambda schedule: solve_qls(get_problem("branin"), [2.5, 3.0], schedule=schedule), 5),
        (lambda schedule: solve_qsqp(circle_problem(), schedule=schedule), 4),
    ], ids=["qls-branin", "sqp-circle"])
    def test_each_iteration_draws_one_q(self, solve, least, schedule):
        r = solve(schedule)
        assert r.status == STATUS_CONVERGED and r.iterations >= least
        assert [t.q_k for t in r.trace] == list(itertools.islice(schedule, len(r.trace)))

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

    def test_zero_constraints_parity_needs_no_objective_floor(self):
        # solve_qsqp does not read config.f_floor: with the floor between
        # f(x_1) and f(x_2), QLS ends diverged at x_2 and SQP runs on as
        # QLS does without the floor
        prob, x0 = make_fc(0.5), np.array([0.5, 0.9])
        free = solve_qls(prob, x0)
        config = SolverConfig(f_floor=(free.trace[1].f_value + free.trace[2].f_value) / 2)
        ra = solve_qls(prob, x0, config=config)
        rb = solve_sqp(prob, x0, config=config)
        assert (ra.status, ra.iterations) == (STATUS_DIVERGED, 2)
        assert (rb.status, rb.iterations) == (STATUS_CONVERGED, 5)
        assert np.array_equal(rb.x_final, free.x_final)

    def test_n_plus_one_gradients_per_iteration(self):
        counts = {"f": 0, "g": 0}

        def objective(x):
            counts["f"] += 1
            return float(x[0] + x[1])

        def gradient(x):
            counts["g"] += 1
            return np.array([1.0, 1.0])

        xs = []
        prob = ConstrainedProblem(**circle(objective=objective, gradient=gradient))
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
