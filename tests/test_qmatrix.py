import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlinesearch import qmatrix
from qlinesearch.errors import GradientShapeError, NumericError
from qlinesearch.qmatrix import QSchedule, q_hessian, q_hessian_lagrangian, q_partial

from conftest import MAX_N


def quadratic_gradient(Q, b):
    return lambda x: Q @ x + b


class TestQHessian:
    def test_quadratic_is_recovered_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            M = rng.uniform(-1, 1, (n, n))
            Q = 0.5 * (M + M.T)
            b = rng.uniform(-1, 1, n)
            x = rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n)
            q = float(rng.uniform(0.1, 0.99))
            got = q_hessian(quadratic_gradient(Q, b), x, q)
            assert np.max(np.abs(got.matrix - Q)) <= 1e-10
            assert got.fallback_count == 0

    def test_cubic_example(self):
        # f(x, y) = y^2 + 4x^3, gradient (12x^2, 2y); at (1, 1), q = 0.5 the
        # q-difference of 12x^2 gives 12x(1+q) = 18 and the rest is linear
        grad = lambda z: np.array([12.0 * z[0] ** 2, 2.0 * z[1]])
        got = q_hessian(grad, np.array([1.0, 1.0]), 0.5)
        np.testing.assert_allclose(got.matrix, [[18.0, 0.0], [0.0, 2.0]], atol=1e-12)

    def test_zero_coordinate_fallback_row(self):
        # f(x, y) = x^2 y, gradient (2xy, x^2); row 0 must fall back at x = 0
        grad = lambda z: np.array([2.0 * z[0] * z[1], z[0] ** 2])
        got = q_hessian(grad, np.array([0.0, 1.0]), 0.5)
        np.testing.assert_allclose(got.matrix, [[2.0, 0.0], [0.0, 0.0]], atol=1e-9)
        assert got.fallback_count == 2

    def test_gradient_call_budget(self):
        calls = {"n": 0}

        def grad(x):
            calls["n"] += 1
            return 2.0 * x

        n = 6
        q_hessian(grad, np.arange(1.0, n + 1.0), 0.7)
        assert calls["n"] == n + 1

    def test_q_checked_once(self, monkeypatch):
        # q_hessian checks q once; its rows run q_difference, which checks nothing
        checks = []

        def counting(q):
            checks.append(q)
            return original(q)

        original = qmatrix._check_q
        monkeypatch.setattr(qmatrix, "_check_q", counting)
        q_hessian(lambda x: 2.0 * x, np.arange(1.0, 6.0), 0.7)
        assert checks == [0.7]

    def test_error_decays_linearly_in_one_minus_q(self):
        # f = sum x_i^3 at ones: exact Hessian 6 I, surrogate diag 3(1+q)
        grad = lambda x: 3.0 * x ** 2
        x = np.ones(3)
        qs = [1 - 10.0 ** (-j) for j in range(1, 7)]
        errs = [np.max(np.abs(q_hessian(grad, x, q).matrix - 6.0 * np.eye(3)))
                for q in qs]
        slope = np.polyfit(np.log([1 - q for q in qs]), np.log(errs), 1)[0]
        assert 0.9 < slope < 1.1

    def test_nonfinite_gradient_carries_point(self):
        def grad(x):
            return np.array([np.inf, 0.0]) if x[0] < 0.9 else np.zeros(2)

        with pytest.raises(NumericError) as err:
            q_hessian(grad, np.array([1.0, 1.0]), 0.5)
        assert err.value.point is not None

    def test_overflowing_q_difference_is_numeric_error(self):
        # every gradient value is finite, but (1e308 - -1e308) / 0.1 is not
        def grad(x):
            return np.array([1e308 if x[0] == 1.0 else -1e308, 0.0])

        with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
            q_hessian(grad, np.array([1.0, 1.0]), 0.9)
        assert str(err.value) == "non-finite q-Hessian entry"
        assert np.array_equal(err.value.point, [1.0, 1.0])


class TestQHessianLagrangian:
    def test_linear_lagrangian_gradient(self):
        # f = x1 + x2, h = x1^2 + x2^2 - 2, u = 0.5: grad L = (1 + x1, 1 + x2)
        grad_f = lambda x: np.array([1.0, 1.0])
        jac_h = lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]])
        for q in (0.3, 0.7, 0.95):
            got = q_hessian_lagrangian(grad_f, np.array([0.7, -1.2]), q,
                                       jac_h=jac_h, u=np.array([0.5]))
            np.testing.assert_allclose(got.matrix, np.eye(2), atol=1e-10)

    def test_zero_multipliers_bitwise_equal_to_objective(self):
        grad_f = lambda x: np.array([x[0] ** 3 + 1.0, np.cos(x[1])])
        jac_h = lambda x: np.array([[1.0, 2.0]])
        jac_g = lambda x: np.array([[3.0, -1.0]])
        x = np.array([0.8, 1.4])
        plain = q_hessian(grad_f, x, 0.6)
        lag = q_hessian_lagrangian(grad_f, x, 0.6, jac_h=jac_h, u=np.zeros(1),
                                   jac_g=jac_g, v=np.zeros(1))
        assert np.array_equal(plain.matrix, lag.matrix)
        assert plain.fallback_count == lag.fallback_count

    def test_norm_objective_with_linear_constraint(self):
        # f = ||x||^2 / 2, h = x1 - 1: grad L = x + u e1 is affine, so the
        # surrogate is the identity for any multiplier
        grad_f = lambda x: x
        jac_h = lambda x: np.array([[1.0, 0.0, 0.0]])
        got = q_hessian_lagrangian(grad_f, np.array([2.0, -1.0, 0.5]), 0.5,
                                   jac_h=jac_h, u=np.array([-3.7]))
        np.testing.assert_allclose(got.matrix, np.eye(3), atol=1e-12)

    def test_wrong_shape_jacobian_raises(self):
        # J_h returned transposed, (n, m) instead of (m, n), for m = 2
        jac_h = lambda x: np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(GradientShapeError, match="Jacobian"):
            q_hessian_lagrangian(lambda x: x, np.array([2.0, -1.0, 0.5]), 0.5,
                                 jac_h=jac_h, u=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("size", [1, 3])
    def test_wrong_shape_gradient_at_a_shifted_point_raises(self, size):
        # grad f is right only at x; J_h^T u used to be added to it unchecked,
        # so a (1,) value broadcast into a wrong matrix and a (3,) value
        # raised numpy's broadcast ValueError
        x = np.array([0.7, -1.2])
        grad_f = lambda pt: pt.copy() if np.array_equal(pt, x) else np.ones(size)
        jac_h = lambda pt: np.array([[2.0 * pt[0], 2.0 * pt[1]]])
        with pytest.raises(GradientShapeError, match=rf"gradient returned shape \({size},\)"):
            q_hessian_lagrangian(grad_f, x, 0.5, jac_h=jac_h, u=np.array([0.5]))


@pytest.mark.parametrize("x", [[0.7, -1.2], np.array([0.7, -1.2])], ids=["list", "array"])
def test_checked_gradient_expects_the_length_of_x(x):
    np.testing.assert_array_equal(qmatrix.checked_gradient([1.0, 2.0], x), [1.0, 2.0])
    with pytest.raises(GradientShapeError, match=r"expected \(2,\)"):
        qmatrix.checked_gradient([1.0, 2.0, 3.0], x)


# Coordinates are exactly zero or at least 0.1 away from it, so which rows
# fall back is known.
_coordinate = st.one_of(st.just(0.0), st.floats(0.1, 5.0), st.floats(-5.0, -0.1))
_quadratic_case = st.integers(1, MAX_N).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n),
    st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
    st.lists(_coordinate, min_size=n, max_size=n),
    st.floats(0.05, 0.95)))


class TestOneRuleProperties:
    """The q-Hessian is the q-difference kernel applied row by row."""

    @given(_quadratic_case)
    def test_quadratic_exact_with_zero_coordinates(self, case):
        entries, b, x, q = case
        n = len(b)
        M = np.reshape(entries, (n, n))
        Q = 0.5 * (M + M.T)
        x = np.array(x)
        got = q_hessian(quadratic_gradient(Q, np.array(b)), x, q)
        assert np.max(np.abs(got.matrix - Q)) <= 1e-6
        assert got.fallback_count == n * int(np.sum(x == 0.0))

    @given(_quadratic_case)
    def test_matrix_is_symmetrized_q_partials(self, case):
        entries, b, x, q = case
        n = len(b)
        M = np.reshape(entries, (n, n))
        x = np.array(x)
        # a nonquadratic gradient, so the rows differ from the Hessian's; the
        # matrix equals (R + R^T) / 2 bitwise, so it is symmetric bit for bit
        grad = lambda z: M @ z + np.array(b) * z ** 3
        rows = np.array([[q_partial(lambda z, j=j: grad(z)[j], x, i, q) for j in range(n)]
                         for i in range(n)])
        assert np.array_equal(0.5 * (rows + rows.T), q_hessian(grad, x, q).matrix)


class TestQDerivative1d:
    """``q_partial`` at n = 1 is the q-derivative of a function of one variable."""

    def test_square_at_two(self):
        # (4 - 1) / (0.5 * 2)
        got = q_partial(lambda v: v[0] * v[0], np.array([2.0]), 0, 0.5)
        assert got == pytest.approx(3.0, abs=1e-14)

    def test_square_at_zero_falls_back(self):
        got = q_partial(lambda v: v[0] * v[0], np.array([0.0]), 0, 0.5)
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_cube_matches_hand_expansion(self):
        # expanding (x^3 - (qx)^3) / ((1-q)x) by hand gives x^2 (1 + q + q^2)
        q = 0.5
        oracle = 1.0 ** 2 * (1 + q + q * q)
        got = q_partial(lambda v: v[0] ** 3, np.array([1.0]), 0, q)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_invalid_q_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                q_partial(lambda v: v[0], np.array([1.0]), 0, bad)

    def test_nonfinite_evaluation_raises(self):
        with pytest.raises(NumericError):
            q_partial(lambda v: float("nan"), np.array([1.0]), 0, 0.5)


class TestQShift:
    """The q-shifted point, where ``q_partial`` evaluates g after x."""

    def test_exact_scaling_and_bit_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-5, 5, size=rng.integers(1, 8))
            i = int(rng.integers(0, x.shape[0]))
            q = float(rng.uniform(0.05, 0.95))
            points = []
            q_partial(lambda v: points.append(v.copy()) or 0.0, x, i, q)
            assert np.array_equal(points[0], x) and len(points) == 2
            out = points[1]
            assert out[i] == q * x[i]
            mask = np.arange(x.shape[0]) != i
            assert np.array_equal(out[mask], x[mask])

    def test_index_out_of_range(self):
        # -1 too: numpy would read it as the last coordinate
        for i in (2, -1):
            with pytest.raises(IndexError):
                q_partial(lambda v: 0.0, np.array([1.0, 2.0]), i, 0.5)


class TestQPartial:
    def test_paper_example_x_direction(self):
        # g(x, y) = y^2 + 4x^3 has q-partial 4x^2 (1 + q + q^2) in x
        g = lambda z: z[1] ** 2 + 4.0 * z[0] ** 3
        for x, y, q in [(1.0, 2.0, 0.5), (2.0, 1.0, 0.9), (-1.5, 0.3, 0.25)]:
            expected = 4.0 * x * x * (1 + q + q * q)
            got = q_partial(g, np.array([x, y]), 0, q)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_paper_example_y_direction(self):
        g = lambda z: z[1] ** 2 + 4.0 * z[0] ** 3
        # y (1 + q) at y = 2, q = 0.5
        assert q_partial(g, np.array([1.0, 2.0]), 1, 0.5) == pytest.approx(3.0, rel=1e-12)

    def test_zero_coordinate_uses_finite_difference(self):
        g = lambda z: z[0] ** 2 * z[1]
        assert q_partial(g, np.array([0.0, 1.0]), 0, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_linear_functions_exact_for_every_q(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            a = rng.uniform(-3, 3, n)
            b = float(rng.uniform(-2, 2))
            g = lambda z, a=a, b=b: float(a @ z + b)
            x = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
            i = int(rng.integers(0, n))
            q = float(rng.uniform(0.01, 0.99))
            assert q_partial(g, x, i, q) == pytest.approx(a[i], rel=1e-9, abs=1e-11)

    def test_error_proportional_to_one_minus_q(self):
        # q-partial of 3x^2 (gradient of x^3) is 3x(1+q); at x = 1 the error
        # against the second derivative 6 is exactly 3(1-q)
        g = lambda z: 3.0 * z[0] ** 2
        qs = [1 - 10.0 ** (-j) for j in range(1, 7)]
        errs = [abs(q_partial(g, np.array([1.0]), 0, q) - 6.0) for q in qs]
        logq = np.log([1 - q for q in qs])
        loge = np.log(errs)
        slope = np.polyfit(logq, loge, 1)[0]
        assert 0.9 < slope < 1.1


class TestQSchedule:
    def test_schedule_examples(self):
        assert list(itertools.islice(QSchedule(0.9, 1), 4)) == pytest.approx(
            [0.9, 0.9, 0.1, 0.95], abs=1e-15)
        assert list(itertools.islice(QSchedule(0.9, 3), 3))[2] == pytest.approx(0.271, abs=1e-15)
        assert list(itertools.islice(QSchedule(0.5, 2), 4)) == pytest.approx(
            [0.5, 0.5, 0.75, 0.71875], abs=1e-15)

    def test_value_rounding_to_one_is_numeric_error(self):
        # q_2 = 1 - 0.5^60 is 1.0 in floating point: no q, and a solve's
        # numeric failure rather than QSchedule's ValueError
        qs = iter(QSchedule(0.5, 60))
        assert next(qs) == 0.5
        with pytest.raises(NumericError, match="rounds to 1"):
            next(qs)

    def test_first_transition_keeps_q0(self):
        assert list(itertools.islice(QSchedule(0.9, 2), 2)) == [0.9, 0.9]

    def test_stays_in_unit_interval_with_decay_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = QSchedule(float(rng.uniform(0.05, 0.95)), int(rng.integers(1, 5)))
            for k, q in enumerate(itertools.islice(s, 201)):
                assert 0.0 < q < 1.0
                if k >= 2:
                    assert abs(1.0 - q) <= 1.0 / (k - 1) + 1e-15

    def test_validation(self):
        # gamma is a count: a bool, a float or an infinity is none, even
        # where it equals a whole number (True ran as gamma = 1, 2.0 as 2)
        for args in [(1.2, 1), (0.5, 0), (0.9, True), (0.9, 2.0), (0.9, float("inf"))]:
            with pytest.raises(ValueError):
                QSchedule(*args)
