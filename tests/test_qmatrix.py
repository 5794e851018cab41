import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlinesearch import qmatrix
from qlinesearch.errors import GradientShapeError, NumericError
from qlinesearch.qmatrix import q_hessian, q_hessian_lagrangian, q_partial


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
        # the rows shift through _shifted, not q_shift
        checks = []

        def counting(q):
            checks.append(q)
            return original(q)

        original = qmatrix._check_q
        monkeypatch.setattr(qmatrix, "_check_q", counting)
        q_hessian(lambda x: 2.0 * x, np.arange(1.0, 6.0), 0.7)
        assert checks == [0.7]

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(23)
        grad = lambda z: np.array([np.exp(0.3 * z[1]) + z[0] ** 3,
                                   0.3 * z[0] * np.exp(0.3 * z[1]) + np.sin(z[1])])
        for _ in range(20):
            x = rng.uniform(0.2, 1.5, 2)
            got = q_hessian(grad, x, float(rng.uniform(0.2, 0.95)))
            assert np.array_equal(got.matrix, got.matrix.T)

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


# Coordinates are exactly zero or at least 0.1 away from it, so which rows
# fall back is known.
_coordinate = st.one_of(st.just(0.0), st.floats(0.1, 5.0), st.floats(-5.0, -0.1))
_quadratic_case = st.integers(1, 6).flatmap(lambda n: st.tuples(
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
        # a nonquadratic gradient, so the rows differ from the Hessian's
        grad = lambda z: M @ z + np.array(b) * z ** 3
        rows = np.array([[q_partial(lambda z, j=j: grad(z)[j], x, i, q) for j in range(n)]
                         for i in range(n)])
        assert np.array_equal(0.5 * (rows + rows.T), q_hessian(grad, x, q).matrix)
