import itertools

import numpy as np
import pytest

from qlinesearch.errors import NumericError
from qlinesearch.qmatrix import QSchedule, q_derivative_1d, q_partial, q_shift


class TestQDerivative1d:
    def test_square_at_two(self):
        # (4 - 1) / (0.5 * 2)
        assert q_derivative_1d(lambda t: t * t, 2.0, 0.5) == pytest.approx(3.0, abs=1e-14)

    def test_square_at_zero_falls_back(self):
        assert q_derivative_1d(lambda t: t * t, 0.0, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_cube_matches_hand_expansion(self):
        # expanding (x^3 - (qx)^3) / ((1-q)x) by hand gives x^2 (1 + q + q^2)
        q = 0.5
        oracle = 1.0 ** 2 * (1 + q + q * q)
        assert q_derivative_1d(lambda t: t ** 3, 1.0, q) == pytest.approx(oracle, rel=1e-12)

    def test_invalid_q_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                q_derivative_1d(lambda t: t, 1.0, bad)

    def test_nonfinite_evaluation_raises(self):
        with pytest.raises(NumericError):
            q_derivative_1d(lambda t: float("nan"), 1.0, 0.5)


class TestQShift:
    def test_basic(self):
        out = q_shift(np.array([1.0, 2.0]), 0, 0.5)
        assert out.tolist() == [0.5, 2.0]

    def test_zero_coordinate(self):
        out = q_shift(np.array([0.0, 3.0]), 0, 0.9)
        assert out.tolist() == [0.0, 3.0]

    def test_last_coordinate(self):
        out = q_shift(np.array([1.0, 2.0, 3.0]), 2, 0.25)
        assert out.tolist() == [1.0, 2.0, 0.75]

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            q_shift(np.array([1.0, 2.0]), 2, 0.5)

    def test_exact_scaling_and_bit_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-5, 5, size=rng.integers(1, 8))
            i = int(rng.integers(0, x.shape[0]))
            q = float(rng.uniform(0.05, 0.95))
            out = q_shift(x, i, q)
            assert out[i] == q * x[i]
            mask = np.arange(x.shape[0]) != i
            assert np.array_equal(out[mask], x[mask])


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
