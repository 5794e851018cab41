import numpy as np
import pytest

from qlinesearch.problems import (SUITE_NAMES, check_gradient, get_problem,
                                  make_fc, standard_suite)

FC_VALUES = [round(0.1 + 0.2 * i, 1) for i in range(10)]
#: c < 0 puts the modified branch, with coefficient x/c, on (-inf, c]
NEGATIVE_C = [-0.1, -0.5, -1.0, -2.0]


def interior_points(problem, rng, count=20):
    """Random start-box points, resampled away from fc's kink lines."""
    pts = []
    is_fc = problem.name.startswith("fc_")
    c = float(problem.name[4:]) if is_fc else None
    while len(pts) < count:
        x = problem.start_box.center + problem.start_box.side * (rng.random(problem.dimension) - 0.5)
        if is_fc and (abs(x[0] - c) < 1e-2 or abs(x[0]) < 1e-2):
            continue
        pts.append(x)
    return pts


class TestFc:
    def test_minimum_value(self):
        for c in FC_VALUES:
            prob = make_fc(c)
            assert prob.objective(np.array([1.0, 1.0])) == pytest.approx(c, abs=1e-14)
            np.testing.assert_array_equal(prob.known_minimizers[0], [1.0, 1.0])

    def test_hand_value_off_minimum(self):
        # x < c branch of f_{0.5} at the origin: 0 + 0 - (0.25/0.5)(-0.5) + 0.5
        prob = make_fc(0.5)
        assert prob.objective(np.array([0.0, 0.0])) == pytest.approx(0.75, abs=1e-14)

    def test_branches_agree_on_the_joint(self):
        for c in FC_VALUES:
            prob = make_fc(c)
            expected = lambda y: (1.0 - c) ** 2 + 0.05 * (y - c * c) ** 2 + c
            for y in np.linspace(0.0, 2.0, 9):
                assert abs(prob.objective(np.array([c, y])) - expected(y)) < 1e-12
                below = prob.objective(np.array([c - 1e-9, y]))
                above = prob.objective(np.array([c + 1e-9, y]))
                assert abs(below - above) < 1e-7

    def test_gradient_continuous_across_joint(self):
        # one-sided difference quotients from both sides agree: the family is
        # C^1; only the second x-derivative jumps at x = c
        for c in FC_VALUES:
            prob = make_fc(c)
            for y in (0.2, 1.0, 1.7):
                h = 1e-7
                left = (prob.objective(np.array([c, y]))
                        - prob.objective(np.array([c - h, y]))) / h
                right = (prob.objective(np.array([c + h, y]))
                         - prob.objective(np.array([c, y]))) / h
                assert abs(left - right) < 1e-5

    def test_second_x_derivative_jumps_at_joint(self):
        for c in (0.5, 1.5, -0.5, -2.0):
            prob = make_fc(c)
            h = 1e-4
            y = 1.3

            def fxx(x0):
                f = lambda t: prob.objective(np.array([t, y]))
                return (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h ** 2

            assert abs(fxx(c - 0.05) - fxx(c + 0.05)) > 0.5

    def test_global_lower_bound(self):
        # for c > 0 every branch term is nonnegative, so f >= c everywhere.
        # For c < 0 the bound holds on (-inf, c] by convexity, not term by
        # term: the branch's x-terms have second derivative (6x - 4)/c > 0
        # there and slope -2(1 - c) < 0 at the joint, so they fall to their
        # joint value (1 - c)^2 + c >= c, and 0.05 (y - x^2)^2 >= 0
        rng = np.random.default_rng(3)
        for c in FC_VALUES + NEGATIVE_C:
            prob = make_fc(c)
            for _ in range(300):
                x = rng.uniform(-30, 30, 2)
                assert prob.objective(x) >= c - 1e-12

    def test_zero_c_rejected(self):
        # a NaN or infinite c would give a NaN or infinite minimum value
        for c in (0.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                make_fc(c)
        with pytest.raises(ValueError):
            get_problem("fc_cnan")

    def test_gradient_checks(self):
        rng = np.random.default_rng(7)
        for c in FC_VALUES + NEGATIVE_C:
            prob = make_fc(c)
            # the start box around (1, 1) holds no point of a c < 0 modified
            # branch, so these c are also checked on x in [c - 3, c - 0.05]
            beyond = [np.array([c - rng.uniform(0.05, 3.0), rng.uniform(-2.0, 3.0)])
                      for _ in range(20 if c < 0 else 0)]
            for x in interior_points(prob, rng) + beyond:
                assert check_gradient(prob, x, 1e-6) < 1e-5

    def test_gradient_check_on_modified_branch(self):
        prob = make_fc(0.5)
        assert check_gradient(prob, np.array([0.3, 0.7]), 1e-6) < 1e-5
        assert check_gradient(prob, np.array([1.2, 0.7]), 1e-6) < 1e-5


class TestSuite:
    def test_names_and_dimensions(self):
        suite = standard_suite()
        assert [(p.name, p.dimension) for p in suite] == [
            ("bohachevsky", 2), ("branin", 2), ("crossintray", 2), ("dixonprice", 2),
            ("easom", 2), ("griewank", 4), ("hartmann3", 3), ("levy", 4),
            ("mccormick", 2), ("rotatedhyperellipsoid", 4), ("schwefel", 2),
            ("sphere", 8), ("styblinskitang", 4), ("sumsquares", 10), ("zakharov", 2)]
        assert SUITE_NAMES == [p.name for p in suite]

    def test_registry_lookup(self):
        assert get_problem("branin").name == "branin"
        assert get_problem("Cross-in-Tray").name == "crossintray"
        assert get_problem("fc_c0.5").name == "fc_c0.5"
        with pytest.raises(KeyError, match=r"fc_c<c>"):
            get_problem("fc")  # an fc problem is named fc_c<c> only
        with pytest.raises(KeyError):
            get_problem("nosuchproblem")
        with pytest.raises(KeyError):
            get_problem("fcbogus")  # an fc name is "fc_c<c>"

    def test_fc_names_look_up_their_problem(self):
        # a runs-CSV row names its fc problem as make_fc does, c included
        x = np.array([0.3, 1.7])
        for c in FC_VALUES + NEGATIVE_C:
            prob = get_problem(make_fc(c).name)
            assert prob.name == make_fc(c).name == f"fc_c{c:g}"
            assert prob.objective(x) == make_fc(c).objective(x)
        with pytest.raises(TypeError):
            get_problem("fc_c0.5", c=0.7)  # the name alone carries c
        with pytest.raises(KeyError):
            get_problem("fc_cbogus")

    def test_unround_c_names_look_up_their_problem(self):
        # {c:g} would round these c to 6 digits; their names carry c exactly,
        # and the published names keep their {c:g} form
        x = np.array([0.3, 1.7])
        for c in [0.123456789, 1.0 / 3.0] + FC_VALUES:
            prob = get_problem(make_fc(c).name)
            assert prob.name == make_fc(c).name
            assert prob.objective(x) == make_fc(c).objective(x)
        assert make_fc(1.0 / 3.0).name == "fc_c0.3333333333333333"

    def test_minimizers_are_stationary(self):
        for prob in standard_suite():
            for m in prob.known_minimizers:
                g = np.asarray(prob.gradient(m))
                assert np.linalg.norm(g) < 1e-7, (prob.name, g)

    def test_local_minimality_smoke(self):
        rng = np.random.default_rng(13)
        for prob in standard_suite():
            m = prob.known_minimizers[0]
            fstar = prob.objective(m)
            scale = 0.01 * max(1.0, float(np.max(np.abs(m))))
            for _ in range(100):
                pert = m + scale * (rng.random(prob.dimension) - 0.5)
                assert prob.objective(pert) >= fstar - 1e-12, prob.name

    def test_known_values(self):
        vals = {p.name: p.known_min_value for p in standard_suite()}
        assert vals["sphere"] == 0.0
        assert vals["sumsquares"] == 0.0
        assert vals["branin"] == pytest.approx(0.397887, abs=1e-6)
        assert vals["mccormick"] == pytest.approx(-1.9133, abs=1e-4)
        assert vals["crossintray"] == pytest.approx(-2.06261, abs=1e-5)
        assert vals["hartmann3"] == pytest.approx(-3.86278, abs=1e-5)
        assert vals["styblinskitang"] == pytest.approx(-39.16617 * 4, abs=1e-3)
        assert abs(vals["schwefel"]) < 1e-3

    def test_symmetric_minimizers_share_value(self):
        suite = {p.name: p for p in standard_suite()}
        assert len(suite["branin"].known_minimizers) == 3
        assert len(suite["crossintray"].known_minimizers) == 4
        assert len(suite["dixonprice"].known_minimizers) == 2
        for prob in suite.values():
            vals = [prob.objective(m) for m in prob.known_minimizers]
            assert max(vals) - min(vals) < 1e-10, prob.name

    def test_table_minimizer_coordinates(self):
        suite = {p.name: p for p in standard_suite()}
        np.testing.assert_allclose(suite["branin"].known_minimizers[1],
                                   [np.pi, 2.275], atol=1e-12)
        np.testing.assert_allclose(suite["easom"].known_minimizers[0],
                                   [np.pi, np.pi], atol=0)
        np.testing.assert_allclose(suite["mccormick"].known_minimizers[0],
                                   [-0.54719, -1.54719], atol=1e-5)
        np.testing.assert_allclose(suite["crossintray"].known_minimizers[0],
                                   [1.3494, 1.3494], atol=1e-4)
        np.testing.assert_allclose(suite["schwefel"].known_minimizers[0],
                                   [420.9687, 420.9687], atol=1e-4)
        np.testing.assert_allclose(suite["dixonprice"].known_minimizers[0],
                                   [1.0, 0.70710678], atol=1e-8)


def test_every_problem_is_built_from_its_first_minimizer():
    # the builder reads dimension, minimum value and start-box center from
    # the first listed minimizer; fc's value there is exactly c
    fc = {c: make_fc(c) for c in FC_VALUES + NEGATIVE_C + [3.0, 1.0 / 3.0]}
    for prob in standard_suite() + list(fc.values()):
        first = prob.known_minimizers[0]
        assert all(m.shape == (prob.dimension,) for m in prob.known_minimizers), prob.name
        assert prob.known_min_value == prob.objective(first), prob.name
        np.testing.assert_array_equal(prob.start_box.center, first)
        assert prob.start_box.center is not first, prob.name
        assert prob.start_box.side == 1.0, prob.name
    for c, prob in fc.items():
        assert prob.known_min_value == c, prob.name
