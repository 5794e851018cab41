import numpy as np
import pytest

from qlinesearch.errors import LineSearchError
from qlinesearch.usolve import ALPHA0, BACKTRACK_FACTOR, C1, MAX_HALVINGS, backtracking_step


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
        n = int(rng.integers(1, 7))
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
