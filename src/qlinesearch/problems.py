"""Test-problem corpus: the piecewise fc family and 15 standard functions.

Formulas follow the usual virtual-library definitions.  Every problem carries
an analytic gradient, the full set of global minimizers (symmetric minima all
listed), the minimum value, and a unit start box centered on the first
minimizer for drawing random initial guesses.  Minimizer coordinates without
a closed form were refined to machine precision offline (Newton on the
analytic gradient) and are frozen below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import central_difference

_PI = math.pi


@dataclass
class StartBox:
    """Hypercube for random starts: ``center`` plus ``side`` length."""

    center: np.ndarray
    side: float = 1.0


@dataclass
class Problem:
    name: str
    dimension: int
    objective: callable
    gradient: callable
    known_minimizers: list
    known_min_value: float
    start_box: StartBox = None


def check_gradient(problem, x, step=1e-6):
    """Max over coordinates of |analytic - central difference| / max(1, |analytic|)."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(problem.gradient(x), dtype=float)
    worst = 0.0
    for i in range(x.shape[0]):
        fd = central_difference(problem.objective, x, i, step)
        worst = max(worst, abs(g[i] - fd) / max(1.0, abs(g[i])))
    return worst


# ---------------------------------------------------------------------------
# fc family: a Rosenbrock-like valley on the side of the line x = c that
# contains the minimizer (1, 1), joined C^1 at x = c to a modified branch
# whose second x-derivative differs, so d2f/dx2 does not exist on x = c.
#
# For c > 0 the modified branch uses |x|/c as the leading coefficient; the
# two branches are identical wherever x >= 0 (in particular near the joint),
# every term of the modified branch is then nonnegative, and f >= c globally
# with equality exactly at (1, 1).  With the coefficient taken literally as
# x/c the branch runs to -infinity along x -> -infinity (for c < 1) or makes
# (1, 1) non-stationary (for c > 1), contradicting the family's defining
# property of a minimum at (1, 1) with value c for every c.
# ---------------------------------------------------------------------------

def make_fc(c):
    """Piecewise two-branch objective with a finite parameter c != 0.

    Minimum at (1, 1) with value c; twice differentiable everywhere except
    the measure-zero lines x = c and x = 0.
    """
    c = float(c)
    if not 0.0 < abs(c) < math.inf:  # "not" also rejects NaN
        raise ValueError(f"fc requires a finite nonzero parameter c, got {c!r}")

    def rosen(xx, yy):
        return 0.05 * (yy - xx * xx) ** 2 + (1.0 - xx) ** 2 + c

    def rosen_gx(xx, yy):
        return -0.2 * xx * (yy - xx * xx) - 2.0 * (1.0 - xx)

    # coefficient |x|/c keeps the branch bounded below for c > 0; for c < 0
    # the joint at x = c < 0 requires the plain x/c
    def coef(xx):
        return abs(xx) / c if c > 0.0 else xx / c

    def coef_prime(xx):
        if c > 0.0:
            return (1.0 if xx >= 0.0 else -1.0) / c
        return 1.0 / c

    def modified(xx, yy):
        return (coef(xx) * (1.0 - xx) ** 2 + 0.05 * (yy - xx * xx) ** 2
                - ((1.0 - c) ** 2 / c) * (xx - c) + c)

    def modified_gx(xx, yy):
        return (coef_prime(xx) * (1.0 - xx) ** 2 - 2.0 * coef(xx) * (1.0 - xx)
                - (1.0 - c) ** 2 / c - 0.2 * xx * (yy - xx * xx))

    # the Rosenbrock branch sits on the side of x = c containing x = 1
    def on_rosen_side(xx):
        return xx >= c if c <= 1.0 else xx <= c

    def objective(x):
        xx, yy = float(x[0]), float(x[1])
        if on_rosen_side(xx):
            return rosen(xx, yy)
        return modified(xx, yy)

    def gradient(x):
        xx, yy = float(x[0]), float(x[1])
        gy = 0.1 * (yy - xx * xx)
        gx = rosen_gx(xx, yy) if on_rosen_side(xx) else modified_gx(xx, yy)
        return np.array([gx, gy])

    # exact where {c:g} would round c, so that get_problem(name) is this problem
    label = f"{c:g}" if float(f"{c:g}") == c else repr(c)
    return _problem(f"fc_c{label}", objective, gradient, [np.array([1.0, 1.0])])


# ---------------------------------------------------------------------------
# Standard suite
# ---------------------------------------------------------------------------

def _index(x):
    """The index vector i = 1, ..., n of ``x``, as floats."""
    return np.arange(1, x.shape[0] + 1, dtype=float)


def _weighted_squares(weights):
    """Objective sum_i w_i x_i^2 and gradient 2 w * x, with w = ``weights(x)``:
    sphere (w = 1), sumsquares (w = i) and rotated hyper-ellipsoid (w = n + 1 - i)."""
    return (lambda x: float(np.sum(weights(x) * x ** 2)),
            lambda x: 2.0 * weights(x) * x)


def _bohachevsky(x):
    return (x[0] ** 2 + 2.0 * x[1] ** 2
            - 0.3 * np.cos(3.0 * _PI * x[0]) - 0.4 * np.cos(4.0 * _PI * x[1]) + 0.7)


def _bohachevsky_grad(x):
    return np.array([2.0 * x[0] + 0.9 * _PI * np.sin(3.0 * _PI * x[0]),
                     4.0 * x[1] + 1.6 * _PI * np.sin(4.0 * _PI * x[1])])


_BRANIN_B = 5.1 / (4.0 * _PI ** 2)
_BRANIN_C = 5.0 / _PI
_BRANIN_T = 1.0 / (8.0 * _PI)


def _branin(x):
    inner = x[1] - _BRANIN_B * x[0] ** 2 + _BRANIN_C * x[0] - 6.0
    return inner ** 2 + 10.0 * (1.0 - _BRANIN_T) * np.cos(x[0]) + 10.0


def _branin_grad(x):
    inner = x[1] - _BRANIN_B * x[0] ** 2 + _BRANIN_C * x[0] - 6.0
    return np.array([2.0 * inner * (-2.0 * _BRANIN_B * x[0] + _BRANIN_C)
                     - 10.0 * (1.0 - _BRANIN_T) * np.sin(x[0]),
                     2.0 * inner])


def _crossintray(x):
    r = np.hypot(x[0], x[1])
    a = abs(np.sin(x[0]) * np.sin(x[1]) * np.exp(abs(100.0 - r / _PI)))
    return -1e-4 * (a + 1.0) ** 0.1


def _crossintray_grad(x):
    # Piecewise smooth: valid away from sin(x)sin(y) = 0 and r = 100*pi.
    r = np.hypot(x[0], x[1])
    s = np.sin(x[0]) * np.sin(x[1])
    b = 100.0 - r / _PI
    e = np.exp(abs(b))
    a = abs(s) * e
    sgn_s = np.sign(s) if s != 0.0 else 0.0
    sgn_b = np.sign(b) if b != 0.0 else 0.0
    common = -1e-5 * (a + 1.0) ** (-0.9)
    da_dx = (sgn_s * np.cos(x[0]) * np.sin(x[1]) * e
             + abs(s) * e * sgn_b * (-x[0] / (_PI * max(r, 1e-300))))
    da_dy = (sgn_s * np.sin(x[0]) * np.cos(x[1]) * e
             + abs(s) * e * sgn_b * (-x[1] / (_PI * max(r, 1e-300))))
    return np.array([common * da_dx, common * da_dy])


_CROSS_T = math.atan(math.sqrt(2.0) * _PI)  # 1.3494066171539107


def _dixonprice(x):
    return (x[0] - 1.0) ** 2 + 2.0 * (2.0 * x[1] ** 2 - x[0]) ** 2


def _dixonprice_grad(x):
    inner = 2.0 * x[1] ** 2 - x[0]
    return np.array([2.0 * (x[0] - 1.0) - 4.0 * inner,
                     16.0 * x[1] * inner])


def _easom(x):
    e = np.exp(-((x[0] - _PI) ** 2 + (x[1] - _PI) ** 2))
    return -np.cos(x[0]) * np.cos(x[1]) * e


def _easom_grad(x):
    e = np.exp(-((x[0] - _PI) ** 2 + (x[1] - _PI) ** 2))
    cc = np.cos(x[0]) * np.cos(x[1])
    return np.array([e * (np.sin(x[0]) * np.cos(x[1]) + 2.0 * (x[0] - _PI) * cc),
                     e * (np.cos(x[0]) * np.sin(x[1]) + 2.0 * (x[1] - _PI) * cc)])


def _griewank(x):
    i = _index(x)
    return float(np.sum(x ** 2) / 4000.0 - np.prod(np.cos(x / np.sqrt(i))) + 1.0)


def _griewank_grad(x):
    i = _index(x)
    cosv = np.cos(x / np.sqrt(i))
    prod = np.prod(cosv)
    g = x / 2000.0
    for j in range(x.shape[0]):
        rest = prod / cosv[j] if cosv[j] != 0.0 else np.prod(np.delete(cosv, j))
        g[j] += rest * np.sin(x[j] / np.sqrt(i[j])) / np.sqrt(i[j])
    return g


_HART_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HART_A = np.array([[3.0, 10.0, 30.0],
                    [0.1, 10.0, 35.0],
                    [3.0, 10.0, 30.0],
                    [0.1, 10.0, 35.0]])
_HART_P = 1e-4 * np.array([[3689.0, 1170.0, 2673.0],
                           [4699.0, 4387.0, 7470.0],
                           [1091.0, 8732.0, 5547.0],
                           [381.0, 5743.0, 8828.0]])
_HART_XSTAR = np.array([0.11458887665506896, 0.5556488946169301, 0.8525469846866774])


def _hartmann3(x):
    inner = np.sum(_HART_A * (x - _HART_P) ** 2, axis=1)
    return float(-np.sum(_HART_ALPHA * np.exp(-inner)))


def _hartmann3_grad(x):
    inner = np.sum(_HART_A * (x - _HART_P) ** 2, axis=1)
    e = _HART_ALPHA * np.exp(-inner)
    return np.sum(e[:, None] * 2.0 * _HART_A * (x - _HART_P), axis=0)


def _levy(x):
    w = 1.0 + (x - 1.0) / 4.0
    mid = np.sum((w[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(_PI * w[:-1] + 1.0) ** 2))
    last = (w[-1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * _PI * w[-1]) ** 2)
    return float(np.sin(_PI * w[0]) ** 2 + mid + last)


def _levy_grad(x):
    w = 1.0 + (x - 1.0) / 4.0
    g = np.zeros_like(w)
    g[0] += _PI * np.sin(2.0 * _PI * w[0])
    g[:-1] += (2.0 * (w[:-1] - 1.0) * (1.0 + 10.0 * np.sin(_PI * w[:-1] + 1.0) ** 2)
               + 10.0 * _PI * (w[:-1] - 1.0) ** 2 * np.sin(2.0 * (_PI * w[:-1] + 1.0)))
    g[-1] += (2.0 * (w[-1] - 1.0) * (1.0 + np.sin(2.0 * _PI * w[-1]) ** 2)
              + 2.0 * _PI * (w[-1] - 1.0) ** 2 * np.sin(4.0 * _PI * w[-1]))
    return g / 4.0


_MCCORMICK_XSTAR = np.array([(1.0 - 2.0 * _PI / 3.0) / 2.0,
                             (-1.0 - 2.0 * _PI / 3.0) / 2.0])


def _mccormick(x):
    return float(np.sin(x[0] + x[1]) + (x[0] - x[1]) ** 2 - 1.5 * x[0] + 2.5 * x[1] + 1.0)


def _mccormick_grad(x):
    cs = np.cos(x[0] + x[1])
    d = 2.0 * (x[0] - x[1])
    return np.array([cs + d - 1.5, cs - d + 2.5])


_SCHWEFEL_XSTAR = 420.968746359982


def _schwefel(x):
    return float(418.9829 * x.shape[0] - np.sum(x * np.sin(np.sqrt(np.abs(x)))))


def _schwefel_grad(x):
    r = np.sqrt(np.abs(x))
    # d/dx [x sin(sqrt|x|)] = sin(r) + (r/2) cos(r), independent of sign(x)
    return -(np.sin(r) + 0.5 * r * np.cos(r))


_STYBTANG_XSTAR = -2.903534027771177


def _styblinski_tang(x):
    return float(0.5 * np.sum(x ** 4 - 16.0 * x ** 2 + 5.0 * x))


def _styblinski_tang_grad(x):
    return 2.0 * x ** 3 - 16.0 * x + 2.5


def _zakharov(x):
    s = float(np.sum(0.5 * _index(x) * x))
    return float(np.sum(x ** 2) + s ** 2 + s ** 4)


def _zakharov_grad(x):
    i = _index(x)
    s = float(np.sum(0.5 * i * x))
    return 2.0 * x + (2.0 * s + 4.0 * s ** 3) * 0.5 * i


def _problem(name, obj, grad, minimizers):
    """Dimension, minimum value and start-box center all come from the first minimizer."""
    mins = [np.asarray(m, dtype=float) for m in minimizers]
    return Problem(name=name, dimension=mins[0].shape[0], objective=obj, gradient=grad,
                   known_minimizers=mins,
                   known_min_value=float(obj(mins[0])),
                   start_box=StartBox(center=mins[0].copy()))


def standard_suite():
    """The 15-problem low-dimensional test set."""
    return [
        _problem("bohachevsky", _bohachevsky, _bohachevsky_grad, [np.zeros(2)]),
        _problem("branin", _branin, _branin_grad,
                 [np.array([xs, _BRANIN_B * xs ** 2 - _BRANIN_C * xs + 6.0])
                  for xs in (-_PI, _PI, 3.0 * _PI)]),
        _problem("crossintray", _crossintray, _crossintray_grad,
                 [np.array([sx * _CROSS_T, sy * _CROSS_T]) for sx in (1, -1) for sy in (1, -1)]),
        _problem("dixonprice", _dixonprice, _dixonprice_grad,
                 [np.array([1.0, 2.0 ** -0.5]), np.array([1.0, -(2.0 ** -0.5)])]),
        _problem("easom", _easom, _easom_grad, [np.array([_PI, _PI])]),
        _problem("griewank", _griewank, _griewank_grad, [np.zeros(4)]),
        _problem("hartmann3", _hartmann3, _hartmann3_grad, [_HART_XSTAR.copy()]),
        _problem("levy", _levy, _levy_grad, [np.ones(4)]),
        _problem("mccormick", _mccormick, _mccormick_grad, [_MCCORMICK_XSTAR.copy()]),
        _problem("rotatedhyperellipsoid", *_weighted_squares(lambda x: _index(x)[::-1]),
                 [np.zeros(4)]),
        _problem("schwefel", _schwefel, _schwefel_grad, [np.full(2, _SCHWEFEL_XSTAR)]),
        _problem("sphere", *_weighted_squares(lambda x: 1.0), [np.zeros(8)]),
        _problem("styblinskitang", _styblinski_tang, _styblinski_tang_grad,
                 [np.full(4, _STYBTANG_XSTAR)]),
        _problem("sumsquares", *_weighted_squares(_index), [np.zeros(10)]),
        _problem("zakharov", _zakharov, _zakharov_grad, [np.zeros(2)]),
    ]


SUITE_NAMES = [p.name for p in standard_suite()]


def get_problem(name):
    """Registry lookup by lowercase hyphenless name; an fc problem is named
    as ``make_fc`` names it, ``fc_c<c>``."""
    label = name.strip().lower()
    if label.startswith("fc_c"):
        try:
            c = float(label[4:])
        except ValueError:
            raise KeyError(f"unknown problem {name!r}") from None
        return make_fc(c)
    key = label.replace("-", "").replace("_", "").replace(" ", "")
    for prob in standard_suite():
        if prob.name == key:
            return prob
    raise KeyError(f"unknown problem {name!r}; known: {', '.join(SUITE_NAMES)} and fc_c<c>")
