"""q-derivative operators and the q_k schedule.

The q-derivative of f at x is (f(x) - f(qx)) / ((1-q)x) for q in (0,1); it
reduces to the classical derivative as q -> 1 and is defined without second
order smoothness.  The coordinate version scales a single coordinate by q.
One kernel, ``q_difference``, holds the rule for both operators here and for
every row of the q-Hessian in ``qmatrix``: the q-quotient away from zero, and
a classical (central finite difference) derivative in the band around
x_i = 0, where the scaled coordinate carries no information.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_EPS = float(np.finfo(float).eps)

# Relative half-width of the band around x_i = 0 that triggers the classical
# fallback: dividing by (1-q)*x_i below this is pure cancellation noise.
ZERO_BAND = 1e-12


def check_counts(least=1, **counts):
    """Raise ValueError unless each count is an integer >= ``least``, not a bool."""
    for name, value in counts.items():
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
            raise ValueError(f"{name} must be a whole number of at least {least}, got {value!r}")


def _check_q(q):
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in the open interval (0, 1), got {q!r}")
    return q


def default_fd_step(scale=1.0):
    """Central-difference step used on the zero-coordinate branch.

    Cube root of machine epsilon, scaled by max(1, |scale|).
    """
    return _EPS ** (1.0 / 3.0) * max(1.0, abs(float(scale)))


def central_difference(g, x, i, h):
    """(g(x + h e_i) - g(x - h e_i)) / 2h at the float array ``x``, calling g
    at x + h e_i first."""
    xp, xm = x.copy(), x.copy()
    xp[i] += h
    xm[i] -= h
    return (g(xp) - g(xm)) / (2.0 * h)


def _shifted(x, i, q):
    # q_shift on arguments its callers have checked already
    out = x.copy()
    out[i] = q * x[i]
    return out


def _checked(x, i, q):
    q = _check_q(q)
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"coordinate index {i} out of range for dimension {n}")
    return x, i, q


def q_shift(x, i, q):
    """Return a copy of ``x`` with coordinate ``i`` multiplied by ``q``.

    Every other coordinate is bit-identical to the input.
    """
    return _shifted(*_checked(x, i, q))


def q_difference(g, x, i, q, gx=None):
    """q-difference of ``g`` at the float array ``x`` in coordinate ``i``,
    and whether the zero band forced the central difference instead.

    ``g`` may be scalar- or vector-valued; ``gx`` is g(x) when the caller
    holds it.  q and i are not checked here: the public entry points check
    them once.  The q-quotient calls g at x (unless ``gx`` is given), then at
    the q-shifted point; the central difference calls g at x + h e_i, then
    at x - h e_i.  The value is not checked for finiteness.
    """
    xi = float(x[i])
    if abs(xi) <= ZERO_BAND * max(1.0, float(abs(x).max())):
        return central_difference(g, x, i, default_fd_step(xi)), True
    if gx is None:
        gx = g(x)
    return (gx - g(_shifted(x, i, q))) / ((1.0 - q) * xi), False


def q_partial(g, x, i, q):
    """q-partial derivative of the scalar ``g`` at ``x`` in coordinate ``i``:
    ``q_difference`` as a float, which must be finite."""
    x, i, q = _checked(x, i, q)
    val = float(q_difference(g, x, i, q)[0])
    if not np.isfinite(val):
        raise NumericError("non-finite q-partial evaluation", point=x.copy())
    return val


def q_derivative_1d(f, x, q):
    """q-derivative of a scalar function of one variable: ``q_partial`` on a
    1-vector, so x = 0, where the q-quotient is undefined, takes the central
    difference."""
    return q_partial(lambda v: f(float(v[0])), np.array([float(x)]), 0, q)


@dataclass(frozen=True)
class QSchedule:
    """State of the sequence q_{k+1} = 1 - q_k^gamma / k (k >= 1).

    The update formula divides by the pre-increment counter k, which is zero
    at the very first advance; that transition keeps q_1 = q_0 so the first
    two iterations run at q_0.  Values stay in (0, 1) and approach 1 like
    1 - O(1/k).
    """

    q0: float
    gamma: int
    k: int = 0
    q_current: float = None

    def __post_init__(self):
        object.__setattr__(self, "q0", _check_q(self.q0))
        check_counts(gamma=self.gamma)
        check_counts(0, k=self.k)
        q = self.q0 if self.q_current is None else _check_q(self.q_current)
        object.__setattr__(self, "q_current", q)


def next_q(schedule):
    """Advance the schedule one iteration and return the new state.

    For k >= 1 the new value is 1 - q_k^gamma / k; the k = 0 -> 1 transition
    carries q_0 forward unchanged (the formula's divisor would be zero there).
    A new value that rounds to 1 is no q: NumericError (``numeric_failure``).
    """
    if schedule.k == 0:
        q_new = schedule.q_current
    else:
        q_new = 1.0 - schedule.q_current ** schedule.gamma / schedule.k
        if q_new == 1.0:
            raise NumericError(f"q_{schedule.k + 1} = 1 - q_k^gamma / k rounds to 1")
    return QSchedule(schedule.q0, schedule.gamma, k=schedule.k + 1, q_current=q_new)
