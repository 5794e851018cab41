"""q-derivative operators, the q_k schedule and symmetrized q-Hessian surrogates.

The q-derivative of f at x is (f(x) - f(qx)) / ((1-q)x) for q in (0,1); it
reduces to the classical derivative as q -> 1 and is defined without second
order smoothness.  The coordinate version scales a single coordinate by q.
One kernel, ``q_difference``, holds the rule for both operators and for
every row of the q-Hessian: the q-quotient away from zero, and a classical
(central finite difference) derivative in the band around x_i = 0, where
the scaled coordinate carries no information.

Row i of the raw q-Hessian is ``q_difference`` of the whole gradient in
coordinate i; symmetrizing with (a_ij + a_ji)/2 yields a curvature surrogate
that is exact for quadratics at every q and converges to the Hessian as
q -> 1, from one gradient evaluation at x plus one per row (two per row in
the zero band).  ``lagrangian_gradient`` forms the Lagrangian gradient for
both the SQP solver and the Lagrangian q-Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GradientShapeError, NumericError, check_counts

_EPS = float(np.finfo(float).eps)

# Relative half-width of the band around x_i = 0 that triggers the classical
# fallback: dividing by (1-q)*x_i below this is pure cancellation noise.
ZERO_BAND = 1e-12


def _check_q(q):
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in the open interval (0, 1), got {q!r}")
    return q


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


def _checked_coordinate(x, i, q):
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
    return _shifted(*_checked_coordinate(x, i, q))


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
        # step: cube root of machine epsilon, scaled by max(1, |x_i|)
        return central_difference(g, x, i, _EPS ** (1.0 / 3.0) * max(1.0, abs(xi))), True
    if gx is None:
        gx = g(x)
    return (gx - g(_shifted(x, i, q))) / ((1.0 - q) * xi), False


def q_partial(g, x, i, q):
    """q-partial derivative of the scalar ``g`` at ``x`` in coordinate ``i``:
    ``q_difference`` as a float, which must be finite."""
    x, i, q = _checked_coordinate(x, i, q)
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
    """The sequence q_{k+1} = 1 - q_k^gamma / k (k >= 1) from q_0 = ``q0``:
    iterating a schedule yields q_0, q_1, ... without end, one per iteration.

    The k = 0 -> 1 transition keeps q_1 = q_0 (the formula's divisor would be
    zero there).  Values stay in (0, 1) and approach 1 like 1 - O(1/k).  q_k
    is yielded once q_{k+1} is known; a q_{k+1} that rounds to 1 is no q,
    and the iterator raises NumericError (``numeric_failure``) instead.
    """

    q0: float
    gamma: int

    def __post_init__(self):
        object.__setattr__(self, "q0", _check_q(self.q0))
        check_counts(gamma=self.gamma)

    def __iter__(self):
        q, k = self.q0, 0
        while True:
            q_next = 1.0 - q ** self.gamma / k if k else q
            if q_next == 1.0:
                raise NumericError(f"q_{k + 1} = 1 - q_k^gamma / k rounds to 1")
            yield q
            q, k = q_next, k + 1


@dataclass
class QHessian:
    """Symmetrized q-Hessian: the matrix, and how many entries came from the
    zero-coordinate finite-difference branch."""

    matrix: np.ndarray
    fallback_count: int


def _checked(a, shape, x, what):
    if a.shape != shape:
        raise GradientShapeError(f"{what} returned shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise NumericError(f"non-finite {what} evaluation", point=np.asarray(x, dtype=float).copy())
    return a


def checked_gradient(g, x):
    """``g``, a gradient value at ``x``, as a float array of x's length.

    Raises ``GradientShapeError`` on a wrong shape and ``NumericError`` on a
    non-finite entry, so every solver rejects a bad gradient the same way.
    """
    return _checked(np.asarray(g, dtype=float), (np.shape(x)[0],), x, "gradient")


def checked_jacobian(J, rows, x):
    """``J``, a constraint Jacobian value at ``x``, as a float (rows, n) array;
    a 1-D value is one row.  Raises as ``checked_gradient`` does."""
    return _checked(np.atleast_2d(np.asarray(J, dtype=float)), (rows, np.shape(x)[0]), x,
                    "Jacobian")


def q_hessian(gradient, x, q, g0=None):
    """Assemble the symmetrized q-Hessian of the function whose gradient is given.

    ``gradient`` must return the full analytic gradient; it is evaluated once
    per q-shifted point, and once at ``x`` unless the caller already holds
    that value and passes it as ``g0``.
    """
    q = _check_q(q)
    x = np.asarray(x, dtype=float)
    n = x.shape[0]

    def checked(pt):
        return checked_gradient(gradient(pt), pt)

    g0 = checked_gradient(gradient(x) if g0 is None else g0, x)
    rows = np.empty((n, n))
    fallback = 0
    for i in range(n):
        rows[i], central = q_difference(checked, x, i, q, g0)
        if central:
            fallback += n
    matrix = 0.5 * (rows + rows.T)
    if not np.all(np.isfinite(matrix)):
        raise NumericError("non-finite q-Hessian entry", point=x.copy())
    return QHessian(matrix=matrix, fallback_count=fallback)


def _contributing(jac, multipliers):
    """``multipliers`` as a float array when their term adds to the
    Lagrangian gradient (a Jacobian is given and a multiplier is nonzero),
    else None."""
    if jac is None or multipliers is None:
        return None
    multipliers = np.asarray(multipliers, dtype=float)
    return multipliers if multipliers.any() else None


def lagrangian_gradient(grad_f, jac_h, u, jac_g, v):
    """grad f + J_h^T u + J_g^T v from values at one point.

    A term is skipped when its Jacobian is None or its multipliers are None,
    empty or all zero; its Jacobian is then not read.  When both terms are
    skipped the result is ``grad_f`` as a float array, bit for bit.
    """
    g = np.asarray(grad_f, dtype=float)
    u, v = _contributing(jac_h, u), _contributing(jac_g, v)
    if u is not None:
        g = g + np.asarray(jac_h, dtype=float).T @ u
    if v is not None:
        g = g + np.asarray(jac_g, dtype=float).T @ v
    return g


def q_hessian_lagrangian(grad_f, x, q, jac_h=None, u=None, jac_g=None, v=None, g0=None):
    """q-Hessian of the Lagrangian f + u.h + v.g with multipliers held fixed.

    ``jac_h``/``jac_g`` return the (m, n) / (p, n) constraint Jacobians, m
    and p the lengths of ``u`` and ``v``, and are called only when their
    multipliers are nonzero; each value is checked by ``checked_jacobian``,
    and each ``grad_f`` value by ``checked_gradient``.
    With zero (or absent) multipliers the result is identical to
    ``q_hessian`` of the objective at the same point and q.  ``g0``, the
    Lagrangian gradient at ``x`` when the caller holds it, is passed through
    to ``q_hessian``.
    """
    u, v = _contributing(jac_h, u), _contributing(jac_g, v)

    def jacobian(jac, multipliers, pt):
        return None if multipliers is None else checked_jacobian(jac(pt), len(multipliers), pt)

    def grad_lagrangian(pt):  # grad f is checked before the terms could broadcast it
        return lagrangian_gradient(checked_gradient(grad_f(pt), pt), jacobian(jac_h, u, pt), u,
                                   jacobian(jac_g, v, pt), v)

    return q_hessian(grad_lagrangian, x, q, g0=g0)
