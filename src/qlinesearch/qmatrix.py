"""q-derivative operators, the q_k schedule and symmetrized q-Hessian surrogates.

The q-derivative of f at x is (f(x) - f(qx)) / ((1-q)x) for q in (0,1); it
reduces to the classical derivative as q -> 1 and is defined without second
order smoothness.  The q-partial derivative, ``q_partial``, scales a single
coordinate by q.  One kernel, ``q_difference``, holds its rule and that of
every row of the q-Hessian: the q-quotient away from zero, and a classical
(central finite difference) derivative in the band around x_i = 0, where
the scaled coordinate carries no information.

Row i of the raw q-Hessian is ``q_difference`` of the whole gradient in
coordinate i; symmetrizing with (a_ij + a_ji)/2 yields a curvature surrogate
that is exact for quadratics at every q and converges to the Hessian as
q -> 1, from one gradient evaluation at x plus one per row (two per row in
the zero band).  ``lagrangian_terms`` picks the multiplier terms and
``lagrangian_gradient`` forms the Lagrangian gradient from them, for both
the SQP solver and the Lagrangian q-Hessian.
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
    shifted = x.copy()
    shifted[i] = q * xi  # every other coordinate stays bit-identical to x's
    return (gx - g(shifted)) / ((1.0 - q) * xi), False


def q_partial(g, x, i, q):
    """q-partial derivative of the scalar ``g`` at ``x`` in coordinate ``i``:
    ``q_difference`` as a float, which must be finite.  At n = 1 it is the
    q-derivative of a function of one variable, x = 0 taking the central
    difference."""
    q = _check_q(q)
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"coordinate index {i} out of range for dimension {n}")
    val = float(q_difference(g, x, i, q)[0])
    if not np.isfinite(val):
        raise NumericError("non-finite q-partial evaluation")
    return val


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


@dataclass(eq=False)
class QHessian:
    """Symmetrized q-Hessian: the matrix, and how many entries came from the
    zero-coordinate finite-difference branch."""

    matrix: np.ndarray
    fallback_count: int


def _checked(a, shape, what):
    if a.shape != shape:
        raise GradientShapeError(f"{what} returned shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise NumericError(f"non-finite {what} evaluation")
    return a


def checked_gradient(g, x):
    """``g``, a gradient value at ``x``, as a float array of x's length.

    Raises ``GradientShapeError`` on a wrong shape and ``NumericError`` on a
    non-finite entry, so every solver rejects a bad gradient the same way.
    """
    return _checked(np.asarray(g, dtype=float), (len(x),), "gradient")


def checked_jacobian(J, rows, x):
    """``J``, a constraint Jacobian value at ``x``, as a float (rows, n) array;
    a 1-D value is one row.  Raises as ``checked_gradient`` does."""
    return _checked(np.atleast_2d(np.asarray(J, dtype=float)), (rows, len(x)), "Jacobian")


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
    if not np.isfinite(matrix).all():
        raise NumericError("non-finite q-Hessian entry")
    return QHessian(matrix=matrix, fallback_count=fallback)


def lagrangian_terms(jac_h, u, jac_g, v):
    """The (Jacobian, multipliers) pairs that add to the Lagrangian gradient,
    J_h's first: those whose Jacobian is given and whose multipliers, as a
    float array, are not None, empty or all zero.  A Jacobian is kept as
    given, a value at one point or a callback."""
    terms = [(jac, np.asarray(m, dtype=float)) for jac, m in ((jac_h, u), (jac_g, v))
             if jac is not None and m is not None]
    return [(jac, m) for jac, m in terms if m.any()]


def lagrangian_gradient(grad_f, terms):
    """grad f + J^T m, adding each (J, m) of ``terms`` in order: checked
    values at one point, ``terms`` from ``lagrangian_terms``.  With no terms
    the result is ``grad_f`` itself."""
    for jac, multipliers in terms:
        grad_f = grad_f + jac.T @ multipliers
    return grad_f


def q_hessian_lagrangian(grad_f, x, q, jac_h=None, u=None, jac_g=None, v=None, g0=None):
    """q-Hessian of the Lagrangian f + u.h + v.g with multipliers held fixed.

    ``jac_h``/``jac_g`` return the (m, n) / (p, n) constraint Jacobians, m
    and p the lengths of ``u`` and ``v``.  ``lagrangian_terms`` picks the
    terms once, so a Jacobian is called, once per point q_hessian evaluates,
    only when its multipliers are nonzero.  At each point ``grad_f``'s value
    is checked by ``checked_gradient``, then each term's by ``checked_jacobian``.
    With zero (or absent) multipliers the result is identical to
    ``q_hessian`` of the objective at the same point and q.  ``g0``, the
    Lagrangian gradient at ``x`` when the caller holds it, is passed through
    to ``q_hessian``.
    """
    terms = lagrangian_terms(jac_h, u, jac_g, v)

    def grad_lagrangian(pt):  # grad f is checked before the terms could broadcast it
        g = checked_gradient(grad_f(pt), pt)
        return lagrangian_gradient(g, [(checked_jacobian(jac(pt), len(m), pt), m)
                                       for jac, m in terms])

    return q_hessian(grad_lagrangian, x, q, g0=g0)
