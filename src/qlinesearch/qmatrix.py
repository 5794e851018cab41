"""Symmetrized q-Hessian surrogates.

Row i of the raw matrix is ``qcalc.q_difference`` of the whole gradient in
coordinate i, the kernel behind ``q_partial``; symmetrizing with
(a_ij + a_ji)/2 yields a symmetric curvature surrogate that is exact for
quadratics at every q and converges to the Hessian as q -> 1.  One gradient
evaluation at x plus one per q-shifted point suffices; rows whose coordinate
sits in the zero band use a central difference of the gradient instead (two
extra evaluations).  ``lagrangian_gradient`` forms the Lagrangian gradient
for both the SQP solver and the Lagrangian q-Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GradientShapeError, NumericError
from .qcalc import _check_q, q_difference


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
