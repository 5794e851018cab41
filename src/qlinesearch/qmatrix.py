"""Symmetrized q-Hessian surrogates.

Row i of the raw matrix applies the q-partial in coordinate i to every
component of the gradient; symmetrizing with (a_ij + a_ji)/2 yields a
symmetric curvature surrogate that is exact for quadratics at every q and
converges to the Hessian as q -> 1.  One gradient evaluation at x plus one
per q-shifted point suffices; rows whose coordinate sits in the zero band
use a central difference of the gradient instead (two extra evaluations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .qcalc import ZERO_BAND, _check_q, default_fd_step, q_shift


@dataclass
class QHessian:
    """Symmetrized q-Hessian: the matrix, the q used, and how many entries
    came from the zero-coordinate finite-difference branch."""

    matrix: np.ndarray
    q_used: float
    fallback_count: int


def checked_gradient(g, x):
    """``g``, a gradient value at ``x``, as a float array of x's length.

    Raises ``ValueError`` on a wrong shape and ``NumericError`` on a
    non-finite entry, so every solver rejects a bad gradient the same way.
    """
    g = np.asarray(g, dtype=float)
    n = np.shape(x)[0]
    if g.shape != (n,):
        raise ValueError(f"gradient returned shape {g.shape}, expected ({n},)")
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient evaluation", point=np.asarray(x, dtype=float).copy())
    return g


def q_hessian(gradient, x, q, fd_step=None, g0=None):
    """Assemble the symmetrized q-Hessian of the function whose gradient is given.

    ``gradient`` must return the full analytic gradient; it is evaluated once
    per q-shifted point, and once at ``x`` unless the caller already holds
    that value and passes it as ``g0``.
    """
    q = _check_q(q)
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    scale = max(1.0, float(np.max(np.abs(x))) if n else 1.0)
    g0 = checked_gradient(gradient(x) if g0 is None else g0, x)
    rows = np.empty((n, n))
    fallback = 0
    for i in range(n):
        xi = float(x[i])
        if abs(xi) <= ZERO_BAND * scale:
            h = default_fd_step(xi) if fd_step is None else float(fd_step)
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            rows[i] = (checked_gradient(gradient(xp), xp) - checked_gradient(gradient(xm), xm)) / (2.0 * h)
            fallback += n
        else:
            xs = q_shift(x, i, q)
            gi = checked_gradient(gradient(xs), xs)
            rows[i] = (g0 - gi) / ((1.0 - q) * xi)
    matrix = 0.5 * (rows + rows.T)
    if not np.all(np.isfinite(matrix)):
        raise NumericError("non-finite q-Hessian entry", point=x.copy())
    return QHessian(matrix=matrix, q_used=q, fallback_count=fallback)


def q_hessian_lagrangian(grad_f, x, q, jac_h=None, u=None, jac_g=None, v=None, fd_step=None,
                         g0=None):
    """q-Hessian of the Lagrangian f + u.h + v.g with multipliers held fixed.

    ``jac_h``/``jac_g`` return the (m, n) / (p, n) constraint Jacobians.  With
    zero (or absent) multipliers the result is identical to ``q_hessian`` of
    the objective at the same point and q.  ``g0``, the Lagrangian gradient
    at ``x`` when the caller holds it, is passed through to ``q_hessian``.
    """
    u = None if u is None else np.asarray(u, dtype=float)
    v = None if v is None else np.asarray(v, dtype=float)
    use_h = jac_h is not None and u is not None and u.size > 0 and np.any(u != 0.0)
    use_g = jac_g is not None and v is not None and v.size > 0 and np.any(v != 0.0)

    def grad_lagrangian(pt):
        g = np.asarray(grad_f(pt), dtype=float)
        if use_h:
            g = g + np.asarray(jac_h(pt), dtype=float).T @ u
        if use_g:
            g = g + np.asarray(jac_g(pt), dtype=float).T @ v
        return g

    return q_hessian(grad_lagrangian, x, q, fd_step=fd_step, g0=g0)
