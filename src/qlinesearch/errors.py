"""Exception types shared across the solvers, and the package's count rule."""

import numbers


def check_counts(least=1, **counts):
    """Raise ValueError unless each count is an integer >= ``least``, not a bool."""
    for name, value in counts.items():
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
            raise ValueError(f"{name} must be a whole number of at least {least}, got {value!r}")


class NumericError(ArithmeticError):
    """A number a run cannot go on from, at ``point`` when known: a non-finite
    value of a callback (f, its gradient, h, g or their Jacobians, or a
    q-partial or q-Hessian entry built from them), a non-finite slope g.p of
    an unconstrained step, or a ``QSchedule`` whose next q rounds to 1.  The
    solvers end such a run as ``numeric_failure`` and drop the error, so
    only direct callers of q_hessian, q_partial and checked_gradient see the point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class GradientShapeError(ValueError):
    """A gradient, constraint or Jacobian callback returned an array of the
    wrong shape: (n,) for a gradient at x of length n, (m,) for m constraint
    values, (m, n) for their Jacobian."""


class LineSearchError(RuntimeError):
    """A step that cannot be taken: no sufficient decrease within the
    search's halvings, a direction that is not one of descent, an accepted
    unconstrained step that leaves x unchanged, or an SQP merit step that
    left the merit unchanged while the KKT residual did not fall.  The
    solvers end such a run as ``line_search_failure``."""


#: the former name of a non-descent direction's error, kept for its importers
DescentDirectionError = LineSearchError


class CallbackError(RuntimeError):
    """A problem's objective or gradient raised an error that does not end a
    run as numeric_failure; a sweep's solve raises this from it instead."""


class QPError(RuntimeError):
    """Quadratic subproblem is infeasible, has dependent equality rows, or did not terminate."""
