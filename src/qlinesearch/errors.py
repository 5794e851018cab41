"""Exception types shared across the solvers."""


class NumericError(ArithmeticError):
    """A user callback produced a non-finite value, at ``point`` when known.
    The solvers end such a run as ``numeric_failure`` and drop the error, so
    only direct callers of q_hessian, q_partial and checked_gradient see the point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class GradientShapeError(ValueError):
    """A gradient, constraint or Jacobian callback returned an array of the
    wrong shape: (n,) for a gradient at x of length n, (m,) for m constraint
    values, (m, n) for their Jacobian."""


class LineSearchError(RuntimeError):
    """A step found no sufficient decrease, or its direction is not one of descent."""


#: the former name of a non-descent direction's error, kept for its importers
DescentDirectionError = LineSearchError


class CallbackError(RuntimeError):
    """A problem's objective or gradient raised an error that does not end a
    run as numeric_failure; a sweep's solve raises this from it instead."""


class QPError(RuntimeError):
    """Quadratic subproblem is infeasible, has dependent equality rows, or did not terminate."""
