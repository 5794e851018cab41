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


class DescentDirectionError(ValueError):
    """The supplied direction is not a descent direction (slope at 0 is >= 0)."""


class LineSearchError(RuntimeError):
    """No step in the backtracking sequence satisfied the sufficient-decrease test."""


class QPError(RuntimeError):
    """Quadratic subproblem is infeasible, has dependent equality rows, or did not terminate."""
