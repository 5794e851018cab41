"""Armijo backtracking (Nocedal & Wright 2006, Alg. 3.1).

``backtracking_step`` tries alpha0, alpha0 * tau, alpha0 * tau^2, ... and
accepts the first trial with phi(alpha) <= phi0 + c1 * alpha * slope.  It
checks nothing about its inputs: each caller decides whether phi0 must be
finite and the slope negative.  The unconstrained solvers demand both; the
SQP merit search does not, because the slope of its l1 merit can round to a
tiny positive number on a step that still decreases the merit.  Non-finite
trial values fail the test and backtracking continues.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LineSearchError


@dataclass(frozen=True)
class LineSearchParams:
    """The Armijo constant and the backtracking geometry."""

    c1: float = 1e-4
    alpha0: float = 1.0
    backtrack_factor: float = 0.5
    max_halvings: int = 60

    def __post_init__(self):
        if not 0.0 < self.c1 < 1.0:
            raise ValueError(f"need 0 < c1 < 1, got c1={self.c1}")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError(f"backtrack factor must be in (0, 1), got {self.backtrack_factor}")
        if self.alpha0 <= 0.0:
            raise ValueError(f"initial step must be positive, got {self.alpha0}")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be nonnegative")


@dataclass
class StepResult:
    alpha: float
    trials: int
    value: float  # phi(alpha), the last trial's value


def backtracking_step(phi, phi0, slope, params=None):
    """Largest alpha in {alpha0 * tau^j} with phi(alpha) <= phi0 + c1 alpha slope.

    ``phi(a)`` is the function along the ray, ``phi0`` its value at 0 and
    ``slope`` its derivative there.  Raises ``LineSearchError`` when no trial
    within ``max_halvings`` halvings passes.
    """
    if params is None:
        params = LineSearchParams()
    alpha = params.alpha0
    for trial in range(1, params.max_halvings + 2):
        value = phi(alpha)
        if value <= phi0 + params.c1 * alpha * slope:
            return StepResult(alpha=alpha, trials=trial, value=value)
        alpha *= params.backtrack_factor
    raise LineSearchError(
        f"Armijo condition not satisfied within {params.max_halvings} halvings")
