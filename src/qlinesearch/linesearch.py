"""Armijo backtracking (Nocedal & Wright 2006, Alg. 3.1).

Every solver uses the paper's protocol: c1 = 1e-4, halving from the unit
step.  ``backtracking_step`` checks nothing about its inputs: each caller
decides whether phi0 must be finite and the slope negative.  The
unconstrained solvers demand both; the SQP merit search does not, because
the slope of its l1 merit can round to a tiny positive number on a step
that still decreases the merit.  Non-finite trial values fail the test and
backtracking continues.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LineSearchError

C1 = 1e-4
ALPHA0 = 1.0
BACKTRACK_FACTOR = 0.5
MAX_HALVINGS = 60


@dataclass
class StepResult:
    alpha: float
    trials: int
    value: float  # phi(alpha), the last trial's value


def backtracking_step(phi, phi0, slope):
    """Largest alpha in {ALPHA0 * BACKTRACK_FACTOR^j} with
    phi(alpha) <= phi0 + C1 alpha slope.

    ``phi(a)`` is the function along the ray, ``phi0`` its value at 0 and
    ``slope`` its derivative there.  Raises ``LineSearchError`` when no trial
    within MAX_HALVINGS halvings passes, after MAX_HALVINGS + 1 trials.
    """
    alpha = ALPHA0
    for trial in range(1, MAX_HALVINGS + 2):
        value = phi(alpha)
        if value <= phi0 + C1 * alpha * slope:
            return StepResult(alpha=alpha, trials=trial, value=value)
        alpha *= BACKTRACK_FACTOR
    raise LineSearchError(f"Armijo condition not satisfied within {MAX_HALVINGS} halvings")
