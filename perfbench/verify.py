"""Independent rechecks of solver results and the reproducibility contract.

A converged result is rechecked with the raw (uncounted) callbacks: the
gradient norm (or, for SQP, the KKT residual and constraint violation) is
recomputed at ``x_final``, and ``f_final`` must equal ``f(x_final)`` exactly.

The contract rows are the columns later optimisations promise to keep
identical: a row key (problem, solver, run index), the start point, the
success flag, and the iteration count of successful rows.  Failed rows'
iterations are left out because the divergence guard is allowed to change
them.  A reference at the default seed is stored under ``reference/``.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from qlinesearch.usolve import STATUS_CONVERGED

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REFERENCE_HEADER = ("key", "start", "success", "iterations")

#: an SQP KKT residual recomputed with least-squares multipliers may exceed
#: the solver's own residual by the contribution of near-zero multipliers on
#: inactive constraints; allow one order of magnitude
KKT_SLACK = 10.0


@dataclass(frozen=True)
class ContractRow:
    key: str
    start: str
    success: bool
    iterations: Optional[int]


def contract_row(key, start, success, iterations):
    start = ";".join(repr(float(v)) for v in np.asarray(start, dtype=float))
    return ContractRow(key, start, bool(success), int(iterations) if success else None)


def check_unconstrained(problem, result, tol):
    """None if the result passes its recheck, else the reason it fails."""
    if result.status != STATUS_CONVERGED:
        return None
    x = result.x_final
    gnorm = float(np.linalg.norm(np.asarray(problem.gradient(x), dtype=float)))
    if not gnorm < tol:
        return f"converged with |grad f(x_final)| = {gnorm:.3e} >= {tol:g}"
    if float(problem.objective(x)) != result.f_final:
        return "f_final differs from f(x_final)"
    return None


def check_constrained(instance, result, tol):
    """Recheck a converged SQP result: feasibility within ``tol`` and a
    stationary Lagrangian with least-squares multipliers over the equality
    and active inequality constraints (inequality multipliers >= 0)."""
    if result.status != STATUS_CONVERGED:
        return None
    x = result.x_final
    base = instance.base
    if float(base.objective(x)) != result.f_final:
        return "f_final differs from f(x_final)"
    h = instance.h(x)
    g = instance.g(x)
    violation = float(np.linalg.norm(h)) + float(np.linalg.norm(np.maximum(g, 0.0)))
    if violation > tol:
        return f"constraint violation {violation:.3e} > {tol:g}"
    active = g >= -tol
    rows = np.vstack([instance.jac_h(x), instance.jac_g(x)[active]])
    grad = np.asarray(base.gradient(x), dtype=float)
    if rows.shape[0]:
        lam, *_ = np.linalg.lstsq(rows.T, -grad, rcond=None)
        residual = float(np.linalg.norm(grad + rows.T @ lam))
        ineq = lam[h.shape[0]:]
    else:
        residual = float(np.linalg.norm(grad))
        ineq = np.zeros(0)
    if residual > KKT_SLACK * tol:
        return f"KKT residual {residual:.3e} > {KKT_SLACK * tol:g}"
    if ineq.size and float(ineq.min()) < -KKT_SLACK * tol:
        return f"negative inequality multiplier {float(ineq.min()):.3e}"
    return None


def compare_rows(rows, expected):
    """Number of rows that differ between two contract row lists (a missing
    or extra row counts once)."""
    got = {r.key: r for r in rows}
    want = {r.key: r for r in expected}
    return sum(1 for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.csv")


def write_reference(workload, rows):
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(reference_path(workload), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REFERENCE_HEADER)
        for r in rows:
            writer.writerow((r.key, r.start, "true" if r.success else "false",
                             "" if r.iterations is None else r.iterations))


def load_reference(workload):
    with open(reference_path(workload), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader)) != REFERENCE_HEADER:
            raise ValueError(f"unexpected header in {reference_path(workload)}")
        return [ContractRow(key, start, success == "true",
                            int(iters) if iters else None)
                for key, start, success, iters in reader]
