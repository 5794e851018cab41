"""Shared test setup.

The randomized tests of the layers (q-Hessian, factorization and
modification, QP step) are Hypothesis properties under one profile:
derandomized, so every run draws the same examples, and without an example
database, so no run replays what an earlier one stored.  Their strategies
draw dimensions up to ``MAX_N``.  A seeded loop is left only where no
property states its claim.

``SOLVES`` is the table of the three solvers, each called as ``solve_qls``
is; SQP solves the problem through a ``ConstrainedProblem`` without
constraints.  Each claim about whole solver runs is checked once: by the
acceptance criterion that states it, or else by one test over the entries
of ``SOLVES`` that can reach it, so a new solver is one more entry.  The
same holds above the solvers: each claim about the problems, the sweeps,
the CSV files, the CLI and the scripts of ``tools/`` is checked by one test,
the acceptance criterion that states it where there is one.  A test whose
claim another states with a bound no looser, on inputs that include its
own, is not kept beside it.

The ``recorded_solves`` fixture watches the solves of a ``bench`` sweep
through its ``wrap``, ``load_tool`` imports a script of ``tools/``, and
``child_env`` is the environment of a child Python process.  ``circle`` is
the constrained test problem that several modules share.
"""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from qlinesearch.sqp import ConstrainedProblem, solve_qsqp
from qlinesearch.usolve import DEFAULT_SCHEDULE, solve_bfgs, solve_qls

settings.register_profile("qlinesearch", max_examples=100, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("qlinesearch")

#: the largest dimension any benchmark workload sends to a layer (the suite's
#: sumsquares, n = 10), where the layer properties' strategies stop
MAX_N = 10


def solve_sqp(problem, x0, config=None, schedule=DEFAULT_SCHEDULE, callback=None):
    """``solve_qsqp`` on ``problem`` with no constraints, called as
    ``solve_qls`` is."""
    return solve_qsqp(ConstrainedProblem(problem.objective, problem.gradient, x0),
                      config=config, schedule=schedule, callback=callback)


#: each solver by name, called as solve(problem, x0, config=None, ...)
SOLVES = {"qls": solve_qls, "bfgs": solve_bfgs, "sqp": solve_sqp}


def circle(**fields):
    """The keyword arguments of ``ConstrainedProblem`` for min x0 + x1 on the
    circle |x|^2 = 2 from (-0.5, -1.5), solved at (-1, -1); ``fields`` replace
    or add any of them."""
    return {"objective": lambda x: float(x[0] + x[1]),
            "gradient": lambda x: np.array([1.0, 1.0]),
            "x0": np.array([-0.5, -1.5]),
            "h": lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
            "jac_h": lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
            "n_eq": 1, **fields}


class _SolveLog(list):
    """(problem, solver, SolveResult) of every solve of the sweeps it wraps,
    as their ``wrap``."""

    def __call__(self, solver, solve):
        def run(problem, x0, config):
            result = solve(problem, x0, config)
            self.append((problem, solver, result))
            return result
        return run


@pytest.fixture(scope="session")
def recorded_solves():
    """A function returning an empty list that, passed as a ``bench`` sweep's
    ``wrap``, collects (problem, solver, SolveResult) for each of its solves."""
    return _SolveLog


@pytest.fixture
def load_tool(monkeypatch):
    """A function that imports ``tools/<name>.py`` as a module; the paths a
    script prepends to ``sys.path`` are dropped after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))

    def load(name):
        path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


@pytest.fixture(scope="session")
def child_env():
    """The environment under which a child Python process imports the same
    qlinesearch package this process tests, whether it came from an install
    or from pytest's pythonpath setting."""
    import qlinesearch
    root = os.path.dirname(os.path.dirname(os.path.abspath(qlinesearch.__file__)))
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)
