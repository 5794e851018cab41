"""Shared test setup.

One Hypothesis profile for every property test in the suite: derandomized,
so every run draws the same examples, and without an example database, so
no run replays what an earlier one stored.  The ``recorded_solves`` fixture
watches the solves of a ``bench`` sweep through its ``wrap``,
``load_tool`` imports a script of ``tools/``, and ``child_env`` is the
environment of a child Python process.  ``circle`` is the constrained test
problem that several modules share.
"""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("qlinesearch", max_examples=100, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("qlinesearch")


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
