"""Shared test setup.

One Hypothesis profile for every property test in the suite: derandomized,
so every run draws the same examples, and without an example database, so
no run replays what an earlier one stored.  The ``recorded_solves`` fixture
watches the solves of a ``bench`` sweep through its ``wrap``, and
``load_tool`` imports a script of ``tools/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("qlinesearch", max_examples=100, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("qlinesearch")


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
