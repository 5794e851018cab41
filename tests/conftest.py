"""Shared test setup.

One Hypothesis profile for every property test in the suite: derandomized,
so every run draws the same examples, and without an example database, so
no run replays what an earlier one stored.  The ``recorded_solves`` fixture
watches the solves of a ``bench`` sweep, and ``load_tool`` imports a script
of ``tools/``.
"""

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from qlinesearch import bench

settings.register_profile("qlinesearch", max_examples=100, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("qlinesearch")


@contextlib.contextmanager
def _recorded_solves():
    # wraps the solvers bench looks up at call time, as perfbench does
    solves = []
    originals = bench.solve_qls, bench.solve_bfgs

    def recording(solve):
        def run(problem, x0, **kwargs):
            result = solve(problem, x0, **kwargs)
            solver = f"q{kwargs['schedule'].gamma}" if "schedule" in kwargs else "bfgs"
            solves.append((problem, solver, result))
            return result
        return run

    bench.solve_qls, bench.solve_bfgs = map(recording, originals)
    try:
        yield solves
    finally:
        bench.solve_qls, bench.solve_bfgs = originals


@pytest.fixture(scope="session")
def recorded_solves():
    """A context manager whose value collects (problem, solver, SolveResult)
    for every solve a ``bench`` sweep makes inside it."""
    return _recorded_solves


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
