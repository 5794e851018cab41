"""tools/solve_digest.py, the bitwise check of the sweeps, keeps running."""

import hashlib
import importlib.util
import sys
from pathlib import Path

from qlinesearch import bench

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "solve_digest.py"


def test_sweep_digest_is_repeatable(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its tree's paths
    spec = importlib.util.spec_from_file_location("solve_digest", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    sweep = lambda: bench.run_fc_benchmark(c_values=(0.5,), y_values=(0.9,))  # noqa: E731
    first, second = tool._sweep_digest(sweep), tool._sweep_digest(sweep)
    assert first == second and len(first) == 64
    assert first != hashlib.sha256().hexdigest()  # the sweep's solves were folded in


def test_sqp_digest_is_repeatable(monkeypatch):
    # the SQP part reads perfbench.workloads' instances, config and counted problems
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("solve_digest", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "SQP_CORE_INSTANCES", 3)
    first, second = tool._sqp_digest(), tool._sqp_digest()
    assert first == second and len(first) == 64
    assert first != hashlib.sha256().hexdigest()  # the instances' solves were folded in
