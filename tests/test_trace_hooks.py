"""The benchmark's traced run wraps library functions by module attribute
(``perfbench/layers.py``), and its sweeps count and time each solve by
patching ``bench.solve_qls`` and ``bench.solve_bfgs``.  These tests fail when
a library change leaves one of those attributes unused, breaks a result hook,
or feeds the SQP merit search into the unconstrained line-search figures."""

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import layers, workloads  # noqa: E402
from perfbench.spans import Meter, SpanRecorder  # noqa: E402
from qlinesearch import bench, get_problem, solve_bfgs, solve_qls  # noqa: E402
from qlinesearch.sqp import ConstrainedProblem, solve_qsqp  # noqa: E402

from conftest import circle  # noqa: E402


def traced(solves):
    """Run the solves with the span wrappers installed; checks that
    ``restore`` puts every original back and returns the recorder."""
    recorder = SpanRecorder(Meter())
    originals = [getattr(owner, attr) for owner, attr, *_ in layers.PATCHES]
    saved = layers.install(recorder)
    try:
        for solve in solves:
            solve()
    finally:
        layers.restore(saved)
    after = [getattr(owner, attr) for owner, attr, *_ in layers.PATCHES]
    assert all(a is b for a, b in zip(after, originals))
    return recorder


def qls():
    assert solve_qls(get_problem("branin"), np.array([3.0, 2.5])).status == "converged"


def bfgs():
    assert solve_bfgs(get_problem("branin"), np.array([3.0, 2.5])).status == "converged"


def sqp():
    assert solve_qsqp(ConstrainedProblem(**circle())).status == "converged"


def test_every_patched_attribute_is_reached(monkeypatch):
    # one span name per PATCHES entry, so an entry that no solve reaches
    # shows as a name without calls
    unique = tuple((owner, attr, f"{i}:{name}", on_result, on_error)
                   for i, (owner, attr, name, on_result, on_error)
                   in enumerate(layers.PATCHES))
    monkeypatch.setattr(layers, "PATCHES", unique)
    recorder = traced([qls, bfgs, sqp])
    unreached = [name for _, _, name, _, _ in unique if recorder.totals.calls[name] == 0]
    assert unreached == []


def test_result_hooks_read_their_fields():
    counts = traced([qls, bfgs, sqp]).counts
    assert counts["psdfactor.pivots"] > 0  # FactorizationBundle.blocks
    assert counts["psdfactor.shifted"] > 0  # PsdModification.modification_frobenius
    assert counts["linesearch.first_trial_accepts"] > 0  # StepResult.trials


def test_line_search_spans_count_only_unconstrained_searches():
    totals = traced([sqp]).totals
    assert totals.calls["sqp.qp_active_set"] > 0
    assert totals.calls["linesearch.backtracking_step"] == 0
    totals = traced([qls]).totals
    assert totals.calls["linesearch.backtracking_step"] == totals.calls["psdfactor.psd_modify"]


def test_timed_bench_solvers_log_and_count_every_sweep_solve():
    # bench.solver_call binds bench.solve_qls or bench.solve_bfgs when called,
    # and a sweep builds each solve before the first, inside the patch: a
    # library that bound them before the sweep ran would bypass it, and
    # perfbench would log no solve and count no evaluation
    meter, log = Meter(), []
    with workloads.timed_bench_solvers(meter, log):
        bench.run_fc_benchmark(c_values=(0.5,), y_values=(0.9,))
    assert [(family, error) for family, _, _, _, error in log] == \
        [("bfgs", None)] + [("qls", None)] * 3
    assert meter.fevals >= 4 and meter.gevals >= 4
