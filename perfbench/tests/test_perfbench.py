"""Tests of the benchmark harness itself: span arithmetic, the verifier, the
workload generators and the metric names promised in BENCHMARK.json."""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from qlinesearch import get_problem, solve_qls  # noqa: E402
from qlinesearch.sqp import solve_qsqp  # noqa: E402

from perfbench import harness, spans, verify, workloads  # noqa: E402


def _span(name, parent, t0, t1, fevals=0):
    return [name, parent, 0, 2, t0, t1, fevals, 0]


def test_self_time_on_hand_built_tree():
    tree = [
        _span("root", -1, 0, 100, fevals=9),
        _span("a", 0, 10, 40, fevals=4),
        _span("a1", 1, 15, 25, fevals=3),
        _span("b", 0, 50, 90, fevals=2),
        _span("b1", 3, 55, 70),     # b1 and b2 overlap on [65, 70]
        _span("b2", 3, 65, 80),
        _span("c", 0, 95, 130),     # runs past its parent: clipped to [95, 100]
    ]
    assert spans.self_times(tree) == [100 - 30 - 40 - 5, 30 - 10, 10, 40 - 25, 15, 15, 35]
    assert spans.direct_counts(tree, spans.FEVALS) == [3, 1, 3, 2, 0, 0, 0]


def test_recorder_folds_each_solve_into_totals():
    meter = spans.Meter()
    rec = spans.SpanRecorder(meter, keep=3)
    rec.dim = 4
    for _ in range(2):
        root = rec.begin("solve")
        child = rec.begin("layer")
        meter.fevals += 2
        rec.end(child)
        meter.fevals += 1
        rec.end(root)
    t = rec.totals
    assert t.calls == {"solve": 2, "layer": 2}
    assert t.fevals == {"solve": 6, "layer": 4}
    assert t.self_fevals == {"solve": 2, "layer": 4}
    assert t.dim_calls[("layer", 4)] == 2
    assert t.self_ns["solve"] + t.ns["layer"] == t.ns["solve"]
    # kept spans are renumbered so parents point into the kept list
    assert [(s[spans.NAME], s[spans.PARENT], s[spans.ROOT]) for s in rec.kept] == [
        ("solve", -1, 0), ("layer", 0, 0), ("solve", -1, 2)]


def test_verifier_rejects_perturbed_unconstrained_result():
    problem = get_problem("branin")
    result = solve_qls(problem, np.array([2.5, 3.0]))
    tol = workloads.GRAD_TOLERANCE
    assert result.status == "converged"
    assert verify.check_unconstrained(problem, result, tol) is None
    moved = dataclasses.replace(result, x_final=result.x_final + 1e-3)
    assert "grad" in verify.check_unconstrained(problem, moved, tol)
    wrong_f = dataclasses.replace(result, f_final=result.f_final + 1e-9)
    assert "f_final" in verify.check_unconstrained(problem, wrong_f, tol)


def test_verifier_rejects_perturbed_constrained_result():
    meter = spans.Meter()
    tol = workloads.GRAD_TOLERANCE
    checked = 0
    for inst in workloads.make_sqp_instances(seed=7, count=45)[15:45:4]:
        result = solve_qsqp(inst.problem(meter), config=workloads.SQP_CONFIG)
        if result.status != "converged":
            continue
        checked += 1
        assert verify.check_constrained(inst, result, tol) is None, inst.key
        moved = dataclasses.replace(result, x_final=result.x_final + 1e-3)
        assert verify.check_constrained(inst, moved, tol) is not None, inst.key
    assert checked >= 5


def test_contract_rows_detect_a_changed_row(tmp_path, monkeypatch):
    rows = [verify.contract_row(f"p:{i}", [0.1 * i, 1.0 / 3.0], i % 2 == 0, 5 + i)
            for i in range(6)]
    assert rows[1].iterations is None          # failed rows carry no iterations
    assert verify.compare_rows(rows, list(rows)) == 0
    changed = list(rows)
    changed[2] = dataclasses.replace(rows[2], iterations=rows[2].iterations + 1)
    assert verify.compare_rows(changed, rows) == 1
    assert verify.compare_rows(rows[:-1], rows) == 1
    moved = list(rows)
    moved[4] = verify.contract_row("p:4", [0.4 + 1e-16, 1.0 / 3.0], True, 9)
    assert verify.compare_rows(moved, rows) == 1
    monkeypatch.setattr(verify, "REFERENCE_DIR", str(tmp_path))
    verify.write_reference("demo", rows)
    assert verify.load_reference("demo") == rows


def _inputs(cls, seed, out_dir):
    """Everything a workload generates from its seed, as plain values."""
    workload = cls(seed, spans.Meter(), out_dir)
    if cls is workloads.FcGrid:
        return workload.extra_y
    if cls is workloads.SuiteSeeded:
        return workload.master_seeds
    return [(i.key, i.x0.tolist(), i.anchor.tolist(), i.eq_matrix.tolist(),
             None if i.ball_center is None else i.ball_center.tolist(), i.ball_radius)
            for i in workload.instances]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_workload_inputs_are_deterministic_per_seed(cls, tmp_path):
    assert _inputs(cls, 11, str(tmp_path)) == _inputs(cls, 11, str(tmp_path))
    assert _inputs(cls, 11, str(tmp_path)) != _inputs(cls, 12, str(tmp_path))


def test_seeded_inputs_extend_the_fixed_reference_part(tmp_path):
    suite = workloads.SuiteSeeded(5, spans.Meter(), str(tmp_path))
    assert suite.master_seeds == (workloads.DEFAULT_SEED, 5)
    core = workloads.SQP_CORE_INSTANCES
    a = workloads.make_sqp_instances(5)
    b = workloads.make_sqp_instances(6)
    assert all(np.array_equal(x.x0, y.x0) for x, y in zip(a[:core], b[:core]))
    assert not any(np.array_equal(x.x0, y.x0) for x, y in zip(a[core:], b[core:]))


@pytest.mark.parametrize("seed", [0, 1, 42, 12345])
def test_every_sqp_instance_has_a_feasible_point(seed):
    instances = workloads.make_sqp_instances(seed)
    assert len(instances) == workloads.SQP_INSTANCES
    for inst in instances:
        x = inst.anchor
        n = x.shape[0]
        assert inst.eq_matrix.shape[0] < n
        scale = 1.0 + float(np.max(np.abs(inst.eq_matrix @ x), initial=0.0))
        assert np.all(np.abs(inst.h(x)) <= 1e-12 * scale), inst.key
        assert np.all(inst.g(x) < 0.0), inst.key
        assert inst.jac_h(x).shape == (inst.eq_matrix.shape[0], n)
        assert inst.jac_g(x).shape == (inst.g(x).shape[0], n)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    meter = spans.Meter()
    problem = get_problem("sphere")
    result = solve_qls(problem, np.ones(8))
    record = workloads.SolveRecord("qls", 1e-3, result.iterations, None)
    p = workloads.PassResult(1.0, [record], [], [], 1, (3, 2, 0), [1e-3], [])
    e2e = harness.end_to_end_metrics([p], [0.1])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert not set(harness.timing_metrics([p])) & set(e2e)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = harness.traced_metrics([p], [(p, spans.SpanRecorder(meter))], units)
    assert sorted(traced) == sorted(units)
