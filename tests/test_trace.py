"""The packed trace: one float64 row per iteration, a fresh record per read."""

import gc
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from qlinesearch import bench
from qlinesearch.problems import Problem, get_problem, make_fc
from qlinesearch.sqp import ConstrainedProblem, SqpTraceRecord, solve_qsqp
from qlinesearch.usolve import IterationRecord, SolverConfig, Trace, solve_bfgs, solve_qls

from conftest import SOLVES, circle

INT_FIELDS = {"k", "fallback_count", "trials"}


def circle_run(config=None):
    # min x0 + x1 on the circle |x|^2 = 2: a few SQP iterations, some backtracked
    return solve_qsqp(ConstrainedProblem(**circle()), config=config)


# f = x0 has no minimizer and a unit gradient: every run from (1, 1) uses its
# iteration cap
LINEAR = Problem(name="linear", dimension=2, objective=lambda x: float(x[0]),
                 gradient=lambda x: np.array([1.0, 0.0]), known_minimizers=[],
                 known_min_value=-np.inf)


RUNS = {
    "qls": lambda: solve_qls(make_fc(0.5), np.array([0.5, 1.9])),
    "bfgs": lambda: solve_bfgs(make_fc(0.5), np.array([0.5, 1.9])),
    "sqp": circle_run,
}


@pytest.mark.parametrize("method", sorted(RUNS))
def test_trace_reads_as_a_sequence_of_records(method):
    r = RUNS[method]()
    trace = r.trace
    assert isinstance(trace, Trace) and len(trace) == r.iterations > 2
    records = [trace[i] for i in range(len(trace))]
    assert list(trace) == records and trace == records and trace == tuple(records)
    assert [t.k for t in records] == list(range(len(trace)))
    assert trace[-1] == records[-1] and trace[-len(trace)] == records[0]
    assert trace[1:3] == records[1:3] and trace[::-1] == records[::-1] and trace[5:2] == []
    assert trace != records[:-1] and trace != "not a trace"
    with pytest.raises(IndexError):
        trace[len(trace)]
    # each read is a fresh record: changing one leaves the trace as it was
    first = trace[0]
    assert first is not trace[0]
    first.alpha = -1.0
    assert trace[0] == records[0] != first


@pytest.mark.parametrize("method", sorted(RUNS))
def test_fields_read_back_with_their_types(method):
    for t in RUNS[method]().trace:
        for f in fields(t):
            value = getattr(t, f.name)
            if f.name in INT_FIELDS:
                assert type(value) is int
            elif method == "bfgs" and f.name == "q_k":
                assert value is None
            else:
                assert type(value) is float


@pytest.mark.parametrize("method", sorted(SOLVES))
def test_run_without_iterations_has_an_empty_trace(method):
    r = SOLVES[method](LINEAR, np.ones(2), config=SolverConfig(max_iterations=0))
    assert r.iterations == 0 and len(r.trace) == 0 and r.trace == [] and list(r.trace) == []


def written_trace(trace, tmp_path):
    """The header and the rows of ``trace`` as ``bench.emit`` writes it."""
    path = tmp_path / "trace.csv"
    bench.emit(trace, "csv", str(path))
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


@pytest.mark.parametrize("method, record", [("qls", IterationRecord),
                                            ("bfgs", IterationRecord),
                                            ("sqp", SqpTraceRecord)])
def test_emit_writes_a_trace_by_its_record_fields(method, record, tmp_path):
    trace = RUNS[method]().trace
    header, rows = written_trace(trace, tmp_path)
    assert trace.record is record
    assert header == [f.name for f in fields(record)]
    assert len(rows) == len(trace)
    for t, row in zip(trace, rows):
        assert len(row) == len(header)
        parsed = [None if cell == "" else int(cell) if name in INT_FIELDS else float(cell)
                  for name, cell in zip(header, row)]
        assert record(*parsed) == t  # every cell reads back to its record's value
        assert (row[header.index("q_k")] == "") == (method == "bfgs")


@pytest.mark.parametrize("method", sorted(SOLVES))
def test_emit_writes_a_header_only_for_a_stationary_start(method, tmp_path):
    sphere = get_problem("sphere")
    r = SOLVES[method](sphere, np.zeros(sphere.dimension))
    assert r.status == "converged" and r.iterations == 0 and r.trace == []
    header, rows = written_trace(r.trace, tmp_path)
    assert header == [f.name for f in fields(r.trace.record)] and rows == []


def test_emit_rejects_a_trace_as_svg(tmp_path):
    with pytest.raises(TypeError):
        bench.emit(RUNS["qls"]().trace, "svg", str(tmp_path / "trace.svg"))


@pytest.mark.parametrize("method", sorted(SOLVES))
def test_trace_memory_is_its_float64_rows(method):
    # at most 16 B per field per iteration, plus 1 KiB for the containers; a
    # list of dataclasses of Python floats took about 260-290 B per iteration
    config = SolverConfig(max_iterations=300)
    # first calls allocate what later solves reuse
    SOLVES[method](LINEAR, np.ones(2), config=config)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = SOLVES[method](LINEAR, np.ones(2), config=config).trace
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 300
    bound = 16 * len(fields(trace[0])) * len(trace) + 1024
    assert retained <= bound
