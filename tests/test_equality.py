"""``==`` on a library type never raises.  A type that holds numpy arrays
compares by identity, since the generated field-by-field ``==`` would ask
an array comparison for its truth value; a table compares its rows, so it
does the same.  Types without array fields, such as ``SolverConfig`` and
the trace records, compare by value, as the other tests do."""

import numpy as np
import pytest

from qlinesearch.bench import BenchmarkRow, BenchmarkTable
from qlinesearch.problems import Problem, StartBox
from qlinesearch.psdfactor import ldl_factor, psd_modify
from qlinesearch.qmatrix import q_hessian
from qlinesearch.sqp import ConstrainedProblem, QpSolution
from qlinesearch.usolve import SolveResult


def _f(x):
    return float(x.dot(x))


def _g(x):
    return 2.0 * x


#: each type by name, and a function that builds a new instance of it with
#: new arrays of the same values on every call
BUILDS = {
    "StartBox": lambda: StartBox(np.zeros(2)),
    "Problem": lambda: Problem("p", 2, _f, _g, [np.zeros(2)], 0.0, StartBox(np.zeros(2))),
    "SolveResult": lambda: SolveResult("converged", np.zeros(2), 0.0, 0, 0.0, []),
    "BenchmarkRow": lambda: BenchmarkRow("p", "bfgs", 0, 42, True, 1, 0.0, np.zeros(2)),
    "BenchmarkTable": lambda: BenchmarkTable([BUILDS["BenchmarkRow"]()]),
    "FactorizationBundle": lambda: ldl_factor(np.eye(2)),
    "PsdModification": lambda: psd_modify(np.eye(2)),
    "QHessian": lambda: q_hessian(_g, np.ones(2), 0.5),
    "ConstrainedProblem": lambda: ConstrainedProblem(_f, _g, np.zeros(2)),
    "QpSolution": lambda: QpSolution(np.zeros(2), np.zeros(0), np.zeros(0), ()),
}


@pytest.mark.parametrize("name", BUILDS)
def test_equality_of_types_holding_arrays_is_identity(name):
    a, b = BUILDS[name](), BUILDS[name]()
    assert type(a).__name__ == name
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True
