"""Newton-like line-search optimization built on q-derivative Hessian surrogates.

The package provides:

* ``qcalc`` -- q-derivative / q-partial operators and the q_k schedule,
* ``qmatrix`` -- symmetrized q-Hessian surrogates (objective and Lagrangian),
* ``psdfactor`` -- Bunch-Kaufman factorization and eigenvalue-shift PSD
  modification,
* ``linesearch`` -- Armijo backtracking,
* ``usolve`` -- the q-line-search solver and a BFGS baseline,
* ``sqp`` -- the SQP extension for equality/inequality constraints,
* ``problems`` -- the fc family and the 15-problem test suite,
* ``bench`` -- reproducible benchmark sweeps and Dolan-More performance
  profiles (CSV/SVG), also exposed through the ``qlinesearch`` CLI.
"""

from .bench import (BenchmarkRow, BenchmarkTable, FcSummaryRow, ProfileCurve,
                    emit, fc_summary, load_profile_csv, load_runs_csv,
                    performance_profile, run_fc_benchmark, run_suite_benchmark)
from .errors import (CallbackError, DescentDirectionError, GradientShapeError,
                     LineSearchError, NumericError, QPError)
from .linesearch import StepResult, backtracking_step
from .problems import Problem, StartBox, check_gradient, get_problem, make_fc, standard_suite
from .psdfactor import (FactorizationBundle, PsdModification, default_delta,
                        ldl_factor, psd_modify)
from .qcalc import QSchedule, q_derivative_1d, q_partial, q_shift
from .qmatrix import QHessian, q_hessian, q_hessian_lagrangian
from .sqp import (ConstrainedProblem, QpSolution, SqpTraceRecord, kkt_solve,
                  merit_l1, qp_active_set, solve_qsqp)
from .usolve import (IterationRecord, SolveResult, SolverConfig, bfgs_update,
                     solve_bfgs, solve_qls)

__all__ = [
    "BenchmarkRow", "BenchmarkTable", "FcSummaryRow", "ProfileCurve",
    "emit", "fc_summary", "load_profile_csv", "load_runs_csv",
    "performance_profile", "run_fc_benchmark", "run_suite_benchmark",
    "CallbackError", "DescentDirectionError", "GradientShapeError", "LineSearchError",
    "NumericError", "QPError",
    "StepResult", "backtracking_step",
    "Problem", "StartBox", "check_gradient", "get_problem", "make_fc",
    "standard_suite",
    "FactorizationBundle", "PsdModification", "default_delta", "ldl_factor",
    "psd_modify",
    "QSchedule", "q_derivative_1d", "q_partial", "q_shift",
    "QHessian", "q_hessian", "q_hessian_lagrangian",
    "ConstrainedProblem", "QpSolution", "SqpTraceRecord", "kkt_solve",
    "merit_l1", "qp_active_set", "solve_qsqp",
    "IterationRecord", "SolveResult", "SolverConfig", "bfgs_update",
    "solve_bfgs", "solve_qls",
]

__version__ = "0.1.0"
