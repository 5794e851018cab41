"""Newton-like line-search optimization built on q-derivative Hessian surrogates.

The package provides:

* ``qmatrix`` -- the q-partial derivative, the q_k schedule and
  symmetrized q-Hessian surrogates (objective and Lagrangian),
* ``psdfactor`` -- Bunch-Kaufman factorization and eigenvalue-shift PSD
  modification,
* ``usolve`` -- the iteration driver, Armijo backtracking, the descent run
  ``solve_descent`` and its two matrix rules: q-line-search and a BFGS baseline,
* ``sqp`` -- the SQP extension for equality/inequality constraints,
* ``problems`` -- the fc family and the 15-problem test suite,
* ``bench`` -- reproducible benchmark sweeps and Dolan-More performance
  profiles (CSV/SVG),
* ``errors`` -- the exception types and the package's count rule,
* ``cli`` -- the ``qlinesearch`` command line over ``bench`` and the solvers.
"""

from .bench import (BenchmarkRow, BenchmarkTable, FcSummaryRow, ProfileCurve,
                    emit, fc_summary, load_profile_csv, load_runs_csv,
                    performance_profile, run_fc_benchmark, run_suite_benchmark)
from .errors import CallbackError, GradientShapeError, LineSearchError, NumericError, QPError
from .problems import Problem, StartBox, check_gradient, get_problem, make_fc, standard_suite
from .psdfactor import (FactorizationBundle, PsdModification, default_delta,
                        ldl_factor, psd_modify)
from .qmatrix import QHessian, QSchedule, q_hessian, q_hessian_lagrangian, q_partial
from .sqp import (ConstrainedProblem, QpSolution, SqpTraceRecord, kkt_solve, qp_active_set,
                  solve_qsqp)
from .usolve import (IterationRecord, SolveResult, SolverConfig, StepResult, backtracking_step,
                     bfgs_update, solve_bfgs, solve_descent, solve_qls)

__version__ = "0.1.0"
