"""Count the Python calls that the three default-seed sweeps make per solver
iteration: a cost of the library's code that does not depend on the host's
speed.

    python tools/calls_per_iteration.py

The sweeps are those of ``tools/solve_digest.py``, without its counting
wrappers: ``fc``, the default ``bench.run_fc_benchmark()``; ``suite``,
``bench.run_suite_benchmark`` at ``perfbench.workloads``' ``DEFAULT_SEED``,
``SUITE_RUNS_REQUIRED`` and ``SUITE_ATTEMPT_CAP`` (42, 10 and 12); ``sqp``,
``solve_qsqp`` under ``SQP_CONFIG`` on the first ``SQP_CORE_INSTANCES`` of
``perfbench.workloads.make_sqp_instances``, whose problems are built before
either run.  Each sweep runs twice, and only the second run, with imports
and caches warm, runs under ``cProfile``.  Its calls (Python functions and
builtins alike) over the iterations summed over the sweep's solves is the
count.  The calls are summed over the profiler's own entries, one per code
object, not taken from ``pstats``' ``total_calls``: ``pstats`` keys its
entries by (file, line, name) and keeps one per key, and every
dataclass-generated ``__init__`` is ``("<string>", 2, "__init__")``, so
all but one of them would drop out, and which one stays would depend on
how the tool was started.

The first line names the install the count holds for: Python's and numpy's
versions.  Then one line per sweep gives its count to two decimals, and the
calls and iterations it is taken from.  Two trees compare on one install.
"""

import cProfile
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.spans import Meter  # noqa: E402
from qlinesearch import bench  # noqa: E402
from qlinesearch.sqp import solve_qsqp  # noqa: E402


def count(sweep):
    """(total calls, iterations) of the second of two runs of ``sweep``, a
    function that runs a sweep and returns its summed iterations."""
    sweep()
    profile = cProfile.Profile()
    iterations = profile.runcall(sweep)
    return sum(entry.callcount for entry in profile.getstats()), iterations


def table_iterations(table):
    return sum(row.iterations for row in table.rows)


def _sqp_sweep():
    """The sqp sweep over problems built once, outside either run."""
    problems = [inst.problem(Meter()) for inst in workloads.make_sqp_instances(
        workloads.DEFAULT_SEED, count=workloads.SQP_CORE_INSTANCES)]
    return lambda: sum(solve_qsqp(p, config=workloads.SQP_CONFIG).iterations for p in problems)


def main():
    print(f"python {platform.python_version()}, numpy {np.__version__}", flush=True)
    sweeps = {
        "fc": lambda: table_iterations(bench.run_fc_benchmark()),
        "suite": lambda: table_iterations(bench.run_suite_benchmark(
            master_seed=workloads.DEFAULT_SEED, runs_required=workloads.SUITE_RUNS_REQUIRED,
            attempt_cap=workloads.SUITE_ATTEMPT_CAP)),
        "sqp": _sqp_sweep(),
    }
    for name, sweep in sweeps.items():
        calls, iterations = count(sweep)
        print(f"{name}: {calls / iterations:.2f} calls per iteration "
              f"({calls:,} calls over {iterations:,} iterations)", flush=True)


if __name__ == "__main__":
    main()
