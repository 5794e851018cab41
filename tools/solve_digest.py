"""Print a bitwise digest of three solve sweeps, one line per part.

    python tools/solve_digest.py

Each solve adds to its part's SHA-256 its status, the bytes of ``x_final``,
``f_final``, its iteration count, every field of every trace record and the
objective, gradient and constraint evaluations it made.  Two trees whose
solves agree to the last bit print the same three lines, so a change that
must keep the iterates bitwise is checked by running this on both trees.

* ``fc``: the default ``bench.run_fc_benchmark()``.
* ``suite``: ``bench.run_suite_benchmark`` at ``perfbench.workloads``'
  ``DEFAULT_SEED``, ``SUITE_RUNS_REQUIRED`` and ``SUITE_ATTEMPT_CAP`` (42,
  10 and 12: the suite-seeded workload's reference sweep).
* ``sqp``: ``solve_qsqp`` on the instances of
  ``perfbench.workloads.make_sqp_instances`` drawn from its default seed.

The library is imported from this tree's ``src`` and the callbacks are
counted by ``perfbench``'s wrappers, which this script only reads.
"""

import contextlib
import dataclasses
import hashlib
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.spans import Meter  # noqa: E402
from perfbench.workloads import (DEFAULT_SEED, SQP_CONFIG, SQP_CORE_INSTANCES,  # noqa: E402
                                 SUITE_ATTEMPT_CAP, SUITE_RUNS_REQUIRED, counted_gradient,
                                 counted_objective, make_sqp_instances)
from qlinesearch import bench  # noqa: E402
from qlinesearch.sqp import solve_qsqp  # noqa: E402


def _add(digest, result, counts):
    """Fold one solve into ``digest``: floats by their bits, not their text."""
    digest.update(result.status.encode() + b"\0")
    digest.update(np.asarray(result.x_final, dtype=float).tobytes())
    digest.update(struct.pack("<dq", result.f_final, result.iterations))
    for record in result.trace:
        digest.update(repr(tuple(vars(record).values())).encode())
    digest.update(struct.pack("<3q", *counts))


@contextlib.contextmanager
def _digested_bench_solves(digest):
    """Route ``bench``'s solver lookups through counted callbacks and fold
    every solve of a sweep into ``digest``."""
    originals = bench.solve_qls, bench.solve_bfgs

    def wrap(solve):
        def run(problem, x0, **kwargs):
            meter = Meter()
            counted = dataclasses.replace(
                problem, objective=counted_objective(problem.objective, meter),
                gradient=counted_gradient(problem.gradient, meter))
            result = solve(counted, x0, **kwargs)
            _add(digest, result, meter.snapshot())
            return result
        return run

    bench.solve_qls, bench.solve_bfgs = map(wrap, originals)
    try:
        yield
    finally:
        bench.solve_qls, bench.solve_bfgs = originals


def _sweep_digest(sweep):
    digest = hashlib.sha256()
    with _digested_bench_solves(digest):
        sweep()
    return digest.hexdigest()


def _sqp_digest():
    digest = hashlib.sha256()
    for inst in make_sqp_instances(DEFAULT_SEED, count=SQP_CORE_INSTANCES):
        meter = Meter()
        _add(digest, solve_qsqp(inst.problem(meter), config=SQP_CONFIG), meter.snapshot())
    return digest.hexdigest()


def main():
    parts = {
        "fc": lambda: _sweep_digest(bench.run_fc_benchmark),
        "suite": lambda: _sweep_digest(lambda: bench.run_suite_benchmark(
            master_seed=DEFAULT_SEED, runs_required=SUITE_RUNS_REQUIRED,
            attempt_cap=SUITE_ATTEMPT_CAP)),
        "sqp": _sqp_digest,
    }
    for name, part in parts.items():
        print(f"{name} {part()}")


if __name__ == "__main__":
    main()
