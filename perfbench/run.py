"""Run one qlinesearch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fc-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/`` of that checkout.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run; the last line of
standard output is the JSON result.  See perfbench/README.md.
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("fc-grid", "suite-seeded", "sqp-constrained")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the contract rows of the fixed, default-seed inputs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    # Set-up time starts here: it covers importing numpy and the library,
    # generating the workload and the warm-up.
    t_setup = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qlinesearch", "__init__.py")):
        print(f"error: no qlinesearch sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Single-threaded BLAS, set before numpy loads it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, ROOT]
    from perfbench import harness
    return harness.main(args, t_setup, script=os.path.abspath(__file__))


if __name__ == "__main__":
    sys.exit(main())
