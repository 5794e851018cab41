"""Timed passes, the traced run, verification and the printed result.

An untraced run (``--trace 0``) repeats the workload's pass, at least twice
and until the next one would overrun ``--seconds``, and reports the
end-to-end metrics.  A traced run alternates an untraced pass with a traced
one, so the tracing overhead is measured in the same run, and reports the
per-layer metrics.  Every solve is rechecked, every pass must repeat the
first pass's contract rows, and the contract rows at the default seed must
match the stored reference.

Passes repeat identical inputs, so each solve's time is taken as its fastest
repeat, and a pass's wall time is rebuilt from those plus the fastest time
any pass spent outside solver calls.  On a shared machine, load from other
tenants only ever adds time, in bursts lasting from milliseconds to minutes;
the fastest repeat of each short piece is the steady estimate of what the
code costs, while medians, or even the fastest whole pass, move with the
neighbours' load.
"""

from __future__ import annotations

import ctypes
import glob
import gzip
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from . import layers, verify
from .spans import Meter, SpanRecorder
from .workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: set-up is measured this many more times, each in a fresh process
SETUP_PROBES = 4
#: an untraced run repeats its pass at least this often
MIN_PASSES = 2
PROBE_TIMEOUT_S = 60
TIME_UNITS = ("s", "ms", "us")
MAX_LISTED_FAILURES = 20


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _blas_threads():
    """Threads OpenBLAS will use, read from the library numpy bundles."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def _commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record(seed):
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "blas_threads": _blas_threads(), "commit": _commit(),
            "seed": seed}


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------

def set_up(name, seed, meter):
    workload = WORKLOADS[name](seed, meter, OUT_DIR)
    workload.warm_up()
    return workload


def probe_setup(script, args):
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, script, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_passes(workload, seconds, between):
    """Untraced passes, at least MIN_PASSES, until the next one would end
    after ``seconds``; ``between()`` runs after each pass."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        between()
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - t0 + typical > seconds:
            return passes


def run_traced(workload, seconds):
    """Alternate untraced and traced passes; at least one of each."""
    meter = workload.meter
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        plain.append(workload.run_pass())
        recorder = SpanRecorder(meter)
        meter.recorder = recorder
        saved = layers.install(recorder)
        try:
            traced.append((workload.run_pass(), recorder))
        finally:
            layers.restore(saved)
            meter.recorder = None
        typical = (statistics.median(p.wall for p in plain)
                   + statistics.median(p.wall for p, _ in traced))
        if time.perf_counter() - t0 + typical > seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class Tally:
    """Attempted solves and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, count, reason):
        if count:
            self.failed += count
            if len(self.reasons) < MAX_LISTED_FAILURES:
                self.reasons.append(reason)


def verify_run(workload, passes, tally):
    """Count failed rechecks, pass-to-pass differences and differences from
    the stored reference."""
    for p in passes:
        for record in p.solves:
            tally.attempted += 1
            if record.failure is not None:
                tally.fail(1, f"{record.family} solve: {record.failure}")
    for i, p in enumerate(passes[1:], start=2):
        tally.fail(verify.compare_rows(p.rows, passes[0].rows),
                   f"pass {i} contract rows differ from pass 1")
    tally.fail(verify.compare_rows(passes[0].reference_rows,
                                   verify.load_reference(workload.name)),
               f"contract rows differ from reference/{workload.name}.csv")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def best_solves(passes):
    """The first pass's solve records paired with each solve's fastest time
    over the passes (every pass solves the same inputs in the same order)."""
    first = passes[0].solves
    return [(record, min(p.solves[i].seconds for p in passes))
            for i, record in enumerate(first)]


def pass_wall(passes, best):
    """Wall time of a pass rebuilt from each solve's fastest repeat plus the
    least time a pass spent outside solver calls (CSV, profiles, sweeps)."""
    harness = min(p.wall - sum(r.seconds for r in p.solves) for p in passes)
    return sum(s for _, s in best) + harness


def _iter_us(best):
    iterations = sum(r.iterations for r, _ in best)
    return sum(s for _, s in best) / iterations * 1e6 if iterations else 0.0


def timing_metrics(passes):
    """Wall-clock cost of the passes: reported, stored and listed among the
    per-layer metrics, but not gated (see README, "Why time is not gated")."""
    best = best_solves(passes)
    seconds = np.array([s for _, s in best])
    out = {
        "wall_s": pass_wall(passes, best),
        "solve_ms_p50": float(np.percentile(seconds, 50)) * 1e3,
        "solve_ms_p95": float(np.percentile(seconds, 95)) * 1e3,
        "iter_us": _iter_us(best),
    }
    for family in ("qls", "bfgs", "sqp"):
        out[f"iter_us_{family}"] = _iter_us([b for b in best if b[0].family == family])
    return out


def end_to_end_metrics(passes, setup_samples):
    first = passes[0]
    return {
        "setup_s": statistics.median(setup_samples),
        "success_rate": first.successes / len(first.solves),
        "fevals_per_success": first.evals[0] / first.successes,
        "gevals_per_success": first.evals[1] / first.successes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(plain, traced, units):
    """Per-layer metrics: times are the fastest traced pass's, counts come
    from the first (they repeat exactly); ``bench.*`` and the timing metrics
    come from the untraced passes of the same run."""
    per_pass = [layers.per_layer_metrics(rec.totals, p.evals) for p, rec in traced]
    out = {}
    for key in per_pass[0]:
        if units.get(key) in TIME_UNITS:
            out[key] = min(m[key] for m in per_pass)
        else:
            out[key] = per_pass[0][key]
    out.update(timing_metrics(plain))
    traced_passes = [p for p, _ in traced]
    traced_wall = pass_wall(traced_passes, best_solves(traced_passes))
    emit_s = [s for p in plain for s in p.emit_seconds]
    profile_s = [s for p in plain for s in p.profile_seconds]
    out.update({
        "bench.harness_share": statistics.median(
            (p.wall - sum(r.seconds for r in p.solves)) / p.wall for p in plain),
        "bench.emit.ms": statistics.mean(emit_s) * 1e3 if emit_s else 0.0,
        "bench.performance_profile.ms":
            statistics.mean(profile_s) * 1e3 if profile_s else 0.0,
        "bench.wall_s.traced": traced_wall,
        "bench.tracing_overhead": traced_wall / out["wall_s"] - 1.0,
    })
    return out


def write_spans(path, recorder):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("name,parent,root,dim,start_ns,end_ns,fevals,gevals\n")
        for span in recorder.kept:
            fh.write(",".join(str(v) for v in span) + "\n")


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def main(args, t_setup, script):
    logging.getLogger("qlinesearch").setLevel(logging.ERROR)
    os.makedirs(OUT_DIR, exist_ok=True)
    meter = Meter()
    workload = set_up(args.workload, args.seed, meter)
    setup_own = time.perf_counter() - t_setup
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_own}))
        return 0
    if args.write_reference:
        verify.write_reference(args.workload, workload.run_pass().reference_rows)
        print(f"wrote {verify.reference_path(args.workload)}")
        return 0

    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    # the timing metrics share their names and units with the per-layer list
    report_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    setup_samples = [setup_own]

    def probe():
        # Spread over the run, so one burst of load elsewhere skews few samples.
        if len(setup_samples) <= SETUP_PROBES:
            setup_samples.append(probe_setup(script, args))

    tally = Tally()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        plain, traced = run_traced(workload, args.seconds)
        passes = plain + [p for p, _ in traced]
        metrics = traced_metrics(plain, traced, units)
        signature = traced[0][1].totals.count_signature()
        for i, (_, rec) in enumerate(traced[1:], start=2):
            tally.fail(int(rec.totals.count_signature() != signature),
                       f"traced pass {i} layer counts differ from traced pass 1")
        write_spans(os.path.join(OUT_DIR, f"spans-{tag}.csv.gz"), traced[0][1])
    else:
        passes = run_passes(workload, args.seconds, between=probe)
        while len(setup_samples) <= SETUP_PROBES:
            probe()
        metrics = end_to_end_metrics(passes, setup_samples)
        metrics.update(timing_metrics(passes))
    verify_run(workload, passes, tally)

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"metrics named in BENCHMARK.json but not computed: {missing}")
    share = tally.failed / tally.attempted
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "attempted": tally.attempted,
              "failed": tally.failed, "failure_share": share,
              "failures": tally.reasons, "setup_samples_s": setup_samples,
              "metrics": metrics, "machine": machine_record(args.seed)}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"{tally.attempted} solves, {tally.failed} failed (share {share:.6f})")
    for reason in tally.reasons:
        print(f"#   failed: {reason}")
    for key, value in metrics.items():
        if key in units or value:   # a solver family that did not run is left out
            print(f"# {key} = {value} {report_units[key]}")
    print(f"# machine {json.dumps(record['machine'])}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0
