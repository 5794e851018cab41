"""Span wrappers around the library's layer functions, and the per-layer
metrics computed from the folded spans.

The wrappers are installed on the library modules only while a traced pass
runs and are removed afterwards; no library source changes.  Each entry
names the module attribute a caller resolves at call time, so a layer is
wrapped at every place it is reached from: ``usolve`` and ``sqp`` import
``q_hessian``/``psd_modify``/``ldl_factor`` by name, and ``psd_modify`` and
``q_hessian_lagrangian`` reach ``ldl_factor``/``q_hessian`` through their own
module.  ``qcalc`` (q-shift, schedule) costs about as much as a wrapper per
call, so it is left inside ``qmatrix`` self time.
"""

from __future__ import annotations

import functools

from qlinesearch import psdfactor, qmatrix, sqp, usolve
from qlinesearch.errors import DescentDirectionError, LineSearchError, QPError

from .spans import DIM_BUCKETS

QLS_SOLVE = "usolve.solve_qls"
BFGS_SOLVE = "usolve.solve_bfgs"
SQP_SOLVE = "sqp.solve_qsqp"


def _count_q_hessian(counts, out):
    counts["qmatrix.fallback_entries"] += out.fallback_count


def _count_ldl(counts, out):
    counts["psdfactor.pivots"] += len(out.blocks)
    counts["psdfactor.pivots2"] += sum(1 for b in out.blocks if b.shape[0] == 2)


def _count_psd_modify(counts, out):
    counts["psdfactor.shifted"] += int(out.modification_frobenius > 0.0)


def _count_step(counts, out):
    counts["linesearch.first_trial_accepts"] += int(out.trials == 1)


def _count_step_failure(counts, exc):
    if isinstance(exc, (LineSearchError, DescentDirectionError)):
        counts["linesearch.failures"] += 1


def _count_qp_failure(counts, exc):
    if isinstance(exc, QPError):
        counts["sqp.qp_failures"] += 1


# (owner, attribute, span name, result hook, exception hook)
PATCHES = (
    (usolve, "q_hessian", "qmatrix.q_hessian", _count_q_hessian, None),
    (qmatrix, "q_hessian", "qmatrix.q_hessian", _count_q_hessian, None),
    (sqp, "q_hessian_lagrangian", "qmatrix.q_hessian_lagrangian", None, None),
    (usolve, "psd_modify", "psdfactor.psd_modify", _count_psd_modify, None),
    (sqp, "psd_modify", "psdfactor.psd_modify", _count_psd_modify, None),
    (psdfactor, "ldl_factor", "psdfactor.ldl_factor", _count_ldl, None),
    (sqp, "ldl_factor", "psdfactor.ldl_factor", _count_ldl, None),
    (psdfactor.PsdModification, "solve", "psdfactor.solve", None, None),
    (psdfactor.FactorizationBundle, "solve", "psdfactor.solve", None, None),
    (usolve, "backtracking_step", "linesearch.backtracking_step", _count_step,
     _count_step_failure),
    (sqp, "qp_active_set", "sqp.qp_active_set", None, _count_qp_failure),
    (sqp, "kkt_solve", "sqp.kkt_solve", None, None),
)


def _wrap(fn, name, recorder, on_result, on_error):
    counts = recorder.counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.begin(name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(counts, exc)
            raise
        finally:
            recorder.end(span)
        if on_result is not None:
            on_result(counts, out)
        return out

    return traced


def install(recorder):
    """Wrap every layer function in spans; returns the originals for ``restore``."""
    saved = []
    for owner, attr, name, on_result, on_error in PATCHES:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, name, recorder, on_result, on_error))
    return saved


def restore(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(totals, evals):
    """Per-layer metrics of one traced pass.

    ``totals`` is the pass's ``LayerTotals``; ``evals`` its (fevals, gevals,
    cevals).  A layer that did not run on the workload reads 0.
    """
    calls, ns, self_ns = totals.calls, totals.ns, totals.self_ns
    counts = totals.counts
    out = {}

    def us_per_call(name):
        out[f"{name}.us_per_call"] = _ratio(ns[name], calls[name]) / 1e3

    def bucketed(name):
        us_per_call(name)
        for n in DIM_BUCKETS:
            out[f"{name}.us_per_call.n{n}"] = _ratio(
                totals.dim_ns[(name, n)], totals.dim_calls[(name, n)]) / 1e3

    qh = "qmatrix.q_hessian"
    bucketed(qh)
    out[f"{qh}.self_us_per_call"] = _ratio(self_ns[qh], calls[qh]) / 1e3
    out["qmatrix.gevals_per_call"] = _ratio(totals.gevals[qh], calls[qh])
    out["qmatrix.fallback_entries"] = counts["qmatrix.fallback_entries"]

    bucketed("psdfactor.psd_modify")
    bucketed("psdfactor.ldl_factor")
    us_per_call("psdfactor.solve")
    out["psdfactor.shifted_ratio"] = _ratio(counts["psdfactor.shifted"],
                                            calls["psdfactor.psd_modify"])
    out["psdfactor.pivot2_ratio"] = _ratio(counts["psdfactor.pivots2"],
                                           counts["psdfactor.pivots"])

    bt = "linesearch.backtracking_step"
    out[f"{bt}.calls"] = calls[bt]
    out[f"{bt}.self_us_per_call"] = _ratio(self_ns[bt], calls[bt]) / 1e3
    out["linesearch.trials_per_call"] = _ratio(totals.fevals[bt], calls[bt])
    out["linesearch.first_trial_accept_ratio"] = _ratio(
        counts["linesearch.first_trial_accepts"], calls[bt])
    out["linesearch.failures"] = counts["linesearch.failures"]

    u_iters = counts["usolve.iterations"]
    out["usolve.iterations"] = u_iters
    out["usolve.self_us_per_iter"] = _ratio(self_ns[QLS_SOLVE] + self_ns[BFGS_SOLVE],
                                            u_iters) / 1e3
    out["usolve.fevals_per_iter"] = _ratio(totals.fevals[QLS_SOLVE]
                                           + totals.fevals[BFGS_SOLVE], u_iters)
    out["usolve.gevals_per_iter"] = _ratio(totals.gevals[QLS_SOLVE]
                                           + totals.gevals[BFGS_SOLVE], u_iters)

    s_iters = counts["sqp.iterations"]
    out["sqp.iterations"] = s_iters
    us_per_call("sqp.qp_active_set")
    us_per_call("sqp.kkt_solve")
    out["sqp.kkt_solve.calls_per_qp"] = _ratio(calls["sqp.kkt_solve"],
                                               calls["sqp.qp_active_set"])
    # The SQP loop evaluates f once per pass of the loop (iterations + 1) and
    # once for f_final; every other objective call it makes itself is a
    # merit line-search trial.
    merit_trials = totals.self_fevals[SQP_SOLVE] - s_iters - 2 * calls[SQP_SOLVE]
    out["sqp.merit_trials_per_iter"] = _ratio(merit_trials, s_iters)
    out["sqp.self_us_per_iter"] = _ratio(self_ns[SQP_SOLVE], s_iters) / 1e3
    out["sqp.qp_failures"] = counts["sqp.qp_failures"]

    out["problems.fevals"], out["problems.gevals"], out["problems.cevals"] = evals
    us_per_call("problems.objective")
    us_per_call("problems.gradient")
    return out
