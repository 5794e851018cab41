"""Evaluation counters, in-memory spans and self-time arithmetic.

A span is one call across a layer boundary.  It records the layer name, the
span that caused it, the problem dimension of the solve it belongs to, its
start and end in nanoseconds, and the objective and gradient evaluations made
while it was open.  Spans of one solve share the index of the solve's root
span as their identifier.

Spans of a solve stay in memory until the root span ends, then fold into
per-name totals; only the first ``keep`` spans are kept whole for writing out
at the end of the run, so a long traced run does not grow without bound.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Span fields, kept as plain lists because a traced suite pass records
# hundreds of thousands of them.
NAME, PARENT, ROOT, DIM, T0, T1, FEVALS, GEVALS = range(8)

#: problem dimensions that get their own per-call timing bucket
DIM_BUCKETS = (2, 4, 10)


class Meter:
    """Evaluation counts of the wrapped user callbacks; ``recorder`` is set
    while a traced pass runs."""

    def __init__(self):
        self.fevals = 0
        self.gevals = 0
        self.cevals = 0
        self.recorder = None

    def snapshot(self):
        return (self.fevals, self.gevals, self.cevals)


def self_times(spans):
    """Each span's duration minus the part of its interval that its direct
    child spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[T0], span[T1]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[T0], span[T1]
        covered = 0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(hi - lo - covered)
    return out


def direct_counts(spans, field):
    """Each span's count in ``field`` minus its direct children's counts."""
    out = [span[field] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[field]
    return out


class LayerTotals:
    """Per-name sums over folded spans, plus counters set by the wrappers."""

    def __init__(self):
        self.calls = Counter()
        self.ns = Counter()
        self.self_ns = Counter()
        self.fevals = Counter()
        self.gevals = Counter()
        self.self_fevals = Counter()
        self.dim_calls = Counter()
        self.dim_ns = Counter()
        self.counts = Counter()

    def fold(self, spans):
        selfs = self_times(spans)
        own_f = direct_counts(spans, FEVALS)
        for span, self_ns, f_direct in zip(spans, selfs, own_f):
            name = span[NAME]
            dur = span[T1] - span[T0]
            self.calls[name] += 1
            self.ns[name] += dur
            self.self_ns[name] += self_ns
            self.fevals[name] += span[FEVALS]
            self.gevals[name] += span[GEVALS]
            self.self_fevals[name] += f_direct
            if span[DIM] in DIM_BUCKETS:
                key = (name, span[DIM])
                self.dim_calls[key] += 1
                self.dim_ns[key] += dur

    def count_signature(self):
        """Everything here that must repeat exactly for identical inputs."""
        return (sorted(self.calls.items()), sorted(self.fevals.items()),
                sorted(self.gevals.items()), sorted(self.dim_calls.items()),
                sorted(self.counts.items()))


class SpanRecorder:
    """Records nested spans; folds a solve's spans into ``totals`` when its
    root span ends."""

    def __init__(self, meter, keep=100_000):
        self.meter = meter
        self.totals = LayerTotals()
        self.counts = self.totals.counts
        self.dim = 0
        self.keep = keep
        self.kept = []
        self._spans = []
        self._stack = []

    def begin(self, name):
        stack = self._stack
        spans = self._spans
        parent = stack[-1] if stack else -1
        index = len(spans)
        meter = self.meter
        span = [name, parent, spans[parent][ROOT] if parent >= 0 else index,
                self.dim, 0, 0, meter.fevals, meter.gevals]
        spans.append(span)
        stack.append(index)
        span[T0] = time.perf_counter_ns()
        return span

    def end(self, span):
        span[T1] = time.perf_counter_ns()
        meter = self.meter
        span[FEVALS] = meter.fevals - span[FEVALS]
        span[GEVALS] = meter.gevals - span[GEVALS]
        self._stack.pop()
        if not self._stack:
            spans = self._spans
            self.totals.fold(spans)
            offset = len(self.kept)
            for span in spans[:max(self.keep - offset, 0)]:
                if span[PARENT] >= 0:
                    span[PARENT] += offset
                span[ROOT] += offset
                self.kept.append(span)
            self._spans = []
