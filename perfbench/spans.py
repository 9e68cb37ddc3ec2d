"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around the module-level names through which madkit's
layers call each other (the hook table below).  Nothing inside madkit is
edited: each hook replaces a module attribute with a wrapper for the
duration of the traced run and puts the original back afterwards.

A span is (id, layer, start, end, parent, thread, op).  The parent is the
innermost open span on the calling thread, except for chunk spans, which
run on pool threads and name the study span that submitted them.  The
regularized incomplete beta function is called up to ~1e6 times per run,
so it gets no span of its own: its calls and seconds are added to the
innermost open span on the calling thread ("leaf" time).

A layer's self time is the sum, over its spans, of the span's duration
minus the union of its children's intervals (on any thread) minus its
leaf time.  Self times of one thread's spans therefore partition the
root span's wall time.
"""
from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

CLI = "cli"
OUTPUT = "cli.output"
SIMULATE = "simulate"
DRAW = "distributions.draw"
KERNEL = "_kernel.mad0_batch"
WEIGHTS = "quantiles.median_weights"
MAD = "mad.mad_corrected"
INC_BETA = "specfun.reg_inc_beta"

# Sample width up to which a kernel row counts as narrow (the width at which
# madkit's kernel dispatch has switched backends).
NARROW_WIDTH = 16

# (module, attribute path, layer).  The attribute is looked up where the
# caller looks it up: `madkit.cli.estimate_factors`, not the definition in
# madkit.simulate, because cli binds the name at import.
HOOKS = (
    ("madkit.cli", "main", CLI),
    ("madkit.cli", "_write_report", OUTPUT),
    ("madkit.simulate", "FactorReport.to_csv", OUTPUT),
    ("madkit.simulate", "EfficiencyReport.to_csv", OUTPUT),
    ("madkit.simulate", "SensitivityReport.to_csv", OUTPUT),
    ("madkit.cli", "estimate_factors", SIMULATE),
    ("madkit.cli", "efficiency", SIMULATE),
    ("madkit.cli", "sensitivity", SIMULATE),
    ("madkit.simulate", "_normal_matrix", DRAW),
    ("madkit.distributions", "DistributionSpec.draw", DRAW),
    ("madkit.simulate", "mad0_batch", KERNEL),
    ("madkit.simulate", "median_weights", WEIGHTS),
    ("madkit.quantiles", "hd_weights", WEIGHTS),
    ("madkit.quantiles", "thd_weights", WEIGHTS),
    ("madkit.cli", "mad_corrected", MAD),
    ("madkit.simulate", "mad_corrected", MAD),
)
CHUNK_HOOK = ("madkit.simulate", "_map_ordered")
LEAF_HOOK = ("madkit.quantiles", "reg_inc_beta")


class Span:
    __slots__ = ("id", "layer", "t0", "t1", "parent", "thread", "op",
                 "leaf_s", "leaf_n", "count", "width", "threads", "cpu_s")

    def __init__(self, id, layer, parent, thread, op):
        self.id = id
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.op = op
        self.t0 = self.t1 = 0.0
        self.leaf_s = 0.0
        self.leaf_n = 0
        self.count = 0      # values drawn or kernel rows
        self.width = 0      # kernel sample width
        self.threads = 0    # study worker threads
        self.cpu_s = 0.0    # process CPU seconds over a study span

    def as_list(self):
        return [getattr(self, field) for field in self.__slots__]


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise LookupError(
            f"trace hook {module_name}.{path} not found; the layer map in "
            "perfbench/spans.py must follow the renamed entry point")
    return owner, attr


class Tracer:
    """Records spans while installed; summarises them afterwards."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._orphan = Span(0, INC_BETA, None, 0, -1)  # leaf calls outside any span
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), layer, parent, threading.get_ident(), self.op)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span):
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, layer, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(layer)
            if layer == SIMULATE:
                span.threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
                c0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                if layer == SIMULATE:
                    span.cpu_s = time.process_time() - c0
                tracer._close(span)
            if layer == DRAW:
                span.count = result.size
            elif layer == KERNEL:
                span.count, span.width = args[0].shape
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_map(self, fn):
        tracer = self

        def traced_map(chunk_fn, items, threads):
            stack = tracer._stack()
            parent = stack[-1].id if stack else None

            def traced_chunk(item):
                span = tracer._open(SIMULATE, parent)
                try:
                    return chunk_fn(item)
                finally:
                    tracer._close(span)

            return fn(traced_chunk, items, threads)

        return traced_map

    def _wrap_leaf(self, fn):
        # Called up to ~1e6 times per cycle, so the bookkeeping is kept to
        # two clock reads and two attribute updates on the innermost span.
        local = self._local
        orphan = self._orphan
        clock = time.perf_counter

        def traced_leaf(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack = getattr(local, "stack", None)
                top = stack[-1] if stack else orphan
                top.leaf_s += dt
                top.leaf_n += 1

        return traced_leaf

    def install(self):
        plan = []
        for module_name, path, layer in HOOKS:
            owner, attr = _resolve(module_name, path)
            plan.append((owner, attr, self.wrap(layer, getattr(owner, attr))))
        owner, attr = _resolve(*CHUNK_HOOK)
        plan.append((owner, attr, self._wrap_map(getattr(owner, attr))))
        owner, attr = _resolve(*LEAF_HOOK)
        plan.append((owner, attr, self._wrap_leaf(getattr(owner, attr))))
        for owner, attr, wrapper in plan:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def leaf_totals(self):
        seconds = self._orphan.leaf_s + sum(s.leaf_s for s in self.spans)
        calls = self._orphan.leaf_n + sum(s.leaf_n for s in self.spans)
        return seconds, calls

    def self_times(self):
        """Map span id -> self seconds."""
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered = _union_length(
                (max(c.t0, s.t0), min(c.t1, s.t1)) for c in children.get(s.id, ()))
            out[s.id] = max(0.0, (s.t1 - s.t0) - covered - s.leaf_s)
        return out


def _union_length(intervals):
    total = 0.0
    end = None
    start = None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total


def layer_summary(tracer, spans=None):
    """Per-layer totals over ``spans`` (default: every recorded span)."""
    spans = tracer.spans if spans is None else spans
    self_s = tracer.self_times()
    by_id = {s.id: s for s in tracer.spans}
    out = defaultdict(float)
    for s in spans:
        out[s.layer + "_s"] += self_s[s.id]
        out[INC_BETA + "_s"] += s.leaf_s
        out[INC_BETA + "_calls"] += s.leaf_n
        if s.layer == DRAW:
            out[DRAW + "_values"] += s.count
        elif s.layer == KERNEL:
            kind = "narrow" if s.width <= NARROW_WIDTH else "wide"
            out[KERNEL + "_rows"] += s.count
            out[f"{KERNEL}_{kind}_rows"] += s.count
            out[f"{KERNEL}_{kind}_s"] += s.t1 - s.t0
        elif s.layer == WEIGHTS:
            parent = by_id.get(s.parent)
            if parent is None or parent.layer != WEIGHTS:
                out[WEIGHTS + "_builds"] += 1
        elif s.layer == SIMULATE and s.cpu_s:
            out[f"{SIMULATE}_cpu_s_{s.threads}t"] += s.cpu_s
    return out
