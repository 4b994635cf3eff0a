"""Span tracing of hypexpand from outside the package.

``Tracer.install`` replaces each public module-level function of the traced
modules with a wrapper that records a span (name, start, end, parent, op id).
It patches every binding a caller looks the function up through: the defining
module and each ``from ... import`` alias elsewhere in the package, such as
``convexity.geodesic_chord_points``.  ``uninstall`` puts the originals back,
so untraced and traced ops can alternate in one process.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("disk", "dilation", "convexity", "sphere", "curvature", "lemmas", "cli")


def _rows(a):
    return len(np.atleast_2d(a))


# Work counts read from argument sizes; the search also counts its outcome.
COUNTERS = {
    "convexity.klein_polygon_contains":
        lambda args, kwargs, out: {"probes": _rows(args[1])},
    "convexity.winding_contains":
        lambda args, kwargs, out: {"probes": _rows(args[1])},
    "convexity.polyline_distance":
        lambda args, kwargs, out: {"point_segment_pairs": _rows(args[1]) * (len(args[0]) - 1)},
    "cli.measure_witness":
        lambda args, kwargs, out: {"rechecks_4x": int(kwargs.get("scale", 1) == 4)},
    "cli.run_search_counterexample":
        lambda args, kwargs, out: {"confirmed": int(out["found"])},
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.op = None
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self.counts = defaultdict(int)  # (name, stat) -> total
        self._stack = []
        self._saved = []  # (module, attribute, original function)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for stat, n in counter(args, kwargs, out).items():
                    counts[(name, stat)] += n
            return out

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "hypexpand" or mod_name.startswith("hypexpand.")):
                continue
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__name__.startswith("_"):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if not fn.__module__.startswith("hypexpand.") or home not in TRACED_MODULES:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(f"{home}.{fn.__name__}", fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def take(self):
        """Return (spans, counts) recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_stats(spans, counts):
    """Per span name: calls, span_ns, self_ns (span_ns minus direct children) and work counts.

    Spans of one thread nest strictly, so the children of a span cover
    exactly the sum of their durations.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = defaultdict(lambda: defaultdict(int))
    for i, (name, start, end, _, _) in enumerate(spans):
        stats[name]["calls"] += 1
        stats[name]["span_ns"] += end - start
        stats[name]["self_ns"] += end - start - child_ns[i]
    for (name, stat), n in counts.items():
        stats[name][stat] += n
    return {name: dict(s) for name, s in stats.items()}
