"""Span tracing from outside the library.

A traced run replaces module-level names with timing wrappers in the
namespace of the module that calls them (``fedrobust.engine.aggregate`` is
the name ``run_round`` looks up, so wrapping it there records every
aggregation the engine makes).  Each span has a name, start, end, parent
span and op id.  Per-name totals (calls, busy time, self time) and per
(parent, child) edge totals are kept for every span; raw span records are
kept in memory up to ``MAX_RAW_SPANS`` and written out when the run ends.

A name that no longer exists in its module (a refactor removed or renamed
it) is reported as absent; it is not an error.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

MAX_RAW_SPANS = 100_000

_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _weiszfeld_hook(counters, fn, args, kwargs, result):
    iterations = getattr(result, "iterations", None)
    if iterations is None:
        return
    counters["weiszfeld.iterations"] = counters.get("weiszfeld.iterations", 0) + int(iterations)
    try:
        bound = _signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return
    bound.apply_defaults()
    max_iters = bound.arguments.get("max_iters")
    tol = bound.arguments.get("tol")
    displacement = getattr(result, "displacement", None)
    if max_iters is not None and tol is not None and displacement is not None:
        if iterations >= max_iters and displacement >= tol:
            counters["weiszfeld.maxed_out"] = counters.get("weiszfeld.maxed_out", 0) + 1


def _kappa_hook(counters, fn, args, kwargs, result):
    checked = getattr(result, "samples_checked", None)
    if checked is not None:
        counters["audit.subsets_checked"] = counters.get("audit.subsets_checked", 0) + int(checked)


def _run_hook(counters, fn, args, kwargs, result):
    deviation = getattr(result, "agg_deviation", None)
    if deviation is not None:
        counters["engine.rounds"] = counters.get("engine.rounds", 0) + len(deviation)
    if getattr(result, "diverged", False):
        counters["engine.diverged_runs"] = counters.get("engine.diverged_runs", 0) + 1


# (calling module, attribute, span name, result hook).  The span name is the
# callee's layer and function; the caller shows up as the span's parent.
WRAP_TABLE = (
    ("fedrobust.engine", "run", "engine.run", _run_hook),
    ("fedrobust.engine", "run_round", "engine.run_round", None),
    ("fedrobust.engine", "aggregate", "aggregators.aggregate", None),
    ("fedrobust.engine", "honest_objective", "problems.honest_objective", None),
    ("fedrobust.engine", "local_update", "problems.local_update", None),
    ("fedrobust.engine", "byzantine_upload", "attacks.byzantine_upload", None),
    ("fedrobust.audit", "empirical_kappa", "audit.empirical_kappa", _kappa_hook),
    ("fedrobust.audit", "aggregate", "aggregators.aggregate", None),
    ("fedrobust.audit", "stack_points", "aggregators.stack_points", None),
    ("fedrobust.aggregators", "stack_points", "aggregators.stack_points", None),
    ("fedrobust.aggregators", "weiszfeld", "aggregators.weiszfeld", _weiszfeld_hook),
    ("fedrobust.aggregators", "nnm", "aggregators.nnm", None),
    ("fedrobust.aggregators", "krum", "aggregators.krum", None),
    ("fedrobust.aggregators", "cwtm", "aggregators.cwtm", None),
    ("fedrobust.aggregators", "cwmed", "aggregators.cwmed", None),
    ("fedrobust.problems", "random_quadratic_problem", "problems.build", None),
    ("fedrobust.cli", "random_quadratic_problem", "problems.build", None),
    ("fedrobust.cli", "two_group_quadratic_problem", "problems.build", None),
    ("fedrobust.cli", "homogeneous_quadratic_problem", "problems.build", None),
    ("fedrobust.cli", "run", "engine.run", _run_hook),
    ("fedrobust.cli", "main", "cli.main", None),
    ("fedrobust.cli", "run_sweep", "cli.run_sweep", None),
    ("fedrobust.cli", "run_audit", "cli.run_audit", None),
    ("fedrobust.cli", "report", "cli.report", None),
    ("fedrobust.bounds", "convergence_floor", "bounds.convergence_floor", None),
    ("fedrobust.bounds", "grad_ceiling", "bounds.grad_ceiling", None),
    ("fedrobust.bounds", "bound_report", "bounds.bound_report", None),
    ("fedrobust.bounds", "kappa_guarantee", "bounds.kappa_guarantee", None),
    ("fedrobust.bounds", "kappa_composite_chain", "bounds.kappa_composite_chain", None),
    ("fedrobust.bounds", "kappa_lower_bound", "bounds.kappa_lower_bound", None),
)

OP_SPAN = "bench.op"


class Tracer:
    """Collects spans while installed; restores every original on uninstall."""

    def __init__(self):
        self.stats = {}        # name -> [calls, busy_s, self_s]
        self.edges = {}        # (parent name, name) -> [calls, busy_s]
        self.counters = {}
        self.raw = []          # (id, name, start, end, parent id, op id)
        self.raw_dropped = 0
        self.absent = []
        self.op_id = -1
        self._stack = []       # frames: [span id, name, child time]
        self._next_id = 0
        self._installed = []   # (module, attribute, original)

    # -- spans ---------------------------------------------------------
    def _open(self, name):
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, start, end):
        self._stack.pop()
        span_id, name, child = frame
        busy = end - start
        parent = self._stack[-1] if self._stack else None
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += busy
        entry[2] += busy - child
        edge = self.edges.setdefault((parent[1] if parent else None, name), [0, 0.0])
        edge[0] += 1
        edge[1] += busy
        if parent is not None:
            parent[2] += busy
        if len(self.raw) < MAX_RAW_SPANS:
            self.raw.append((span_id, name, start, end, parent[0] if parent else None, self.op_id))
        else:
            self.raw_dropped += 1

    def op(self, op_id, fn, *args):
        """Run one benchmark op inside a root span."""
        self.op_id = op_id
        frame = self._open(OP_SPAN)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(frame, start, perf_counter())

    def _wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, perf_counter())
            if hook is not None:
                hook(tracer.counters, fn, args, kwargs, result)
            return result

        return traced

    # -- install / uninstall -------------------------------------------
    def reset(self):
        """Drop every span and counter collected so far."""
        self.stats.clear()
        self.edges.clear()
        self.counters.clear()
        self.raw.clear()
        self.raw_dropped = 0

    def install(self, table=WRAP_TABLE):
        self.absent = []
        wrapped = {}
        for module_name, attribute, span_name, hook in table:
            module = sys.modules.get(module_name)
            original = getattr(module, attribute, None) if module is not None else None
            if original is None or not callable(original):
                self.absent.append(f"{module_name}.{attribute}")
                continue
            # One wrapper per original, so a function bound under two names
            # in one module is timed once per call.
            key = (id(original), span_name)
            if key not in wrapped:
                wrapped[key] = self._wrapper(span_name, original, hook)
            setattr(module, attribute, wrapped[key])
            self._installed.append((module, attribute, original))

    def uninstall(self):
        while self._installed:
            module, attribute, original = self._installed.pop()
            setattr(module, attribute, original)

    # -- summaries -----------------------------------------------------
    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def busy(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def edge_sum(self, child, parent_prefix, index):
        """Sum of calls (index 0) or busy time (index 1) of ``child`` spans
        whose parent span name starts with ``parent_prefix``."""
        return sum(
            value[index]
            for (parent, name), value in self.edges.items()
            if name == child and parent is not None and parent.startswith(parent_prefix)
        )

    def top_self(self):
        """Span names ordered by self time, largest first, benchmark root
        spans excluded."""
        items = [(v[2], k) for k, v in self.stats.items() if k != OP_SPAN]
        return [name for _, name in sorted(items, reverse=True)]

    def dump(self):
        return {
            "absent": list(self.absent),
            "stats": {k: {"calls": v[0], "busy_s": v[1], "self_s": v[2]} for k, v in self.stats.items()},
            "edges": [
                {"parent": p, "name": n, "calls": v[0], "busy_s": v[1]} for (p, n), v in self.edges.items()
            ],
            "counters": dict(self.counters),
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.raw,
            "spans_dropped": self.raw_dropped,
        }
