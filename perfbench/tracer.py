"""Per-layer tracing from outside the program.

Every public function of a traced ``triagelab`` module is replaced by a
timing wrapper at every module attribute that binds it, so a call made
through ``pipeline.fit_lda`` and one made through ``costmodel.fit_lda``
are both seen.  A few methods that carry layer work are wrapped on their
class.  Spans stay in memory; ``write`` dumps them once at the end.

A layer that lacks a function its metrics read (renamed by a refactor)
is recorded as absent, and those metrics read 0; tracing never raises
for it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import statistics
import time

import numpy as np

PACKAGE = "triagelab"
LAYERS = (
    "corpus", "textprep", "suitability", "costmodel", "pipeline",
    "simulator", "policies", "solver", "bdg", "metrics",
)
METHODS = {
    "bdg": ("DependencyGraph.apply_event", "DependencyGraph.metrics_snapshot"),
    "simulator": ("Replay.step_day",),
}


def _bug_id_arg(args, kwargs, result, pre):
    return kwargs.get("bug_id", args[2] if len(args) > 2 else -1)


def _doc_bug_id(args, kwargs, result, pre):
    doc = kwargs.get("doc", args[1] if len(args) > 1 else None)
    return getattr(doc, "bug_id", -1)


def _solve_stats(args, kwargs, result, pre):
    instance = args[0] if args else kwargs["instance"]
    return (len(instance.bugs), len(instance.precedence), result.node_count)


def _deferred(args, kwargs, result, pre):
    return len(result.deferred)


def _rejected_before(args, kwargs):
    return len(args[0].rejected_arcs)


def _rejected_added(args, kwargs, result, pre):
    return len(args[0].rejected_arcs) - pre


def _mean_depth(args, kwargs, result, pre):
    return result.mean_depth


# span name -> (pre-call hook or None, extractor of the span's extra value)
EXTRAS = {
    "textprep.preprocess_text": (None, _bug_id_arg),
    "costmodel.infer_topic": (None, _doc_bug_id),
    "solver.solve_dabt": (None, _solve_stats),
    "solver.solve_rabt": (None, _solve_stats),
    "policies.decide_knapsack": (None, _deferred),
    "bdg.DependencyGraph.apply_event": (_rejected_before, _rejected_added),
    "bdg.DependencyGraph.metrics_snapshot": (None, _mean_depth),
}

# Every span the per-layer metrics read.
SOURCES = (
    "corpus.load_events", "corpus.clean_bugs",
    "textprep.preprocess_text", "textprep.tfidf_transform",
    "suitability.train_classifier", "suitability.predict_suitability",
    "costmodel.fit_lda", "costmodel.select_topic_count", "costmodel.infer_topic",
    "costmodel.build_cost_matrix", "costmodel.fill_missing_cf",
    "pipeline.save_models", "pipeline.load_models",
    "simulator.run_simulation", "simulator.Replay.step_day",
    "policies.decide_knapsack", "solver.solve_dabt", "solver.solve_rabt",
    "bdg.DependencyGraph.apply_event", "bdg.DependencyGraph.metrics_snapshot",
    "metrics.compute_report",
)

# solver.tail_ms is this percentile of the solve times.  The solve
# workload makes 400 solves per pass, which leaves 12 beyond it.
TAIL_PCT = 97

# Counters that must repeat exactly between identical set-ups or passes.
DETERMINISTIC = (
    "solver.nodes", "costmodel.fit_lda_calls", "costmodel.infer_calls",
    "textprep.preprocess_calls", "bdg.snapshots", "bdg.rejected_arcs",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, extra]
        self._stack = []
        self._restore = []  # (owner, attribute, original)
        self.found = set()  # span names that were wrapped
        self.missing = []  # SOURCES that were not found

    # --- installation ---------------------------------------------------

    def install(self):
        modules = {
            info.name: importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(importlib.import_module(PACKAGE).__path__)
        }
        wrappers = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(PACKAGE) or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._patch(module, attr, wrappers[obj])
        for layer, paths in METHODS.items():
            for path in paths:
                cls_name, _, meth = path.partition(".")
                cls = getattr(modules.get(layer), cls_name, None)
                fn = inspect.getattr_static(cls, meth, None) if cls else None
                if inspect.isfunction(fn):
                    self._patch(cls, meth, self._wrap(f"{layer}.{path}", fn))
        self.missing = [name for name in SOURCES if name not in self.found]

    @property
    def absent_layers(self):
        return sorted({name.partition(".")[0] for name in self.missing})

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        self.found.add(name)
        spans, stack = self.spans, self._stack
        pre_hook, extract = EXTRAS.get(name, (None, None))
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            pre = pre_hook(args, kwargs) if pre_hook else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, None]
            if extract:
                spans[index][4] = extract(args, kwargs, result, pre)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- windows and metrics ----------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def window_metrics(self, ranges) -> dict:
        """Per-layer metrics over the spans recorded in the [lo, hi) ranges."""
        indices = [i for lo, hi in ranges for i in range(lo, hi)]
        position = {index: k for k, index in enumerate(indices)}
        window = [self.spans[i] for i in indices]
        child_time = [0.0] * len(window)
        for span in window:
            parent = position.get(span[3])
            if parent is not None:
                child_time[parent] += span[2] - span[1]
        calls, total, self_by_layer = {}, {}, {}
        extras = {}
        for span, inner in zip(window, child_time):
            name, start, end = span[0], span[1], span[2]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            layer = name.partition(".")[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + (end - start - inner)
            if span[4] is not None:
                extras.setdefault(name, []).append(span[4])

        def n(*names):
            return sum(calls.get(x, 0) for x in names)

        def s(*names):
            return sum(total.get(x, 0.0) for x in names)

        solves = extras.get("solver.solve_dabt", []) + extras.get("solver.solve_rabt", [])
        solve_ms = [
            (span[2] - span[1]) * 1e3 for span in window
            if span[0] in ("solver.solve_dabt", "solver.solve_rabt")
        ]
        docs = extras.get("textprep.preprocess_text", [])
        infer_bugs = extras.get("costmodel.infer_topic", [])
        depths = extras.get("bdg.DependencyGraph.metrics_snapshot", [])
        return {
            "corpus.load_s": s("corpus.load_events"),
            "corpus.clean_s": s("corpus.clean_bugs"),
            "textprep.preprocess_calls": n("textprep.preprocess_text"),
            "textprep.preprocess_s": s("textprep.preprocess_text"),
            "textprep.tfidf_s": s("textprep.tfidf_transform"),
            "textprep.preprocess_per_doc": _ratio(len(docs), len(set(docs))),
            "suitability.train_s": s("suitability.train_classifier"),
            "suitability.predict_calls": n("suitability.predict_suitability"),
            "suitability.predict_s": s("suitability.predict_suitability"),
            "costmodel.fit_lda_calls": n("costmodel.fit_lda"),
            "costmodel.fit_lda_s": s("costmodel.fit_lda"),
            "costmodel.select_k_s": s("costmodel.select_topic_count"),
            "costmodel.infer_calls": n("costmodel.infer_topic"),
            "costmodel.infer_s": s("costmodel.infer_topic"),
            "costmodel.infer_per_bug": _ratio(len(infer_bugs), len(set(infer_bugs))),
            "costmodel.cost_fill_s": s("costmodel.build_cost_matrix", "costmodel.fill_missing_cf"),
            "pipeline.save_s": s("pipeline.save_models"),
            "pipeline.load_s": s("pipeline.load_models"),
            "simulator.days": n("simulator.Replay.step_day"),
            "simulator.self_s": self_by_layer.get("simulator", 0.0),
            "policies.decide_calls": sum(
                c for x, c in calls.items() if x.startswith("policies.decide_")
            ),
            "policies.self_s": self_by_layer.get("policies", 0.0),
            "policies.deferred": sum(extras.get("policies.decide_knapsack", [])),
            "solver.solves": len(solve_ms),
            "solver.solve_s": sum(solve_ms) / 1e3,
            "solver.p50_ms": percentile(solve_ms, 50),
            "solver.tail_ms": percentile(solve_ms, TAIL_PCT),
            "solver.nodes": sum(x[2] for x in solves),
            "solver.nodes_max": max((x[2] for x in solves), default=0),
            "solver.pool_max": max((x[0] for x in solves), default=0),
            "solver.arcs": sum(x[1] for x in solves),
            "bdg.events": n("bdg.DependencyGraph.apply_event"),
            "bdg.event_s": s("bdg.DependencyGraph.apply_event"),
            "bdg.snapshots": n("bdg.DependencyGraph.metrics_snapshot"),
            "bdg.snapshot_s": s("bdg.DependencyGraph.metrics_snapshot"),
            "bdg.rejected_arcs": sum(extras.get("bdg.DependencyGraph.apply_event", [])),
            "bdg.mean_depth_max": max(depths, default=0.0),
            "metrics.report_s": s("metrics.compute_report"),
        }


def combine(windows: list[dict]) -> dict:
    """Median of each metric over identical windows (set-ups or passes);
    counts keep their integer value."""
    out = {}
    for key in windows[0] if windows else ():
        values = [w[key] for w in windows]
        exact = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if exact else statistics.median(values)
    return out


def mismatched_counters(windows: list[dict]) -> list[str]:
    return [
        key for key in DETERMINISTIC
        if len({w[key] for w in windows}) > 1
    ]


def percentile(values, pct) -> float:
    return float(np.percentile(values, pct)) if len(values) else 0.0


def _ratio(a, b):
    return a / b if b else 0.0
