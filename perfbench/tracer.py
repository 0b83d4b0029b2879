"""Per-layer spans recorded from outside the program.

``install`` replaces each target in ``TARGETS`` (a module attribute through
which the pipeline calls a layer) with a wrapper that records a span: name,
start, end, parent (the index of the enclosing span in the same pass) and
pass, plus counters read off the call.  A target that does not exist is
skipped, and the metrics that only it feeds are reported as absent.  A layer's self time is its spans' durations minus their child
spans' durations; what no span covers is reported as ``trace.unattributed_s``,
so the self times plus that remainder add up to the traced pass time.
Cyclic garbage collection is timed through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import importlib
import time


def _rows(args, kwargs, result):
    return (len(result),)


def _projection_rows(args, kwargs, result):
    return (sum(len(proj) for proj in result.values()),)


def _lifted_rows(args, kwargs, result):
    return (len(result.base),)


def _highs_work(args, kwargs, result):
    nnz = sum(m.nnz for m in (kwargs.get("A_ub"), kwargs.get("A_eq")) if m is not None)
    return int(nnz), int(result.nit)


# (module, attribute, layer whose self time the span adds to, counter
# metrics, function of (args, kwargs, result) giving their values)
TARGETS = [
    ("lpcq.cli", "main", "cli.self_s", (), None),
    ("lpcq.cli", "load_database", "relations.load_s", (), None),
    ("lpcq.cli", "parse", "language.parse_s", (), None),
    ("lpcq.cli", "normal_form", "language.close_s", (), None),
    ("lpcq.cli", "close", "language.close_s", (), None),
    ("lpcq.cli", "quantifier_eliminate", "interpret.eliminate_s", (), None),
    ("lpcq.cli", "natural", "interpret.assemble_s", (), None),
    ("lpcq.cli", "replacement", "interpret.assemble_s", (), None),
    ("lpcq.cli", "factorized", "interpret.assemble_s", (), None),
    ("lpcq.interpret", "evaluate", "queries.evaluate_s", ("queries.answer_rows",), _rows),
    ("lpcq.weightings", "evaluate", "queries.evaluate_s", ("queries.answer_rows",), _rows),
    ("lpcq.queries", "join_factors", "queries.join_s", ("queries.join_rows",), _rows),
    ("lpcq.decomp", "join_factors", "queries.join_s", ("queries.join_rows",), _rows),
    ("lpcq.cli", "build_decompositions", "decomp.prepare_s", (), None),
    ("lpcq.interpret", "bag_projections", "decomp.bag_projections_s",
     ("decomp.projection_rows",), _projection_rows),
    ("lpcq.cli", "solve", "linprog.solve_s", (), None),
    ("scipy.optimize", "linprog", "linprog.highs_s",
     ("linprog.nnz", "linprog.iterations"), _highs_work),
    ("lpcq.cli", "solution_to_weights", "weightings.lift_s",
     ("weightings.lifted_rows",), _lifted_rows),
]


class Tracer:
    """Spans of the current process, kept in memory until ``spans`` is read."""

    def __init__(self):
        self.spans: list[dict] = []
        self.installed: list[str] = []  # "module.attr" of every wrapped target
        self.missing: list[str] = []
        self.pass_no = 0
        self._stack: list[int] = []
        self._gc_start = 0.0
        self.gc_s = 0.0
        self.gc_full = 0

    def install(self) -> None:
        for module_name, attr, _layer, metrics, counter in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            setattr(module, attr, self._wrap(original, name, metrics, counter))
            self.installed.append(name)

    def _wrap(self, fn, name, metrics, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "pass": self.pass_no, "start": clock()}
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if counter is not None:
                try:
                    span.update(zip(metrics, counter(args, kwargs, result)))
                except (AttributeError, TypeError):
                    span["counter_error"] = True
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            if info.get("generation") == 2:
                self.gc_full += 1

    def start_pass(self, pass_no: int) -> None:
        self.pass_no = pass_no
        self.gc_s = 0.0
        self.gc_full = 0
        gc.callbacks.append(self._on_gc)

    def stop_pass(self) -> dict:
        gc.callbacks.remove(self._on_gc)
        return {"runtime.gc_s": self.gc_s, "runtime.gc_full": self.gc_full}


def layer_metrics(spans: list[dict], installed: list[str], pass_s: float, gc_stats: dict) -> dict:
    """Per-layer self times and counters of one pass, from its spans.

    Metrics fed only by targets that were not installed are left out.
    """
    layer_of = {f"{m}.{a}": layer for m, a, layer, _, _ in TARGETS}
    counters_of = {f"{m}.{a}": metrics for m, a, _, metrics, _ in TARGETS}
    out: dict[str, float] = {}
    for name in installed:
        out.setdefault(layer_of[name], 0.0)
        for metric in counters_of[name]:
            out.setdefault(metric, 0)

    child_time = [0.0] * len(spans)
    highs_child = [False] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            child_time[parent] += span["end"] - span["start"]
            if span["name"] == "scipy.optimize.linprog":
                highs_child[parent] = True

    attributed = 0.0
    dense = highs = 0
    broken: set[str] = set()
    for i, span in enumerate(spans):
        self_s = span["end"] - span["start"] - child_time[i]
        out[layer_of[span["name"]]] += self_s
        attributed += self_s
        for metric in counters_of[span["name"]]:
            if span.get("counter_error"):
                broken.add(metric)
            elif metric in span:
                out[metric] += span[metric]
        if span["name"] == "lpcq.cli.solve" and not highs_child[i]:
            dense += 1
        if span["name"] == "scipy.optimize.linprog":
            highs += 1

    for metric in broken:
        del out[metric]
    if "lpcq.cli.solve" in installed and "scipy.optimize.linprog" in installed:
        out["linprog.dense_calls"] = dense
    if "scipy.optimize.linprog" in installed:
        out["linprog.highs_calls"] = highs
    out.update(gc_stats)
    out["trace.solve_s"] = pass_s
    out["trace.unattributed_s"] = pass_s - attributed
    return out
