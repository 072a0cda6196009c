"""Spans around setlearn's layers, recorded from outside the library.

The tracer replaces public functions at the names each setlearn module
imports them under (``setlearn.cli.gram``, ``setlearn.estimator.cho_factor``,
...), so calls made inside the library are caught without touching it.
Wrappers are installed only for traced ops and removed afterwards; the
untraced ops run the original functions.

Each span has a name, a start, an end, the span that caused it and the op
it belongs to.  Self time is a span's duration minus the time its direct
child spans cover.  Work counts ("computed" from argument shapes) are
attached to the span that did the work.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager, nullcontext

import numpy as np


def _rows(a):
    return int(np.shape(a)[0])


def _cols(a):
    shape = np.shape(a)
    return int(shape[1]) if len(shape) > 1 else 1


def _gram_counts(result, kernel, points, *a, **kw):
    return {"entries": _rows(points) ** 2}


def _cross_gram_counts(result, kernel, X, Y):
    return {"entries": _rows(X) * _rows(Y)}


def _decompose_counts(result, g):
    n = getattr(g, "n", None) or _rows(g)
    return {"n3": float(n) ** 3}


def _score_counts(result, model, X):
    return {"points": _rows(X)}


def _landweber_counts(result, g, kx, iterations):
    n = g.n
    return {"gemm_flops": 2.0 * n * n * _cols(kx) * (int(iterations) + 1)}


def _save_counts(result, model, path, *a, **kw):
    return {"bytes": os.path.getsize(path)}


def _load_counts(result, path):
    return {"bytes": os.path.getsize(path)}


def _concentration_counts(result, sample_fn, kernel, n, delta, trials, ref_size, *a, **kw):
    return {"kernel_entries": float(ref_size) ** 2 + trials * (n * n + n * ref_size)}


def _score_path(model, X):
    return "estimator.score_batch." + model.algorithm


# (span name or callable giving it, count function or None, fields, [(module, attribute)]).
# The span name is the layer (the setlearn module that defines the function).
_TARGETS = [
    ("kernels.gram", _gram_counts, ("entries",),
     [("setlearn.cli", "gram"), ("setlearn.estimator", "gram")]),
    ("kernels.cross_gram", _cross_gram_counts, ("entries",),
     [("setlearn.estimator", "cross_gram")]),
    ("filters.decompose", _decompose_counts, ("n3",),
     [("setlearn.cli", "decompose"), ("setlearn.estimator", "decompose")]),
    ("estimator.fit", None, (),
     [("setlearn", "fit"), ("setlearn.cli", "fit"), ("setlearn.model_io", "fit")]),
    ("estimator.cho_factor", None, (), [("setlearn.estimator", "cho_factor")]),
    (_score_path, _score_counts, ("points",),
     [("setlearn", "score_batch"), ("setlearn.cli", "score_batch")]),
    ("estimator.landweber_coefficients", _landweber_counts, ("gemm_flops",),
     [("setlearn.estimator", "landweber_coefficients")]),
    ("estimator.regularization_path", None, (),
     [("setlearn.cli", "regularization_path")]),
    ("selection.width_heuristic", None, (),
     [("setlearn", "width_heuristic"), ("setlearn.cli", "width_heuristic")]),
    ("selection.lambda_curvature", None, (), [("setlearn.cli", "lambda_curvature")]),
    ("model_io.save_model", _save_counts, ("bytes",), [("setlearn.cli", "save_model")]),
    ("model_io.load_model", _load_counts, ("bytes",), [("setlearn.cli", "load_model")]),
    ("data.load_csv", None, (), [("setlearn.cli", "load_csv")]),
    ("evaluation.hausdorff", None, (), [("setlearn.cli", "hausdorff")]),
    ("evaluation.roc_auc", None, (), [("setlearn.cli", "roc_auc")]),
    ("evaluation.parzen_score", None, (), [("setlearn.cli", "parzen_score")]),
    ("synth.reference_grid", None, (), [("setlearn.cli", "reference_grid")]),
    ("synth.reference_support", None, (), [("setlearn.cli", "reference_support")]),
    ("oracles.concentration_trials", _concentration_counts, ("kernel_entries",),
     [("setlearn.cli", "concentration_trials")]),
]

SCORE_PATHS = ("spectral", "cholesky", "landweber")
CLI_COMMANDS = ("train", "eval", "sweep", "verify-bounds")


def span_fields():
    """Every (span name, field) the tracer can report; unreached spans read 0."""
    fields = {}
    for name, _, counts, _ in _TARGETS:
        names = [f"estimator.score_batch.{p}" for p in SCORE_PATHS] if callable(name) else [name]
        for n in names:
            fields[n] = ("calls", "s", "self_s") + counts
    fields["data.write_table"] = ("calls", "s", "self_s", "rows")
    for cmd in CLI_COMMANDS:
        fields[f"cli.{cmd}"] = ("calls", "s", "self_s")
    return fields


class Span:
    __slots__ = ("op", "name", "start", "end", "parent", "child_s", "counts")

    def __init__(self, op, name, parent):
        self.op, self.name, self.parent = op, name, parent
        self.child_s = 0.0
        self.counts = {}
        self.start = time.perf_counter()
        self.end = None


class Tracer:
    """Records spans while installed; a no-op otherwise."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.active = False
        self._stack = []
        self._patches = []
        for name, counts, _, sites in _TARGETS:
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._patches.append((module, attr, original, self._wrap(original, name, counts)))
        module = importlib.import_module("setlearn.cli")
        original = module.write_table
        self._patches.append((module, "write_table", original, self._wrap_write_table(original)))

    def install(self, op):
        self.op = op
        self.active = True
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        self.active = False

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(self.op, name, parent)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return self._span(name) if self.active else nullcontext()

    @contextmanager
    def _span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            span = self._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.counts.update(counts(result, *args, **kwargs))
            return result
        return traced

    def _wrap_write_table(self, fn):
        def traced(path, title, meta, columns, rows, *args, **kwargs):
            n = [0]

            def counted():
                for row in rows:
                    n[0] += 1
                    yield row
            span = self._open("data.write_table")
            try:
                return fn(path, title, meta, columns, counted(), *args, **kwargs)
            finally:
                self._close(span)
                span.counts["rows"] = n[0]
        return traced

    def aggregate(self, ops):
        """Totals per span name over the spans of the given ops."""
        ops = set(ops)
        agg = {}
        for s in self.spans:
            if s.op not in ops:
                continue
            a = agg.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            d = s.end - s.start
            a["calls"] += 1
            a["s"] += d
            a["self_s"] += d - s.child_s
            for k, v in s.counts.items():
                a[k] = a.get(k, 0) + v
        return agg

    def self_seconds(self, op):
        return sum(s.end - s.start - s.child_s for s in self.spans if s.op == op)

    def records(self):
        index = {id(s): i for i, s in enumerate(self.spans)}
        for s in self.spans:
            yield {"op": s.op, "name": s.name, "start": s.start, "end": s.end,
                   "parent": None if s.parent is None else index.get(id(s.parent)),
                   "counts": s.counts}
