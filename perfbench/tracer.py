"""Span tracing of virfock from outside the package.

``Tracer.install`` replaces each function named in ``spec.SPANS`` with a
wrapper that records a span (name, parent, start, end).  Methods are
patched on their class.  A free function is rebound under every name it
is reached by in any loaded ``virfock`` module (its own module attribute,
``from .circle import invert``-style imports, the package re-exports), so
that calls between modules are traced as well.  Spans stay in memory
until ``save`` writes them out; ``layer_metrics`` turns them into the
per-layer metrics of ``spec.per_layer``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

import numpy as np

import spec

NAME, PARENT, START, END = range(4)


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {"circle.evaluate.terms": 0,
                       "fock.FockOperator.compose.flops": 0,
                       "fock.operator.max_bytes": 0,
                       "fock.operator.nonzeros": 0,
                       "fock.operator.entries": 0}

    def wrap(self, name, fn, measure=None):
        """Return fn wrapped in a span; name is a string or a function of
        the call's arguments; measure(tracer, args, result) adds counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args),
                    stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                measure(self, args, result)
            return result

        return traced

    def install(self) -> None:
        fock = importlib.import_module("virfock.fock")
        measures = {
            "circle.evaluate": _evaluate_terms,
            "fock.FockOperator.compose": _compose_flops,
        }
        for span_name, targets in spec.SPANS.items():
            for module_name, attr in targets:
                measure = measures.get(span_name)
                if span_name.startswith("fock.") and measure is None:
                    measure = _operator_storage(fock.FockOperator)
                self._patch(f"virfock.{module_name}", attr, span_name, measure)
        self._patch("virfock.suites", "run_suite",
                    lambda args: f"suites.{args[0].suite}", None)

    def _patch(self, module_name, attr, span_name, measure) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(span_name, raw.__func__, measure))
            else:
                wrapped = self.wrap(span_name, raw, measure)
            setattr(cls, meth, wrapped)
            return
        original = getattr(module, attr)
        wrapped = self.wrap(span_name, original, measure)
        for name, mod in list(sys.modules.items()):
            if name == "virfock" or name.startswith("virfock."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def save(self, path: str) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {"trace_id": self.trace_id, "names": names,
                   "fields": ["name", "parent", "start_s", "end_s"],
                   "spans": [[index[s[NAME]], s[PARENT], s[START], s[END]]
                             for s in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def layer_metrics(self) -> dict:
        """Calls, total and self time per span name, plus the counts."""
        n = len(self.spans)
        child_time = [0.0] * n
        in_invert = [False] * n
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_invert[i] = (in_invert[parent]
                                or self.spans[parent][NAME] == "circle.invert")
        calls, total, self_s = {}, {}, {}
        evaluates_in_invert = 0
        for i, (name, _, start, end) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
            if name == "circle.evaluate" and in_invert[i]:
                evaluates_in_invert += 1

        out = {}
        for span in spec.SPANS:
            if span in spec.COUNTED:
                out[f"{span}.calls"] = calls.get(span, 0)
            out[f"{span}.self_s"] = self_s.get(span, 0.0)
        out["circle.evaluate.terms"] = self.counts["circle.evaluate.terms"]
        inverts = calls.get("circle.invert", 0)
        out["circle.invert.evaluates_per_call"] = (
            evaluates_in_invert / inverts if inverts else 0.0)
        out["fock.FockOperator.compose.flops"] = self.counts[
            "fock.FockOperator.compose.flops"]
        out["fock.operator.max_bytes"] = self.counts["fock.operator.max_bytes"]
        entries = self.counts["fock.operator.entries"]
        out["fock.operator.nnz_ratio"] = (
            self.counts["fock.operator.nonzeros"] / entries if entries else 0.0)
        for suite in spec.SUITE_CHECKS:
            out[f"suites.{suite}.wall_s"] = total.get(f"suites.{suite}", 0.0)
            out[f"suites.{suite}.self_s"] = self_s.get(f"suites.{suite}", 0.0)
        return out


def _evaluate_terms(tracer: Tracer, args, result) -> None:
    f, theta = args[0], args[1]
    tracer.counts["circle.evaluate.terms"] += int(np.size(theta)) * f.coeffs.size


def _compose_flops(tracer: Tracer, args, result) -> None:
    # one complex multiply-add is 8 real flops
    a, b = args[0].mat, args[1].mat
    tracer.counts["fock.FockOperator.compose.flops"] += (
        8 * a.shape[0] * a.shape[1] * b.shape[1])
    _record_storage(tracer, result)


def _operator_storage(fock_operator):
    def measure(tracer: Tracer, args, result) -> None:
        if isinstance(result, fock_operator):
            _record_storage(tracer, result)
    return measure


def _record_storage(tracer: Tracer, op) -> None:
    counts = tracer.counts
    counts["fock.operator.max_bytes"] = max(counts["fock.operator.max_bytes"],
                                            op.mat.nbytes)
    counts["fock.operator.nonzeros"] += int(np.count_nonzero(op.mat))
    counts["fock.operator.entries"] += op.mat.size
