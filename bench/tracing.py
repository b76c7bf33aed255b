"""Spans around the public functions of countbench, installed from outside.

`Tracer.install` replaces module attributes with wrappers.  Callers look
these functions up through the module (`bruteforce.build_xi(...)` or a
global name inside the same module), so every call goes through the
wrapper and `src/` stays untouched.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, function, how): "span" records a span; "count" only counts calls,
# for functions called so often that a span would distort the run.
TRACED = (
    ("cli", "main", "span"),
    ("bruteforce", "verify", "span"),
    ("bruteforce", "build_xi", "span"),
    ("bruteforce", "lift", "span"),
    ("linalg", "spectral_norm", "span"),
    ("linalg", "orthonormal_column_basis", "span"),
    ("johnson", "subset_basis", "span"),
    ("johnson", "inclusion_matrix", "span"),
    ("johnson", "irrep_projectors", "span"),
    ("johnson", "transporter", "span"),
    ("johnson", "reference_vectors", "span"),
    ("adversary", "phi_components", "count"),
    ("adversary", "phi_table", "span"),
    ("adversary", "tilde_tables", "span"),
    ("adversary", "assemble_adversary", "span"),
    ("adversary", "norm_delta_state_gen", "span"),
    ("adversary", "norm_delta_reflection", "span"),
    ("adversary", "norm_delta_membership", "span"),
    ("simulate", "run_batch", "span"),
    ("simulate", "phase_estimation_distribution", "span"),
)

# Spans of these functions also carry their first argument (check id, procedure).
TAGGED = {"bruteforce.verify", "simulate.run_batch"}


class Tracer:
    def __init__(self):
        # name, start, end, parent span index (-1 at top), operation id, tag
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._originals: dict = {}

    def install(self) -> None:
        for module_name, attr, how in TRACED:
            module = importlib.import_module(f"countbench.{module_name}")
            name = f"{module_name}.{attr}"
            original = getattr(module, attr)
            self._originals[name] = original
            wrapper = self._counter(name, original) if how == "count" else self._span(name, original)
            setattr(module, attr, wrapper)

    def _counter(self, name, original):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    def _span(self, name, original):
        spans, stack, tagged = self.spans, self._stack, name in TAGGED

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tag = args[0] if tagged and args else None
                spans[index] = (name, start, end, parent, self.op_id, tag)

        return traced

    def cache_misses(self) -> dict:
        """Current miss counters of the lru-cached traced functions."""
        return {
            name: fn.cache_info().misses
            for name, fn in self._originals.items()
            if hasattr(fn, "cache_info")
        }

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct child spans cover."""
        dur = np.array([end - start for _, start, end, *_ in self.spans])
        child = np.zeros_like(dur)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += dur[index]
        return dur - child

    def totals(self) -> dict:
        """Per name: calls, self seconds and inclusive seconds; tagged spans also per tag."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            name, start, end, _, _, tag = span
            keys = [name] if tag is None else [name, f"{name}.{tag}"]
            for key in keys:
                out[key]["calls"] += 1
                out[key]["self_s"] += float(self_s)
                out[key]["incl_s"] += end - start
        for name, calls in self.counts.items():
            out[name]["calls"] += calls
        return dict(out)

    def write(self, path) -> None:
        fields = ("name", "start", "end", "parent", "op", "tag")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
