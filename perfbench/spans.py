"""Spans around pmtree's public functions, installed from outside the program.

A call of a root function (preprocess, serialize, deserialize, query) opens a
root span. The layer functions in INNER are folded into the open root span as
per-name call counts and total time. None of them calls another, so a root
span's self time is its duration minus the time of its inner calls. Root spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

from pmtree import base_protocol, compiler
from pmtree.dist import EmpiricalDistribution

ROOTS = ("preprocess", "serialize", "deserialize", "query")

# (owner, attribute, span name). The walker calls match_pm through the
# compiler module's own name, so it is patched there.
INNER = (
    (base_protocol, "parity_vector", "parity_vector"),
    (base_protocol, "unrank_subset", "unrank_subset"),
    (compiler, "match_pm", "predicate"),
    (EmpiricalDistribution, "sample", "dist"),
    (EmpiricalDistribution, "sample_size_conditioned", "dist"),
    (EmpiricalDistribution, "restrict_dist", "dist"),
    (EmpiricalDistribution, "xor_shift", "dist"),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._layers: dict[str, list[int]] | None = None  # open root: name -> [calls, ns]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name in ROOTS:
            self._patch(compiler, name, self._root(getattr(compiler, name), name))
        for owner, attr, name in INNER:
            self._patch(owner, attr, self._inner(getattr(owner, attr), name))
        self._patch(compiler, "_recon_reachability", self._count_buckets(compiler._recon_reachability))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _root(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._layers is not None:
                return fn(*args, **kwargs)
            layers = tracer._layers = {}
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._layers = None
                inner = sum(ns for _, ns in layers.values())
                tracer.spans.append(
                    {
                        "root": name,
                        "start_ns": start,
                        "end_ns": end,
                        "self_ns": end - start - inner,
                        "layers": layers,
                    }
                )

        return traced

    def _inner(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            layers = tracer._layers
            if layers is None:
                return fn(*args, **kwargs)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                acc = layers.get(name)
                if acc is None:
                    acc = layers[name] = [0, 0]
                acc[0] += 1
                acc[1] += dur

        return traced

    def _count_buckets(self, fn):
        """Counts the stored parity buckets the walker tests for reachability."""
        tracer = self

        def traced(*args, **kwargs):
            test = fn(*args, **kwargs)
            layers = tracer._layers
            if layers is None:
                return test
            # Time stays 0: the test runs inside the walker's own self time.
            acc = layers.setdefault("bucket_test", [0, 0])

            def counted(target):
                acc[0] += 1
                return test(target)

            return counted

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
