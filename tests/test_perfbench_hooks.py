"""The benchmark's tracer patches pmtree functions by name.

perfbench/spans.py wraps compiler.match_pm, compiler._recon_reachability and
the root functions through the compiler module's own attributes. A rename or
a walker that stops calling them through the module would break only the
traced benchmark; this test makes it fail here too.
"""

import importlib.util
from pathlib import Path

from pmtree import bits, compiler
from pmtree.bits import BitVector, Dataset
from pmtree.engine import RandomTape, Stream
from pmtree.generators import random_pattern_query
from pmtree.presets import desk_params

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_predicate_calls_equal_the_scanned_candidates():
    tape = RandomTape(31, Stream.PUB)
    n, d, w = 256, 16, 4
    dataset = Dataset(d, tuple(BitVector(d, tape.draw_bits(d)) for _ in range(n)))
    queries = [random_pattern_query(d, w, tape) for _ in range(20)]
    tracer = _spans_module().Tracer()
    tracer.install()
    try:
        tree = compiler.preprocess(dataset, compiler.PM_PROTOCOL, desk_params(n, d, w), seed=5)
        reports = [compiler.query(tree, q) for q in queries]
    finally:
        tracer.uninstall()
    assert compiler.match_pm is bits.match_pm
    spans = [s for s in tracer.spans if s["root"] == "query"]
    assert len(spans) == len(queries)
    assert sum(r.candidates_scanned for r in reports) > 0
    for span, report in zip(spans, reports):
        assert span["layers"].get("predicate", [0, 0])[0] == report.candidates_scanned
