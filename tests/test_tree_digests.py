"""Pinned digests of compiled trees, walker counters and simulator transcripts.

The simulator, the builder and the walker each interpret the same protocol.
These digests hold the tree bytes, the per-query work counters and the
transcripts fixed, so a change to how any of them is written must keep every
byte and every counter the same.
"""

import hashlib

import pytest

from pmtree import compiler
from pmtree.bits import BitVector, Dataset
from pmtree.compiler import preprocess, query, serialize
from pmtree.dist import EmpiricalDistribution
from pmtree.engine import RandomTape, Stream, Tapes, derive_params
from pmtree.generators import random_pattern_query
from pmtree.pm_protocol import run_pm
from pmtree.presets import desk_params
from pmtree.sq_protocol import run_sq

N_QUERIES = 200


def _random_dataset(n, d, seed, sparse=False):
    tape = RandomTape(seed, Stream.PUB)
    pts = []
    for _ in range(n):
        v = tape.draw_bits(d)
        if sparse:
            v &= tape.draw_bits(d) & tape.draw_bits(d)
        pts.append(BitVector(d, v))
    return Dataset(d, tuple(pts))


def _sq_loop_dataset():
    tape = RandomTape(13, Stream.PUB)
    pts = []
    while len(pts) < 10:
        v = BitVector(12, tape.draw_bits(12) | tape.draw_bits(12))
        if 5 <= v.popcount() <= 8:
            pts.append(v)
    return Dataset(12, tuple(pts))


def _pm_queries(d, stars, seed):
    tape = RandomTape(seed, Stream.PUB)
    return [random_pattern_query(d, stars, tape) for _ in range(N_QUERIES)]


def _sq_queries(d, w, seed):
    tape = RandomTape(seed, Stream.PUB)
    out = []
    while len(out) < N_QUERIES:
        y = BitVector(d, tape.draw_bits(d) | (tape.draw_bits(d) & tape.draw_bits(d)))
        if y.popcount() <= w:
            out.append(y)
    return out


def _pm_base():
    ds = _random_dataset(64, 16, seed=21)
    tree = preprocess(ds, "pm", desk_params(64, 16, 4), seed=5)
    return tree, _pm_queries(16, 4, seed=41)


def _sq_base():
    ds = _random_dataset(64, 16, seed=3, sparse=True)
    tree = preprocess(ds, "sq", desk_params(64, 16, 8), seed=8)
    return tree, _sq_queries(16, 8, seed=42)


def _pm_loop():
    ds = _random_dataset(10, 10, seed=11, sparse=True)
    params = derive_params(10, 6, 0.25, 0.05, t_cap=3, base_factor=1.0)
    tree = preprocess(ds, "pm", params, seed=33, node_ceiling=1 << 22)
    return tree, _pm_queries(10, 6, seed=43)


def _sq_loop():
    params = derive_params(12, 8, 0.25, 0.05, t_cap=3, base_factor=1.0)
    tree = preprocess(_sq_loop_dataset(), "sq", params, seed=4, node_ceiling=1 << 22)
    return tree, _sq_queries(12, 8, seed=44)


# name: (tree and queries, sha256 of the tree bytes, sha256 of the counters)
PINNED = {
    "pm-base": (
        _pm_base,
        "43ddc5d1dd15f357fae30cfc6f405e628ef7e9d1f9240599a0a60e186595f730",
        "4dbf5862cfd01b73ca2db6057d57f31bd7dbf3b1322de054b43a6f02bad233fc",
    ),
    "sq-base": (
        _sq_base,
        "c12f70381594fb76f5d79c7d11f3709b81cfb0c62e9d72ce9afd6f7cb61f1e20",
        "559405508edbdc9a4d8dfa3d1dfd85d5bb5a58a90833e3c3319e5be340c06a82",
    ),
    "pm-loop": (
        _pm_loop,
        "94edb2c4d27c99493d447a0ca7d97b59ddb625f3aeb1eba0f7ce5f3d3b0e0b16",
        "e4d4798e92df63880879d853d6292be3e7f66b6f3b4903c842f591dd8ede0f3d",
    ),
    "sq-loop": (
        _sq_loop,
        "60e6e7ef62db98eed8fbf8f1fdec52948c00f411c8d4516180dd1d039a8c3116",
        "71776b75957cb918ce472d0b6fcaafb76159b74c30dd0a140b1db282d076b9b5",
    ),
}


def _walk_digest(tree, queries) -> str:
    h = hashlib.sha256()
    for q in queries:
        rep = query(tree, q)
        row = (
            sorted(rep.matches),
            rep.leaves_visited,
            rep.candidates_scanned,
            rep.candidates_rejected,
            rep.bits_walked,
        )
        h.update(repr(row).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_tree_bytes_and_walk_counters_are_pinned(name):
    make, tree_sha, walk_sha = PINNED[name]
    tree, queries = make()
    assert hashlib.sha256(serialize(tree)).hexdigest() == tree_sha
    assert _walk_digest(tree, queries) == walk_sha


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bucket_lookups_give_the_reports_of_bucket_tests(name, monkeypatch):
    """Each query reports the same with the walker's reachable-bucket lookups
    as with them switched off, when it tests every stored bucket instead."""
    tree, queries = PINNED[name][0]()
    lookup = compiler._reachable_parities
    taken = []

    def counted(*args):
        values = lookup(*args)
        taken.append(values is not None)
        return values

    monkeypatch.setattr(compiler, "_reachable_parities", counted)
    with_lookups = [query(tree, q) for q in queries]
    monkeypatch.setattr(compiler, "_reachable_parities", lambda *args: None)
    assert [query(tree, q) for q in queries] == with_lookups
    if name != "pm-loop":  # its stages store fewer buckets than may be reachable
        assert any(taken)


SIM_TRANSCRIPTS_SHA256 = "dba66e77f593534df30449eb22a5832f70993cc7e34fbf27cc565aa63b87782e"


def test_simulator_transcripts_are_pinned():
    """Iterative PM and SQ runs that reach the near-sample, overlap and
    halving branches, with and without a pinned gap."""
    d = 12
    tape = RandomTape(61, Stream.PUB)
    pts = []
    while len(pts) < 16:
        v = BitVector(d, tape.draw_bits(d) | tape.draw_bits(d))
        if 4 <= v.popcount() <= 8:
            pts.append(v)
    lam = EmpiricalDistribution(Dataset(d, tuple(pts)))
    h = hashlib.sha256()

    def absorb(tr):
        for line in tr.dump_lines():
            h.update(line.encode())
        h.update(str(tr.output).encode())

    for extra in ({}, {"h_override": 1.0}):
        params = derive_params(d, 8, 0.25, 0.05, t_cap=3, base_factor=1.0, **extra)
        for i in range(40):
            x = pts[tape.draw_below(len(pts))]
            y = random_pattern_query(d, 8, tape)
            absorb(run_pm(params, lam, x, y, None, Tapes.from_seed(100 + i)))
            yv = BitVector(d, tape.draw_bits(d) | (tape.draw_bits(d) & tape.draw_bits(d)))
            if yv.popcount() > 8:
                continue
            absorb(run_sq(params, lam, x, yv, None, Tapes.from_seed(200 + i)))
    assert h.hexdigest() == SIM_TRANSCRIPTS_SHA256
