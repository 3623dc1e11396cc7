import functools
import gc
import hashlib
import math
import operator
import struct
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from pmtree import compiler
from pmtree.base_protocol import (
    advice_width,
    decode,
    decode_failed_sentinel,
    parity_vector,
    subset_count,
)
from pmtree.bits import BitVector, Dataset, TernaryPattern
from pmtree.compiler import (
    MAX_TREE_DEPTH,
    AliceNode,
    CarolNode,
    Leaf,
    MerlinDeferred,
    MerlinExplicit,
    ProtocolTree,
    TreeError,
    TreeSizeError,
    _NODE_CAROL,
    _NODE_HEADERS,
    _NODE_MERLIN_EXPLICIT,
    _SITE_CODE,
    _SUBSET_ENUM_LIMIT,
    _byte_parities,
    _coset,
    _parity_columns,
    _rank_parities,
    _reachable_parities,
    _recon_reachability,
    _recon_solve,
    deserialize,
    load_tree,
    preprocess,
    query,
    save_tree,
    serialize,
)
from pmtree.engine import RandomTape, Stream, derive_params
from pmtree.generators import (
    distinct_positions,
    gen_planted,
    random_pattern_query,
)
from pmtree.oracles import brute_force_pm, brute_force_sq
from pmtree.presets import desk_params
from test_tree_digests import PINNED


def _random_dataset(n, d, seed, sparse=False):
    tape = RandomTape(seed, Stream.PUB)
    pts = []
    for _ in range(n):
        v = tape.draw_bits(d)
        if sparse:
            v &= tape.draw_bits(d) & tape.draw_bits(d)
        pts.append(BitVector(d, v))
    return Dataset(d, tuple(pts))


def test_pm_tree_matches_oracle_on_random_queries():
    ds = _random_dataset(96, 24, seed=1)
    params = desk_params(96, 24, 6)
    tree = preprocess(ds, "pm", params, seed=7)
    tape = RandomTape(2, Stream.PUB)
    for _ in range(300):
        q = random_pattern_query(24, 6, tape)
        assert query(tree, q).matches == frozenset(brute_force_pm(ds, q))


def test_sq_tree_matches_oracle():
    ds = _random_dataset(64, 16, seed=3, sparse=True)
    params = desk_params(64, 16, 8)
    tree = preprocess(ds, "sq", params, seed=8)
    tape = RandomTape(4, Stream.PUB)
    checked = 0
    for _ in range(600):
        y = BitVector(16, tape.draw_bits(16) & tape.draw_bits(16))
        if y.popcount() > 8:
            continue
        checked += 1
        assert query(tree, y).matches == frozenset(brute_force_sq(ds, y))
    assert checked > 100


def test_planted_matches_always_reported():
    inst = gen_planted(256, 32, 8, 30, seed=5)
    tree = preprocess(inst.dataset, "pm", desk_params(256, 32, 8), seed=6)
    for q, truth in zip(inst.queries, inst.truth):
        rep = query(tree, q)
        assert rep.matches == truth
        assert rep.leaves_visited >= 1


def test_single_point_dataset():
    ds = Dataset(8, (BitVector.from01("10110001"),))
    tree = preprocess(ds, "pm", desk_params(1, 8, 3), seed=1)
    hit = TernaryPattern.parse("1*110*01")
    miss = TernaryPattern.parse("0*110*01")
    assert query(tree, hit).matches == frozenset({0})
    assert query(tree, miss).matches == frozenset()


def test_all_star_query_returns_everything():
    ds = _random_dataset(20, 10, seed=9)
    tree = preprocess(ds, "pm", desk_params(20, 10, 10), seed=2)
    q = TernaryPattern(10, (1 << 10) - 1, 0)
    assert query(tree, q).matches == frozenset(range(20))


def test_forced_loop_pm_tree_exact():
    ds = _random_dataset(10, 10, seed=11, sparse=True)
    params = derive_params(10, 6, 0.25, 0.05, t_cap=3, base_factor=1.0)
    assert not params.is_base_case()
    tree = preprocess(ds, "pm", params, seed=33, node_ceiling=1 << 22)
    tape = RandomTape(12, Stream.PUB)
    for _ in range(250):
        q = random_pattern_query(10, 6, tape)
        assert query(tree, q).matches == frozenset(brute_force_pm(ds, q))


def _count_none(monkeypatch, name) -> Counter:
    """Wrap compiler.<name>; the counter tallies its results by `is None`."""
    original, tally = getattr(compiler, name), Counter()

    def counted(*args):
        out = original(*args)
        tally[out is None] += 1
        return out

    monkeypatch.setattr(compiler, name, counted)
    return tally


def _planted_or_random(ds, w, tape, i):
    """A random pattern with w stars; on even i, a dataset point's bits off the stars."""
    q = random_pattern_query(ds.dim, w, tape)
    if i % 2:
        return q
    x = ds.points[tape.draw_below(ds.n)]
    return TernaryPattern(ds.dim, q.stars, x.value & ~q.stars)


# h = 0.5 admits only samples that agree with the query off its stars, so most
# queries take the halving step. The first tree has star positions that every
# drawn set holds; queries starred there take the accept branch. The trees stay
# in memory, as format v1 cannot store h_override.
@pytest.mark.parametrize("d, w, n, eps, delta, extra, accepts", [
    (12, 1, 16, 0.45, 0.45, {"t_cap": 2, "base_factor": 0.5}, True),
    (16, 6, 24, 0.25, 0.05, {"t_cap": 3, "base_factor": 1.0}, False),
])
def test_pm_halving_step_walks_exact(monkeypatch, d, w, n, eps, delta, extra, accepts):
    ds = _random_dataset(n, d, seed=1)
    params = derive_params(d, w, eps, delta, h_override=0.5, **extra)
    tree = preprocess(ds, "pm", params, seed=0, node_ceiling=1 << 22)
    near = _count_none(monkeypatch, "near_match_index")
    half = _count_none(monkeypatch, "pick_half")
    tape = RandomTape(5, Stream.PUB)
    for i in range(100):
        q = _planted_or_random(ds, w, tape, i)
        assert query(tree, q).matches == frozenset(brute_force_pm(ds, q))
    assert near[True] > 0  # no near sample
    assert half[False] > 0  # a kept set's sub-tree
    assert (half[True] > 0) == accepts  # no set holds few enough stars


def test_forced_loop_sq_tree_exact_all_branches():
    tape = RandomTape(13, Stream.PUB)
    pts = []
    while len(pts) < 10:
        v = BitVector(12, tape.draw_bits(12) | tape.draw_bits(12))
        if 5 <= v.popcount() <= 8:
            pts.append(v)
    ds = Dataset(12, tuple(pts))
    for extra in ({}, {"h_override": 1.0}):
        params = derive_params(12, 8, 0.25, 0.05, t_cap=3, base_factor=1.0, **extra)
        tree = preprocess(ds, "sq", params, seed=4, node_ceiling=1 << 22)
        checked = 0
        for _ in range(800):
            y = BitVector(12, tape.draw_bits(12) | (tape.draw_bits(12) & tape.draw_bits(12)))
            if y.popcount() > 8:
                continue
            checked += 1
            assert query(tree, y).matches == frozenset(brute_force_sq(ds, y))
        assert checked > 200


def test_rebuild_is_byte_identical():
    ds = _random_dataset(64, 16, seed=21)
    params = desk_params(64, 16, 4)
    blob1 = serialize(preprocess(ds, "pm", params, seed=5))
    blob2 = serialize(preprocess(ds, "pm", params, seed=5))
    assert blob1 == blob2
    blob3 = serialize(preprocess(ds, "pm", params, seed=6))
    assert blob1 != blob3


def test_serialization_round_trip(tmp_path):
    ds = _random_dataset(48, 16, seed=22)
    params = desk_params(48, 16, 4)
    tree = preprocess(ds, "pm", params, seed=5)
    path = tmp_path / "tree.bin"
    save_tree(tree, path)
    back = load_tree(path, ds)
    assert serialize(back) == serialize(tree)
    tape = RandomTape(23, Stream.PUB)
    for _ in range(50):
        q = random_pattern_query(16, 4, tape)
        assert query(back, q) == query(tree, q)


def test_deserialize_rejects_other_dataset():
    ds = _random_dataset(16, 8, seed=24)
    other = _random_dataset(16, 8, seed=25)
    tree = preprocess(ds, "pm", desk_params(16, 8, 3), seed=5)
    with pytest.raises(Exception):
        deserialize(serialize(tree), other)


def test_leaf_count_bounded_by_alphabet_product():
    ds = _random_dataset(8, 8, seed=26, sparse=True)
    params = desk_params(8, 8, 4)
    tree = preprocess(ds, "sq", params, seed=3)
    assert tree.meta.leaf_count <= _alphabet_product(tree.root)

    params2 = derive_params(8, 5, 0.25, 0.05, t_cap=3, base_factor=1.0)
    tree2 = preprocess(ds, "sq", params2, seed=3, node_ceiling=1 << 22)
    assert tree2.meta.leaf_count <= _alphabet_product(tree2.root)


def _children(node) -> list:
    if isinstance(node, Leaf):
        return []
    return list(node.children.values()) if hasattr(node, "children") else [node.child]


def _alphabet_product(root) -> int:
    """The product over depths of the most children of a node at that depth."""
    widest: dict[int, int] = {}

    def visit(node, depth):
        kids = _children(node)
        widest[depth] = max(widest.get(depth, 1), len(kids))
        for kid in kids:
            visit(kid, depth + 1)

    visit(root, 0)
    return math.prod(widest.values())


def test_space_accounting():
    ds = _random_dataset(128, 32, seed=27)
    tree = preprocess(ds, "pm", desk_params(128, 32, 8), seed=5)
    blob = serialize(tree)
    carol_bits = _total_carol_bits(tree.root)
    bound = 64 * tree.meta.node_count + 4 * tree.meta.candidate_total + carol_bits // 8 + 256
    assert len(blob) <= bound


def _total_carol_bits(node):
    from pmtree.compiler import AliceNode, BobNode, CarolNode, MerlinDeferred, MerlinExplicit

    if node is None:
        return 0
    if isinstance(node, CarolNode):
        return node.dim * len(node.vectors) + _total_carol_bits(node.child)
    if isinstance(node, MerlinDeferred):
        return _total_carol_bits(node.child)
    if isinstance(node, (AliceNode, BobNode, MerlinExplicit)):
        return sum(_total_carol_bits(c) for c in node.children.values())
    return 0


def test_node_ceiling_aborts_with_sizing_report():
    ds = _random_dataset(64, 16, seed=28)
    with pytest.raises(TreeSizeError) as exc:
        preprocess(ds, "pm", desk_params(64, 16, 4), seed=5, node_ceiling=10)
    assert exc.value.node_count > 10
    assert exc.value.ceiling == 10


def test_query_validation():
    ds = _random_dataset(16, 8, seed=29)
    tree = preprocess(ds, "pm", desk_params(16, 8, 3), seed=5)
    with pytest.raises(ValueError):
        query(tree, TernaryPattern.parse("****0000"))  # over the star budget
    with pytest.raises(ValueError):
        query(tree, BitVector.from01("00000000"))  # wrong query type
    sq_tree = preprocess(ds, "sq", desk_params(16, 8, 3), seed=5)
    with pytest.raises(ValueError):
        query(sq_tree, BitVector.from01("11110000"))


def test_report_counters_are_consistent():
    ds = _random_dataset(64, 16, seed=30)
    tree = preprocess(ds, "pm", desk_params(64, 16, 4), seed=5)
    tape = RandomTape(31, Stream.PUB)
    for _ in range(50):
        q = random_pattern_query(16, 4, tape)
        rep = query(tree, q)
        accepted_scans = rep.candidates_scanned - rep.candidates_rejected
        assert accepted_scans >= len(rep.matches)
        if rep.matches:
            assert rep.leaves_visited >= 1
        assert rep.bits_walked > 0 or rep.leaves_visited == 0


def test_empty_root_when_nothing_survives():
    # every point is over the sparsity budget: the whole tree prunes away
    ds = Dataset(6, (BitVector.from01("111111"), BitVector.from01("111110")))
    params = desk_params(2, 6, 2)
    tree = preprocess(ds, "sq", params, seed=1)
    assert tree.root is None
    assert query(tree, BitVector.from01("110000")).matches == frozenset()


def _all_kinds_tree():
    # A small iterative PM tree holding every node kind.
    tape = RandomTape(3, Stream.PUB)
    ds = Dataset(8, tuple(BitVector(8, tape.draw_bits(8) & tape.draw_bits(8)) for _ in range(2)))
    params = derive_params(8, 5, 0.25, 0.05, t_cap=2, base_factor=1.0)
    return preprocess(ds, "pm", params, seed=3, node_ceiling=1 << 16)


def test_round_trip_keeps_params():
    for tree in (
        preprocess(_random_dataset(48, 16, seed=22), "pm", desk_params(48, 16, 4), seed=5),
        _all_kinds_tree(),
    ):
        back = deserialize(serialize(tree), tree.dataset)
        assert back.meta.params == tree.meta.params
        assert serialize(back) == serialize(tree)


def test_serialize_refuses_params_it_cannot_store():
    ds = _random_dataset(10, 12, seed=13, sparse=True)
    params = derive_params(12, 8, 0.25, 0.05, t_cap=3, base_factor=1.0, h_override=1.0)
    tree = preprocess(ds, "sq", params, seed=4, node_ceiling=1 << 22)
    with pytest.raises(TreeError, match="h_override"):
        serialize(tree)


@pytest.mark.parametrize("at, layout, value, named", [
    (19, "<I", 5, "dimension"),  # the dataset dimension, 8 here
    (23, "<d", 0.5, "sparsity budget"),  # w
    (39, "<d", 0.0, "0 < delta"),  # delta
    (47, "<q", 0, "t_cap must be at least 1"),  # t_cap
])
def test_stored_params_no_build_accepts_raise_tree_error(at, layout, value, named):
    # Offsets count the magic, the header and the params before the field.
    tree = _all_kinds_tree()
    blob = serialize(tree)
    size = struct.calcsize(layout)
    bad = blob[:at] + struct.pack(layout, value) + blob[at + size :]
    with pytest.raises(TreeError, match=named):
        deserialize(bad, tree.dataset)


def test_truncated_or_padded_blob_raises_tree_error():
    tree = _all_kinds_tree()
    blob = serialize(tree)
    for cut in range(len(blob)):
        with pytest.raises(TreeError):
            deserialize(blob[:cut], tree.dataset)
    with pytest.raises(TreeError, match="bytes after the tree"):
        deserialize(blob + b"\x00", tree.dataset)
    # A cut inside the dataset fingerprint is reported as a short file.
    with pytest.raises(TreeError, match="fingerprint"):
        deserialize(blob[: blob.index(tree.meta.fingerprint) + 13], tree.dataset)


def test_leaf_id_outside_the_dataset_raises_tree_error():
    tree = _all_kinds_tree()
    leaf = tree.root
    while not isinstance(leaf, Leaf):
        leaf = next(iter(leaf.children.values())) if hasattr(leaf, "children") else leaf.child
    leaf.candidates = leaf.candidates[:-1] + (tree.dataset.n,)
    with pytest.raises(TreeError, match="not a point"):
        deserialize(serialize(tree), tree.dataset)


def _deferred_chain(levels):
    node = Leaf(())
    for _ in range(levels):
        node = MerlinDeferred("pm", 4.0, node)
    return node


def _nested_blob(tree, levels):
    """tree's header over a root of `levels` nested MerlinDeferred nodes and an
    empty leaf: the serialized MAX_TREE_DEPTH-deep chain, with the nodes past
    the bound spliced in."""
    deepest = ProtocolTree(_deferred_chain(MAX_TREE_DEPTH), tree.meta, tree.dataset)
    blob = serialize(deepest)
    return blob[:-15] + blob[-15:-5] * (levels - MAX_TREE_DEPTH + 1) + blob[-5:]


def test_nesting_past_the_depth_bound_raises_tree_error():
    tree = _all_kinds_tree()
    loaded = deserialize(_nested_blob(tree, MAX_TREE_DEPTH), tree.dataset)
    assert serialize(loaded) == _nested_blob(tree, MAX_TREE_DEPTH)
    for levels in (MAX_TREE_DEPTH + 1, 2000):
        with pytest.raises(TreeError, match="nest deeper"):
            deserialize(_nested_blob(tree, levels), tree.dataset)


def test_serialize_refuses_nesting_the_reader_refuses(tmp_path):
    tree = _all_kinds_tree()
    deepest = ProtocolTree(_deferred_chain(MAX_TREE_DEPTH), tree.meta, tree.dataset)
    assert deserialize(serialize(deepest), tree.dataset).root == deepest.root
    too_deep = ProtocolTree(_deferred_chain(MAX_TREE_DEPTH + 1), tree.meta, tree.dataset)
    with pytest.raises(TreeError, match="nest deeper"):
        serialize(too_deep)
    path = tmp_path / "deep.tree"
    with pytest.raises(TreeError, match="nest deeper"):
        save_tree(too_deep, path)
    assert not path.exists()


@pytest.mark.parametrize("site", ["base-parity-vecs", "pm-batch"])
def test_private_byte_that_disagrees_with_the_site_raises_tree_error(site):
    tree = _all_kinds_tree()
    stack = [tree.root]
    while not (isinstance(stack[-1], CarolNode) and stack[-1].site == site):
        stack.extend(_children(stack.pop()))
    carol = stack[-1]
    private = site == "base-parity-vecs"
    head = _NODE_HEADERS[_NODE_CAROL].pack(
        _NODE_CAROL, _SITE_CODE[site], carol.dim, len(carol.vectors), private
    )
    raw = b"".join(v.value.to_bytes((carol.dim + 7) // 8, "little") for v in carol.vectors)
    blob = serialize(tree)
    at = blob.index(head + raw) + len(head) - 1
    flipped = blob[:at] + bytes([not private]) + blob[at + 1 :]
    with pytest.raises(TreeError, match="private flag"):
        deserialize(flipped, tree.dataset)
    assert serialize(deserialize(blob, tree.dataset)) == blob


def _random_vectors(tape, count, d):
    return tuple(BitVector(d, tape.draw_bits(d)) for _ in range(count))


def test_gray_code_coset_is_the_brute_force_span():
    # The solve's rows span the columns, each row and kernel mask sums the
    # columns it names, and the coset of the rows is the brute-force span.
    tape = RandomTape(17, Stream.PUB)
    for _ in range(200):
        d = 1 + tape.draw_below(10)
        t = 1 + tape.draw_below(10)
        y = BitVector(d, tape.draw_bits(d))
        rs = _random_vectors(tape, t, d)
        cols = _parity_columns(rs, y.ones())
        offset, rows, kernel = _recon_solve("sq", y, rs)
        assert offset == 0 and len(rows) + len(kernel) == len(cols)
        for value, mask in rows + [(0, mask) for mask in kernel]:
            assert mask and value == functools.reduce(
                operator.xor, (c for j, c in enumerate(cols) if mask >> j & 1), 0
            )
        span = {0}
        for c in cols:
            span |= {v ^ c for v in span}
        offset = tape.draw_bits(t)
        values = list(_coset(offset, [row for row, _ in rows]))
        assert len(values) == 1 << len(rows) == len(span)
        assert set(values) == {offset ^ v for v in span}


def test_reachable_parities_are_those_of_every_decoded_payload():
    # Both walker paths, the lookup and the membership test, against the
    # parities of what each advice payload decodes to, sentinel included.
    tape = RandomTape(37, Stream.PUB)
    full_rank = capped = sentinels = 0
    for case in range(800):
        d = 2 + tape.draw_below(11)
        if case % 2:
            mode, y = "pm", random_pattern_query(d, tape.draw_below(d + 1), tape)
        else:
            mode, y = "sq", BitVector(d, tape.draw_bits(d))
        z = float(tape.draw_below(d + 1))
        rs = _random_vectors(tape, 1 + tape.draw_below(10), d)
        payloads = range(1 << advice_width(mode, y, z))
        reach = {parity_vector(decode(mode, y, p, math.floor(z)), rs) for p in payloads}
        full_rank += len(reach) == 1 << len(rs)
        _, rows, kernel = _recon_solve(mode, y, rs)
        capped += mode == "sq" and z < len(rows) and len(kernel) > 0
        sentinels += mode == "sq" and len(payloads) > subset_count(y.popcount(), math.floor(z))
        reachable = _recon_reachability(mode, y, z, rs)
        assert {a for a in range(1 << len(rs)) if reachable(a)} == reach
        values = _reachable_parities(mode, y, z, rs, 1 << len(rs))
        assert values is None or set(values) == reach
    assert full_rank > 20 and capped > 20 and sentinels > 20


def _capped_case(size: int):
    tape = RandomTape(29, Stream.PUB)
    y = BitVector.from_ones(32, distinct_positions(tape, 32, size))
    return y, _random_vectors(tape, 14, 32)


def test_capped_reachability_is_exact_past_the_enumeration_limit():
    # The parities of at most 4 of 20 columns, grown breadth-first, number
    # 5 074 here, more than _SUBSET_ENUM_LIMIT; the kernel search over 2^6
    # combinations still decides each bucket exactly. Ranks past the subset
    # count decode to the sentinel, whose parity is reached as well.
    y, rs = _capped_case(20)
    cols = _parity_columns(rs, y.ones())
    parities, frontier = {0}, {0}
    for _ in range(4):
        frontier = {v ^ c for v in frontier for c in cols} - parities
        parities |= frontier
    assert len(parities) == 5074 > _SUBSET_ENUM_LIMIT
    assert (1 << advice_width("sq", y, 4.0)) > subset_count(20, 4)
    parities.add(parity_vector(decode_failed_sentinel(32), rs))
    _, rows, kernel = _recon_solve("sq", y, rs)
    assert (len(rows), len(kernel)) == (14, 6)
    reachable = _recon_reachability("sq", y, 4.0, rs)
    assert {a for a in range(1 << 14) if reachable(a)} == parities
    assert len(parities) == 5075


def test_reachability_accepts_every_bucket_past_the_kernel_guard():
    y, rs = _capped_case(30)
    _, rows, kernel = _recon_solve("sq", y, rs)
    assert 10 < len(rows) and 1 << len(kernel) > _SUBSET_ENUM_LIMIT
    reachable = _recon_reachability("sq", y, 10.0, rs)
    assert all(reachable(a) for a in range(1 << 14))


def _assert_rank_parities_decode(rs, bases, zmax):
    """_rank_parities against one decode and one parity per (base, rank);
    returns how many ranks lay past their base's subset count."""
    tables = _rank_parities(rs, _parity_columns(rs, range(bases[0].dim)), bases, zmax)
    counts = [subset_count(base.popcount(), zmax) for base in bases]
    assert [len(table) for table in tables] == [max(counts)] * len(bases)
    for base, table in zip(bases, tables):
        assert table == [parity_vector(decode("sq", base, m, zmax), rs) for m in range(len(table))]
    return sum(max(counts) - count for count in counts)


def test_rank_parities_equal_the_parities_of_the_decoded_subsets():
    tape = RandomTape(41, Stream.PUB)
    past = 0
    for _ in range(150):
        d = 1 + tape.draw_below(12)
        rs = _random_vectors(tape, 1 + tape.draw_below(8), d)
        bases = [
            BitVector.from_ones(d, distinct_positions(tape, d, tape.draw_below(d + 1)))
            for _ in range(1 + tape.draw_below(4))
        ]
        most = max(base.popcount() for base in bases)
        for zmax in {0, tape.draw_below(most + 1), most, most + 2}:
            past += _assert_rank_parities_decode(rs, bases, zmax)
    assert past > 1000
    # The empty base: the empty subset at rank 0, the sentinel past it.
    rs = _random_vectors(tape, 5, 9)
    base = BitVector(9, 0)
    assert _assert_rank_parities_decode(rs, [base], 3) == 0
    assert _assert_rank_parities_decode(rs, [base, BitVector(9, 0b1011)], 2) == 6
    cols = _parity_columns(rs, range(9))
    assert _rank_parities(rs, cols, [base, BitVector(9, 0b1011)], 2)[0][1:] == [
        parity_vector(decode_failed_sentinel(9), rs)
    ] * 6


def test_byte_table_parities_equal_parity_vector():
    tape = RandomTape(43, Stream.PUB)
    for d in (1, 7, 8, 9, 11, 63, 64, 65, 130):
        full = (1 << d) - 1
        for t in (0, 1, 3, 10, 20):
            rs = _random_vectors(tape, t, d)
            values = [0, full] + [tape.draw_bits(d) for _ in range(50)]
            keys = list(_byte_parities(_parity_columns(rs, range(d)), values))
            assert keys == [parity_vector(BitVector(d, v), rs) for v in values]
    assert list(_byte_parities(_parity_columns(rs, range(d)), [])) == []


def _pm_loop_tree():
    # The PM forced-loop tree of the pinned digests.
    ds = _random_dataset(10, 10, seed=11, sparse=True)
    params = derive_params(10, 6, 0.25, 0.05, t_cap=3, base_factor=1.0)
    return preprocess(ds, "pm", params, seed=33, node_ceiling=1 << 22)


def test_pm_loop_build_decodes_no_advice_value(monkeypatch):
    # The swapped stage reads each advice value's parities from per-rank
    # tables; a decode per (point, advice value) must not come back.
    calls = []
    monkeypatch.setattr(compiler.bp, "decode", lambda *a: calls.append(a) or decode(*a))
    tree = _pm_loop_tree()
    assert any(isinstance(node, MerlinExplicit) for node in _nodes(tree.root))
    assert calls == []


def test_desk_base_case_build_makes_no_parity_vector_call(monkeypatch):
    # The unswapped stage groups points through byte tables; a parity_vector
    # call per point must not come back.
    ds = _random_dataset(4096, 64, seed=13)
    params = desk_params(4096, 64, 4)
    assert params.is_base_case()
    calls = []

    def counted(*args):
        calls.append(args)
        return parity_vector(*args)

    monkeypatch.setattr(compiler.bp, "parity_vector", counted)
    tree = preprocess(ds, "pm", params, seed=3)
    assert tree.meta.leaf_count > 1
    assert calls == []


def test_pm_loop_build_forks_no_leaf_context(monkeypatch):
    # _leaf_maker draws nothing, so a parity group's leaf gets its context
    # unforked; two tape clones per leaf must not come back.
    clones = []
    original = compiler.Tapes.clone
    monkeypatch.setattr(compiler.Tapes, "clone", lambda self: clones.append(1) or original(self))
    tree = _pm_loop_tree()
    assert len(clones) < tree.meta.leaf_count


def _nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if hasattr(node, "children"):
            stack.extend(node.children.values())
        elif hasattr(node, "child"):
            stack.append(node.child)


def test_loaded_tree_keeps_the_builders_vector_sharing():
    built = _pm_loop_tree()
    loaded = deserialize(serialize(built), built.dataset)
    explicit = [node for node in _nodes(loaded.root) if isinstance(node, MerlinExplicit)]
    assert explicit
    for node in explicit:
        assert len({id(carol.vectors) for carol in node.children.values()}) == 1

    def runs(tree):
        return len({id(n.vectors) for n in _nodes(tree.root) if isinstance(n, CarolNode)})

    assert runs(loaded) <= runs(built)


def test_stage_indexes_keep_reports_bytes_and_equality(monkeypatch):
    # The walker indexes each swapped stage at its first visit. The digest
    # queries report alike on the built tree, on a fresh load, and on that load
    # with its indexes warm; the index is never compared or written.
    built, queries = PINNED["pm-loop"][0]()
    blob = serialize(built)
    loaded = deserialize(blob, built.dataset)
    builds = []
    original = compiler._stage_index
    monkeypatch.setattr(compiler, "_stage_index", lambda node: builds.append(1) or original(node))
    reports = [query(built, q) for q in queries]
    assert [query(loaded, q) for q in queries] == reports
    cold = len(builds)
    assert [query(loaded, q) for q in queries] == reports
    assert len(builds) == cold
    stages = [node for node in _nodes(loaded.root) if isinstance(node, MerlinExplicit)]
    assert any(node.index is not None for node in stages)
    assert serialize(built) == blob and serialize(loaded) == blob
    assert built.root == loaded.root == deserialize(blob, built.dataset).root


def test_a_malformed_swapped_stage_raises_at_every_query_that_reaches_it(monkeypatch):
    # A stage child that is a Leaf fails its index build, which stores no
    # index, so the next query that reaches the stage raises as well.
    built, queries = PINNED["pm-loop"][0]()
    blob = serialize(built)
    intact = deserialize(blob, built.dataset)
    bad = deserialize(blob, built.dataset)
    # The same stage in both loads, by walk order: of the stages some but not
    # all queries reach, the one most reach.
    intact_stages, bad_stages = (
        [node for node in _nodes(tree.root) if isinstance(node, MerlinExplicit)]
        for tree in (intact, bad)
    )
    original, visits = compiler._walk_base, []

    def recorded(walk, node, *args):
        visits[-1].add(id(node))
        return original(walk, node, *args)

    monkeypatch.setattr(compiler, "_walk_base", recorded)
    for q in queries:
        visits.append(set())
        query(intact, q)
    monkeypatch.undo()
    reach = [sum(id(node) in ids for ids in visits) for node in intact_stages]
    _, at = max((count, i) for i, count in enumerate(reach) if 0 < count < len(queries))
    intact_stage, stage = intact_stages[at], bad_stages[at]
    stage.children[next(iter(stage.children))] = Leaf((0,))
    for q, ids in zip(queries, visits):
        if id(intact_stage) in ids:
            for _ in range(2):
                with pytest.raises(TreeError, match="expected stored parity vectors"):
                    query(bad, q)
            assert stage.index is None
        else:
            assert query(bad, q) == query(intact, q)


def test_sq_queries_past_the_enumeration_guard_are_exact():
    # A 24-bit query on the iterative path makes the small stage's bounded-weight
    # advice count exceed the builder's enumeration guard. The walker's XOR
    # closure is bounded by 2^t instead (256 values here), and the answers are exact.
    d = 40
    ds = _random_dataset(40, d, seed=1, sparse=True)
    params = derive_params(d, 24, 0.25, 0.05, t_cap=2, base_factor=1.0)
    tree = deserialize(serialize(preprocess(ds, "sq", params, seed=1)), ds)
    tape = RandomTape(2, Stream.PUB)
    for _ in range(30):
        y = BitVector.from_ones(d, distinct_positions(tape, d, 24))
        assert query(tree, y).matches == frozenset(brute_force_sq(ds, y))


@functools.cache
def _fuzz_case(name):
    """The bytes of a valid tree, its dataset and 20 queries within its budget."""
    if name == "pm-loop":
        tree = _pm_loop_tree()
        ds = tree.dataset
    elif name == "sharing":
        tree = _sharing_tree()
        ds = tree.dataset
    else:
        ds = _random_dataset(64, 16, seed=21)
        tree = preprocess(ds, "pm", desk_params(64, 16, 4), seed=5)
    tape = RandomTape(7, Stream.PUB)
    queries = [random_pattern_query(ds.dim, int(tree.meta.params.w), tape) for _ in range(20)]
    return serialize(tree), ds, queries


@pytest.mark.parametrize("name", ["pm-loop", "pm-base", "sharing"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_tree_file_loads_or_raises_tree_error(name, data):
    blob, ds, queries = _fuzz_case(name)
    mutated = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        mutated[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    try:
        tree = deserialize(bytes(mutated), ds)
    except TreeError:
        return
    for q in queries:
        # Format v1 has no checksum, so a flipped byte of w loads as a smaller
        # budget; query then refuses the queries above it.
        if q.star_count() > tree.meta.params.w:
            with pytest.raises(ValueError, match="budget"):
                query(tree, q)
            continue
        try:
            query(tree, q)
        except TreeError:
            pass


# A forced-loop PM tree whose swapped stages hold advice values that give every
# point the same parity, so their sub-trees are built, written and loaded once.
SHARING_SHA256 = "9caaba021082b2a8889337898739a9861bb6836f73371e726976807205b4465b"


def _sharing_tree(node_ceiling=compiler.DEFAULT_NODE_CEILING):
    ds = _random_dataset(24, 10, seed=2)
    params = derive_params(10, 6, 0.25, 0.05, t_cap=3, base_factor=1.0)
    return preprocess(ds, "pm", params, seed=2, node_ceiling=node_ceiling)


def _distinct_nodes(root) -> int:
    return len({id(node) for node in _nodes(root)})


def test_repeated_advice_sub_trees_are_built_written_and_loaded_once(monkeypatch):
    original, calls = compiler._build_parities, []
    monkeypatch.setattr(
        compiler, "_build_parities", lambda *args: calls.append(1) or original(*args)
    )
    built = _sharing_tree()
    blob = serialize(built)
    assert hashlib.sha256(blob).hexdigest() == SHARING_SHA256
    loaded = deserialize(blob, built.dataset)
    assert serialize(loaded) == blob
    for tree in (built, loaded):
        assert _distinct_nodes(tree.root) < tree.meta.node_count
    advice_values = sum(
        len(node.children) for node in _nodes(built.root) if isinstance(node, MerlinExplicit)
    )
    assert len(calls) < advice_values
    tape = RandomTape(3, Stream.PUB)
    for i in range(100):
        q = _planted_or_random(built.dataset, 6, tape, i)
        report = query(built, q)
        assert report == query(loaded, q)
        assert report.matches == frozenset(brute_force_pm(built.dataset, q))


def _written_spans(tree):
    """serialize(tree), and (node, start, end) in those bytes for each node the
    writer writes node by node; a repeated sibling's copy is not among them."""
    spans = []
    original = compiler._write_node

    def recorded(buf, node, *args):
        start = buf.tell()
        original(buf, node, *args)
        spans.append((node, start, buf.tell()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiler, "_write_node", recorded)
        blob = serialize(tree)
    base = len(blob) - spans[-1][2]  # the root is written last, at the end
    return blob, [(node, base + start, base + end) for node, start, end in spans]


def _repeated_copies(tree):
    """serialize(tree), and (stage, key, first key, start, size) for each child
    of a swapped stage that is the same object as an earlier sibling, where
    start is the offset of its copy in those bytes."""
    blob, spans = _written_spans(tree)
    written = {id(node): (start, end) for node, start, end in spans}
    copies = []
    for node, start, _ in spans:
        if not isinstance(node, MerlinExplicit):
            continue
        pos = start + _NODE_HEADERS[_NODE_MERLIN_EXPLICIT].size
        first = {}
        for key, child in sorted(node.children.items()):
            pos += compiler._COUNT.size + (key[0] + 7) // 8
            child_start, child_end = written[id(child)]
            if id(child) in first:
                copies.append((node, key, first[id(child)], pos, child_end - child_start))
            first.setdefault(id(child), key)
            pos += child_end - child_start
    assert copies
    return blob, copies


def test_repeated_advice_sub_trees_are_matched_by_their_bytes_not_parsed(monkeypatch):
    tree = _sharing_tree()
    blob = serialize(tree)
    original, calls = compiler._Reader.node, []
    monkeypatch.setattr(
        compiler._Reader, "node", lambda self, *args: calls.append(1) or original(self, *args)
    )
    loaded = deserialize(blob, tree.dataset)
    # Equal children of different stages are shared too, so the loaded tree
    # has fewer distinct nodes than the built one.
    assert len(calls) == _distinct_nodes(loaded.root) < _distinct_nodes(tree.root)
    assert serialize(loaded) == blob


def test_equal_children_of_two_stages_are_shared_only_at_one_depth(monkeypatch):
    tree = _all_kinds_tree()

    def blob(levels):
        """An Alice root over two swapped stages, the second under `levels`
        MerlinDeferred nodes. Both hold a chain of 8 MerlinDeferred nodes; the
        second holds first a leaf of the same size, so that the chain is
        looked up at its size."""
        stage = MerlinExplicit("pm", 4.0, 4.0, {(1, 0): _deferred_chain(8)})
        deep = MerlinExplicit("pm", 4.0, 4.0, {(1, 0): Leaf((0,) * 20), (1, 1): _deferred_chain(8)})
        for _ in range(levels):
            deep = MerlinDeferred("pm", 4.0, deep)
        root = AliceNode("base-point-parities", {(1, 0): stage, (1, 1): deep})
        with monkeypatch.context() as m:
            m.setattr(compiler, "MAX_TREE_DEPTH", MAX_TREE_DEPTH + 1)
            return serialize(ProtocolTree(root, tree.meta, tree.dataset))

    def stage_children(levels):
        root = deserialize(blob(levels), tree.dataset).root
        deep = root.children[(1, 1)]
        for _ in range(levels):
            deep = deep.child
        return root.children[(1, 0)].children[(1, 0)], deep.children[(1, 1)]

    first, second = stage_children(0)
    assert first is second
    # The second child's leaf sits at depth MAX_TREE_DEPTH, then one deeper.
    first, second = stage_children(MAX_TREE_DEPTH - 10)
    assert first == second and first is not second
    with pytest.raises(TreeError, match="nest deeper"):
        deserialize(blob(MAX_TREE_DEPTH - 9), tree.dataset)


def test_a_changed_leaf_id_in_a_repeated_copy_is_parsed_as_its_own_sub_tree():
    tree = _sharing_tree()
    loaded = deserialize(serialize(tree), tree.dataset)
    blob, copies = _repeated_copies(loaded)
    stage, key, first_key, start, size = copies[0]
    first = stage.children[first_key]
    leaves = [node for node in _nodes(first) if isinstance(node, Leaf) and node.candidates]
    _, spans = _written_spans(loaded)
    leaf_start = next(s for node, s, _ in spans if node is leaves[0])
    first_start = next(s for node, s, _ in spans if node is first)
    at = start + leaf_start - first_start + _NODE_HEADERS[compiler._NODE_LEAF].size
    (old,) = struct.unpack_from("<I", blob, at)
    assert old == leaves[0].candidates[0]
    new = next(i for i in range(tree.dataset.n) if i not in leaves[0].candidates)
    mutated = bytearray(blob)
    struct.pack_into("<I", mutated, at, new)
    changed = deserialize(bytes(mutated), tree.dataset)
    index = next(k for k, node in enumerate(_nodes(loaded.root)) if node is stage)
    changed_stage = list(_nodes(changed.root))[index]
    copy, kept = changed_stage.children[key], changed_stage.children[first_key]
    assert copy is not kept

    def ids(root):
        return [node.candidates for node in _nodes(root) if isinstance(node, Leaf)]

    assert new in {i for cands in ids(copy) for i in cands}
    assert ids(kept) == ids(first)
    assert serialize(changed) == bytes(mutated)


def test_a_cut_inside_the_last_repeated_copy_raises_tree_error():
    tree = _sharing_tree()
    blob, copies = _repeated_copies(tree)
    *_, start, size = copies[-1]
    for cut in (start + 1, start + size // 2, start + size - 1):
        with pytest.raises(TreeError, match="truncated"):
            deserialize(blob[:cut], tree.dataset)


def test_a_repeated_message_key_raises_tree_error():
    # With the first key of this desk tree's Alice node copied over the second,
    # the file used to load with one child fewer and answer queries wrongly.
    ds = _random_dataset(64, 16, seed=21)
    tree = preprocess(ds, "pm", desk_params(64, 16, 4), seed=5)
    blob, spans = _written_spans(tree)
    node, start, _ = next(span for span in spans if isinstance(span[0], AliceNode))
    (first_key, first), (second_key, _) = sorted(node.children.items())[:2]
    assert first_key[0] == second_key[0]
    key_size = compiler._COUNT.size + (first_key[0] + 7) // 8
    key_at = start + _NODE_HEADERS[compiler._NODE_ALICE].size
    second_at = next(end for child, _, end in spans if child is first)
    mutated = bytearray(blob)
    mutated[second_at : second_at + key_size] = blob[key_at : key_at + key_size]
    assert mutated != blob
    with pytest.raises(TreeError, match="repeats a message key"):
        deserialize(bytes(mutated), ds)


def test_repeated_sub_trees_hit_the_node_ceiling_where_counting_each_node_does():
    node_count = _sharing_tree().meta.node_count
    via_repeat = 0
    for ceiling in [*range(100, node_count, 733), node_count - 1]:
        with pytest.raises(TreeSizeError) as exc:
            _sharing_tree(node_ceiling=ceiling)
        assert (exc.value.node_count, exc.value.ceiling) == (ceiling + 1, ceiling)
        via_repeat += exc.traceback[-1].name == "repeat"
    assert via_repeat > 0
    assert _sharing_tree(node_ceiling=node_count).meta.node_count == node_count


def test_every_leaf_lists_ascending_ids():
    trees = [make()[0] for make, _, _ in PINNED.values()] + [_sharing_tree()]
    leaves = [node for tree in trees for node in _nodes(tree.root) if isinstance(node, Leaf)]
    assert leaves
    for leaf in leaves:
        assert all(a < b for a, b in zip(leaf.candidates, leaf.candidates[1:]))


@pytest.mark.parametrize("enabled", [True, False])
def test_build_and_load_restore_the_collector_setting(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        tree = _all_kinds_tree()
        assert gc.isenabled() == enabled
        blob = serialize(tree)
        deserialize(blob, tree.dataset)
        assert gc.isenabled() == enabled
        with pytest.raises(TreeSizeError):
            preprocess(tree.dataset, "pm", tree.meta.params, seed=3, node_ceiling=2)
        assert gc.isenabled() == enabled
        with pytest.raises(TreeError):
            deserialize(blob[:-1], tree.dataset)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
