"""Compile a protocol over a concrete dataset into a static search tree.

The build simulates the protocol once per dataset point against an enumerated
query side and fixed randomness tapes: point-side messages become nodes keyed
by the realized values, query-side messages fork over their whole (public)
alphabet, channel randomness is drawn once per position and stored, and every
accepting path stores the point indices whose messages are consistent with it.
Branches that no point survives are pruned; they could never contribute a
candidate.

Prover messages whose decoding happens on the query side (star fills, subset
ranks) are kept as a single deferred edge: the advice value never influences
the stored structure, only the query's own reconstruction. At query time one
GF(2) elimination of the free coordinates' parity columns (_recon_solve)
decides which reconstruction parities some advice value reaches. When every
payload is free and no more parities can be reached than are stored, the
walker enumerates them, a coset in Gray-code order. Otherwise it tests each
stored bucket; where the SQ subset cap binds, that test also searches the
elimination's kernel for a solution of at most zmax columns. Advice decoded on
the point side (the swapped wiring) is enumerated explicitly per point, which
keys those nodes by advice value as usual.

Queries walk the tree: point-side nodes descend every child, query-side nodes
descend the one child matching the honestly computed message, stored channel
data is read back, and candidates from visited accepting leaves pass through
the exact match predicate before being reported.

In memory, the advice values of one swapped stage that give every point the
same parity share one sub-tree object, in the built tree and in the loaded
one; the file keeps one copy of it per occurrence, and the counts in TreeMeta
count every occurrence. The builder finds that sharing by parity tuple. The
reader finds it by matching a child's bytes against the swapped-stage
children it has read at the same depth, so it also shares equal children of
different stages, and does not parse a child it matches. Nodes are therefore
never mutated once built, with one exception: the walker fills a swapped
stage's index field (MerlinExplicit.index) the first time a query reaches the
stage. The index is a pure function of the node, so sharing keeps it valid;
it is neither compared nor written.
"""

from __future__ import annotations

import gc
import io
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import combinations, repeat
from operator import sub, xor

from . import base_protocol as bp
from .bits import BitVector, Dataset, TernaryPattern, match_pm, subset_of
from .dist import EmpiricalDistribution
from .engine import (
    BIG,
    CONTINUE,
    SMALL,
    STATUS_WIDTH,
    ParamError,
    ProtocolParams,
    Tapes,
    index_width,
)
from .pm_protocol import (
    near_match_index,
    pm_gap,
    pm_halving_count,
    pm_round_samples,
    shift_params,
    shifted_pattern,
)
from .sq_protocol import (
    draw_conditioned_batch,
    halved_params,
    halving_count,
    near_subset_index,
    overflow_key,
    pick_half,
    sq_small_size,
)

PM_PROTOCOL = "pm"
SQ_PROTOCOL = "sq"

MAGIC = b"PMTREE01"
FORMAT_VERSION = 1

DEFAULT_NODE_CEILING = 1 << 26

_SUBSET_ENUM_LIMIT = 4096


class TreeError(Exception):
    pass


class TreeSizeError(TreeError):
    """Projected tree size exceeded the configured ceiling."""

    def __init__(self, node_count: int, ceiling: int):
        super().__init__(
            f"aborting build: {node_count} nodes exceeds the ceiling {ceiling}; "
            "shrink t via t_cap, raise delta, or raise node_ceiling"
        )
        self.node_count = node_count
        self.ceiling = ceiling


@dataclass(slots=True)
class AliceNode:
    site: str
    children: dict[tuple[int, int], object]


@dataclass(slots=True)
class BobNode:
    site: str
    children: dict[tuple[int, int], object]


@dataclass(slots=True)
class MerlinDeferred:
    """Advice edge whose value only the query side decodes."""

    mode: str
    z: float
    child: object


@dataclass(slots=True)
class MerlinExplicit:
    """Advice edge decoded against per-point data; children keyed by value.
    index is the walker's, built at the first query that reaches the edge."""

    mode: str
    z: float
    cap: float
    children: dict[tuple[int, int], object]
    index: list | None = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class CarolNode:
    site: str
    dim: int
    vectors: tuple[BitVector, ...]
    child: object


@dataclass(slots=True)
class Leaf:
    candidates: tuple[int, ...]


@dataclass(frozen=True)
class QueryReport:
    matches: frozenset[int]
    leaves_visited: int
    candidates_scanned: int
    candidates_rejected: int
    bits_walked: int


@dataclass
class TreeMeta:
    protocol: str
    seed: int
    params: ProtocolParams
    fingerprint: bytes
    node_count: int
    leaf_count: int
    candidate_total: int


@dataclass
class ProtocolTree:
    root: object
    meta: TreeMeta
    dataset: Dataset


class _Budget:
    def __init__(self, ceiling: int):
        self.ceiling = ceiling
        self.nodes = 0
        self.leaves = 0
        self.candidates = 0

    def note(self) -> None:
        self.nodes += 1
        if self.nodes > self.ceiling:
            raise TreeSizeError(self.nodes, self.ceiling)

    def note_leaf(self, n_candidates: int) -> None:
        self.note()
        self.leaves += 1
        self.candidates += n_candidates

    def counts(self) -> tuple[int, int, int]:
        return self.nodes, self.leaves, self.candidates

    def repeat(self, nodes: int, leaves: int, candidates: int) -> None:
        """Count a sub-tree again, all at once; over the ceiling, raise what
        counting its nodes one at a time would."""
        if self.nodes + nodes > self.ceiling:
            raise TreeSizeError(self.ceiling + 1, self.ceiling)
        self.nodes += nodes
        self.leaves += leaves
        self.candidates += candidates


@dataclass
class _Ctx:
    dist: EmpiricalDistribution
    tapes: Tapes
    budget: _Budget

    def fork(self, dist=None) -> "_Ctx":
        """A context for a sub-tree, on its own copy of the tapes."""
        return _Ctx(dist if dist is not None else self.dist, self.tapes.clone(), self.budget)


# (point id, point-side data) pairs. Every cohort keeps ascending id order:
# the root enumerates the dataset, and each step filters or groups in order.
Cohort = list[tuple[int, BitVector]]


@contextmanager
def _collector_paused():
    """The cyclic garbage collector off while a tree is built or read: the
    tree holds no cycles, so the collector would only rescan it. It is
    switched back on afterwards only if it was on before."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def preprocess(
    dataset: Dataset,
    protocol: str,
    params: ProtocolParams,
    seed: int,
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> ProtocolTree:
    """Materialize the tree for the given protocol over the dataset."""
    if dataset.n == 0:
        raise ValueError("dataset must be nonempty")
    if protocol not in (PM_PROTOCOL, SQ_PROTOCOL):
        raise ValueError(f"unknown protocol {protocol!r}")
    dist = EmpiricalDistribution(dataset)
    budget = _Budget(node_ceiling)
    ctx = _Ctx(dist, Tapes.from_seed(seed), budget)
    cohort: Cohort = list(enumerate(dataset.points))
    build = _build_pm if protocol == PM_PROTOCOL else _build_sq
    with _collector_paused():
        root = build(ctx, params, cohort, _leaf_maker)
    meta = TreeMeta(
        protocol=protocol,
        seed=seed,
        params=params,
        fingerprint=dataset.fingerprint(),
        node_count=budget.nodes,
        leaf_count=budget.leaves,
        candidate_total=budget.candidates,
    )
    return ProtocolTree(root, meta, dataset)


def _leaf_maker(ctx: _Ctx, cohort: Cohort):
    if not cohort:
        return None
    ids = tuple([i for i, _ in cohort])
    ctx.budget.note_leaf(len(ids))
    return Leaf(ids)


# ---------------------------------------------------------------------------
# Build side
# ---------------------------------------------------------------------------


def _emit(ctx: _Ctx, cls, *parts):
    """cls(*parts), counted; None when the last part, the child or the
    children, is empty: no branch survived."""
    if not parts[-1]:
        return None
    ctx.budget.note()
    return cls(*parts)


def _build_base(
    ctx: _Ctx,
    mode: str,
    cohort: Cohort,
    z: float,
    w: float,
    delta: float,
    cont,
    swapped: bool = False,
):
    """Parity-check stage. cohort carries the point-side data (the value each
    point compares, or in swapped wiring the data the advice decodes against).

    parity_vector is GF(2)-linear in its vector, so a vector's parities are the
    XOR of its coordinates' parity columns. Both wirings read the stage's
    column list, computed once. The unswapped wiring groups each point by its
    parities, read through one table per byte of the point (_byte_parities).
    The swapped wiring groups each advice value's cohort by the parity of the
    subset that value decodes to: _rank_parities tabulates it per point and
    rank once per stage, with no decode per value. Two values that give every
    point the same parity group it alike; when the leaves follow, which draw
    no tape, they get the same sub-tree, built once and counted per value.
    """
    if not cohort:
        return None
    if z > w:
        return None  # unconditional reject, nothing to store
    d = cohort[0][1].dim
    rs = bp.draw_parity_vectors(ctx.tapes.pri, d, bp.base_t(delta))
    cols = _parity_columns(rs, range(d))

    if not swapped:
        groups: dict[int, Cohort] = {}
        for point, a in zip(cohort, _byte_parities(cols, [x.value for _, x in cohort])):
            groups.setdefault(a, []).append(point)
        carol = _build_parities(ctx, d, rs, groups, AliceNode, BobNode, cont)
        return _emit(ctx, MerlinDeferred, mode, z, carol)

    # Swapped wiring: enumerate every advice value some point could make true,
    # i.e. the ranks of all small subsets of each point's decode base.
    zmax = math.floor(z)
    cap = math.floor(w)
    width = bp.sq_advice_width(cap, zmax)
    for _, recon_base in cohort:
        count = bp.subset_count(recon_base.popcount(), zmax)
        if count > _SUBSET_ENUM_LIMIT:
            raise TreeSizeError(ctx.budget.nodes + count, ctx.budget.ceiling)
    tables = _rank_parities(rs, cols, [recon_base for _, recon_base in cohort], zmax)
    merlin_children: dict[tuple[int, int], object] = {}
    built: dict[tuple[int, ...], tuple] = {}
    budget = ctx.budget
    for m, parities in enumerate(zip(*tables)):
        hit = built.get(parities)
        if hit is not None:
            carol, *counts = hit
            budget.repeat(*counts)
        else:
            before = budget.counts()
            groups = {}
            for point, b in zip(cohort, parities):
                groups.setdefault(b, []).append(point)
            carol = _build_parities(ctx, d, rs, groups, BobNode, AliceNode, cont)
            if cont is _leaf_maker:
                built[parities] = (carol, *map(sub, budget.counts(), before))
        if carol is not None:
            merlin_children[(width, m)] = carol
    return _emit(ctx, MerlinExplicit, bp.SQ, z, w, merlin_children)


def _byte_parities(cols: list[int], values: list[int]):
    """parity_vector of each value, given the parity columns of all its
    coordinates: the XOR of one table entry per byte (the Method of Four
    Russians). Table k holds the XOR of every subset of columns 8k..8k+7,
    indexed by the byte's bits. The values are packed into one buffer, and
    the keys come lazily from one pass over it per byte position."""
    tables = []
    for k in range(0, len(cols), 8):
        table = [0]
        for c in cols[k : k + 8]:
            table += [v ^ c for v in table]
        tables.append(table)
    nbytes = len(tables)
    packed = bytearray()
    for value in values:
        packed += value.to_bytes(nbytes, "little")
    keys = repeat(0, len(values))
    for k, table in enumerate(tables):
        keys = map(xor, keys, map(table.__getitem__, memoryview(packed)[k::nbytes]))
    return keys


def _rank_parities(rs, cols: list[int], bases: list[BitVector], zmax: int) -> list[list[int]]:
    """Per base, parity_vector(decode(SQ, base, m, zmax), rs) at every rank m
    below the largest subset count among the bases, from the stage's parity
    columns cols. Ranks run as unrank_subset orders them: size 0 first, then
    each size in lexicographic order, as combinations yields them. Past a
    base's own count a rank decodes to the sentinel, whose parity is computed
    once."""
    tables = []
    for base in bases:
        base_cols = [cols[j] for j in base.ones()]
        table: list[int] = []
        for k in range(min(zmax, len(base_cols)) + 1):
            table.extend(reduce(xor, subset, 0) for subset in combinations(base_cols, k))
        tables.append(table)
    ranks = max(map(len, tables))
    sentinel = bp.parity_vector(bp.decode_failed_sentinel(bases[0].dim), rs)
    return [table + [sentinel] * (ranks - len(table)) for table in tables]


def _build_parities(ctx: _Ctx, d: int, rs, groups: dict[int, Cohort], point_cls, recon_cls, cont):
    """The stored parity vectors rs, then the point side's parities: per value,
    the equal reconstruction parities and the sub-tree of its group. A leaf
    draws nothing, so it gets the context unforked."""
    t = len(rs)
    children: dict[tuple[int, int], object] = {}
    for a in sorted(groups):
        leaf = cont(ctx if cont is _leaf_maker else ctx.fork(), groups[a])
        if leaf is not None:
            recon = {(t, a): leaf}
            children[(t, a)] = _emit(ctx, recon_cls, "base-recon-parities", recon)
    point = _emit(ctx, point_cls, "base-point-parities", children)
    return _emit(ctx, CarolNode, "base-parity-vecs", d, rs, point)


def _build_sq(ctx: _Ctx, params: ProtocolParams, cohort: Cohort, cont):
    return _build_sq_iter(ctx, params, cohort, float(params.w), 0, cont)


def _build_sq_iter(
    ctx: _Ctx, params: ProtocolParams, cohort: Cohort, w_cur: float, iteration: int, cont
):
    if not cohort:
        return None
    if iteration >= params.max_iters:
        return None  # unreachable with faithful parameters
    small_size = sq_small_size(params)

    small = [(i, x) for i, x in cohort if x.popcount() <= small_size]
    window = [(i, x) for i, x in cohort if small_size < x.popcount() <= w_cur]

    children: dict[tuple[int, int], object] = {}

    sub = _build_base(ctx.fork(), bp.SQ, small, small_size, params.w, params.delta_prime, cont)
    if sub is not None:
        children[(STATUS_WIDTH, SMALL)] = sub

    if window:
        big_ctx = ctx.fork()
        batch = draw_conditioned_batch(big_ctx.dist, small_size, w_cur, params.t, big_ctx.tapes.pub)

        def overlaps():
            # Query found a near-subset sample: every (index, overflow rank).
            h = params.h
            for istar, xi in enumerate(batch):
                count = bp.subset_count(xi.popcount(), math.floor(h))
                for rank in range(count):
                    overflow = bp.unrank_subset(xi, rank, math.floor(h))
                    survivors = [(i, x) for i, x in window if not x.intersects(overflow)]
                    if not survivors:
                        continue
                    shed = xi.popcount() - overflow.popcount()
                    keep = xi.complement()
                    sub_ctx = big_ctx.fork(big_ctx.dist.restrict_dist(keep))
                    shrunk = [(i, x.restrict(keep)) for i, x in survivors]
                    sub = _build_sq_iter(sub_ctx, params, shrunk, w_cur - shed, iteration + 1, cont)
                    yield overflow_key(istar, params.t, xi, rank, h), sub

        def halving():
            n_halving = halving_count(params.ell, params.delta_prime)
            return _build_halving(
                big_ctx, params, window, w_cur, n_halving, SQ_PROTOCOL, _build_sq, cont
            )

        if batch is not None:
            carol = _build_near_step(big_ctx, SQ_PROTOCOL, batch, overlaps(), halving)
            if carol is not None:
                children[(STATUS_WIDTH, BIG)] = carol

    return _emit(ctx, AliceNode, "sq-status", children)


def _build_near_step(ctx: _Ctx, protocol: str, batch, found, none):
    """The near-sample step over a drawn batch: the stored batch, the query's
    announcement, one point-side gate per (key, sub-tree) pair that found
    yields under the sample index, and the halving step none() under "no near
    sample"."""
    batch_site, tag_site, index_site, gate_site = _NEAR_SITES[protocol]
    gates: dict[tuple[int, int], object] = {}
    for key, sub in found:
        if sub is not None:
            gate = {(STATUS_WIDTH, CONTINUE): sub}
            gates[key] = _emit(ctx, AliceNode, gate_site, gate)
    tag_children: dict[tuple[int, int], object] = {}
    index = _emit(ctx, BobNode, index_site, gates)
    if index is not None:
        tag_children[(STATUS_WIDTH, CONTINUE)] = index
    halving = none()
    if halving is not None:
        tag_children[(STATUS_WIDTH, BIG)] = halving
    tag = _emit(ctx, BobNode, tag_site, tag_children)
    return _emit(ctx, CarolNode, batch_site, ctx.dist.dim, tuple(batch), tag)


def _build_halving(
    ctx: _Ctx, params: ProtocolParams, cohort: Cohort, w_cur: float, n_halving: int, prefix: str,
    recurse, cont,
):
    """The halving step below a "no near sample" announcement: store the
    drawn sets, the accept branch and, per set, the sub-problem on the kept
    coordinates, built by recurse(ctx, params, cohort, cont)."""
    none_ctx = ctx.fork()
    dim = none_ctx.dist.dim
    halves = tuple(none_ctx.tapes.pub.draw_vector(dim) for _ in range(n_halving))
    halving_children: dict[tuple[int, int], object] = {}
    accept = cont(none_ctx.fork(), list(cohort))
    if accept is not None:
        halving_children[(STATUS_WIDTH, BIG)] = accept
    jw = index_width(n_halving)
    j_children: dict[tuple[int, int], object] = {}
    for j, keep in enumerate(halves):
        if keep.popcount() == 0:
            sub = cont(none_ctx.fork(), list(cohort))
        else:
            sub_ctx = none_ctx.fork(none_ctx.dist.restrict_dist(keep))
            shrunk = [(i, x.restrict(keep)) for i, x in cohort]
            sub = recurse(sub_ctx, halved_params(params, w_cur), shrunk, cont)
        if sub is not None:
            j_children[(jw, j)] = sub
    jnode = _emit(none_ctx, BobNode, prefix + "-half-index", j_children)
    if jnode is not None:
        halving_children[(STATUS_WIDTH, CONTINUE)] = jnode
    htag = _emit(none_ctx, BobNode, prefix + "-halving-tag", halving_children)
    return _emit(none_ctx, CarolNode, prefix + "-halving-sets", dim, halves, htag)


def _build_pm(ctx: _Ctx, params: ProtocolParams, cohort: Cohort, cont):
    if not cohort:
        return None
    w = params.w

    if params.is_base_case():
        return _build_base(ctx, bp.PM, cohort, w, w, params.delta, cont)

    t = pm_round_samples(params)
    h = pm_gap(params)
    sub_sq = shift_params(params, h)
    batch = tuple(ctx.dist.sample(ctx.tapes.pub) for _ in range(t))
    iw = index_width(t)

    def shifts():
        # Near-match found: per candidate index, re-center and run both containments.
        for istar, xi in enumerate(batch):
            shifted = [(i, x ^ xi) for i, x in cohort]
            light = [(i, xs) for i, xs in shifted if xs.popcount() <= sub_sq.w]
            if not light:
                continue

            def cont_reverse(ctx2: _Ctx, pts: Cohort, _map=dict(light)):
                recon_cohort = [(i, _map[i]) for i, _ in pts]
                return _build_base(
                    ctx2, bp.SQ, recon_cohort, h, sub_sq.w, sub_sq.delta, cont, swapped=True
                )

            sub_ctx = ctx.fork(ctx.dist.xor_shift(xi))
            yield (iw, istar), _build_sq(sub_ctx, sub_sq, light, cont_reverse)

    def halving():
        n_halving = pm_halving_count(params.delta)
        return _build_halving(ctx, params, cohort, w, n_halving, PM_PROTOCOL, _build_pm, cont)

    return _build_near_step(ctx, PM_PROTOCOL, batch, shifts(), halving)


# ---------------------------------------------------------------------------
# Query side
# ---------------------------------------------------------------------------


class _Walk:
    def __init__(self, tree: ProtocolTree, y_root):
        self.points = tree.dataset.points
        self.y_root = y_root
        # Read per query, so a wrapped match_pm or subset_of is the one called.
        self.test = match_pm if tree.meta.protocol == PM_PROTOCOL else subset_of
        self.leaves_visited = 0
        self.candidates_scanned = 0
        self.candidates_rejected = 0
        self.bits_walked = 0
        self.matches: set[int] = set()

    def scan(self, leaf: Leaf) -> None:
        points, y, test = self.points, self.y_root, self.test
        hits = [i for i in leaf.candidates if test(points[i], y)]
        self.leaves_visited += 1
        self.candidates_scanned += len(leaf.candidates)
        self.candidates_rejected += len(leaf.candidates) - len(hits)
        self.matches.update(hits)


def query(tree: ProtocolTree, y) -> QueryReport:
    """Walk the tree for query y and report exact matches plus work counters."""
    if tree.meta.protocol == PM_PROTOCOL:
        if not isinstance(y, TernaryPattern) or y.dim != tree.dataset.dim:
            raise ValueError("partial-match tree expects a TernaryPattern of the right dimension")
        if y.star_count() > tree.meta.params.w:
            raise ValueError("query exceeds the compiled wildcard budget")
    else:
        if not isinstance(y, BitVector) or y.dim != tree.dataset.dim:
            raise ValueError("subset tree expects a BitVector of the right dimension")
        if y.popcount() > tree.meta.params.w:
            raise ValueError("query exceeds the compiled sparsity budget")

    walk = _Walk(tree, y)
    if tree.root is not None:
        params = tree.meta.params
        if tree.meta.protocol == PM_PROTOCOL:
            _walk_pm(walk, tree.root, params, y, _walk_final)
        else:
            _walk_sq(walk, tree.root, params, y, _walk_final)
    return QueryReport(
        matches=frozenset(walk.matches),
        leaves_visited=walk.leaves_visited,
        candidates_scanned=walk.candidates_scanned,
        candidates_rejected=walk.candidates_rejected,
        bits_walked=walk.bits_walked,
    )


def _walk_final(walk: _Walk, node) -> None:
    if not isinstance(node, Leaf):
        raise TreeError("expected a leaf at an accepting position")
    walk.scan(node)


def _walk_base(walk: _Walk, node, y_cur, z: float, mode: str, swapped: bool, cont) -> None:
    if not swapped:
        if not isinstance(node, MerlinDeferred):
            raise TreeError("expected a deferred advice edge")
        carol = node.child
        if not isinstance(carol, CarolNode) or carol.site != "base-parity-vecs":
            raise TreeError("expected stored parity vectors")
        rs = carol.vectors
        walk.bits_walked += carol.dim * len(rs)
        alice = carol.child
        if not isinstance(alice, AliceNode):
            raise TreeError("expected point parities")
        t = len(rs)
        width = bp.advice_width(mode, y_cur, z)
        values = _reachable_parities(mode, y_cur, z, rs, len(alice.children))
        if values is None:
            # More parities may be reachable than are stored: test each stored one.
            reachable = _recon_reachability(mode, y_cur, z, rs)
            values = [a for nbits, a in alice.children if nbits == t and reachable(a)]
        for a in values:
            bob = alice.children.get((t, a))
            if bob is None:
                continue
            if not isinstance(bob, BobNode):
                raise TreeError("expected reconstruction parities")
            child = bob.children.get((t, a))
            if child is not None:
                walk.bits_walked += width + 2 * t
                cont(walk, child)
        return

    # Swapped wiring: the walker's own side is the point side here, so one
    # parity b per shared rs decides every stored advice value it reaches.
    if not isinstance(node, MerlinExplicit):
        raise TreeError("expected an explicit advice edge")
    if node.index is None:
        node.index = _stage_index(node)
    for rs, by_parity in node.index:
        hit = by_parity.get(bp.parity_vector(y_cur, rs))
        if hit is not None:
            bits, leafward = hit
            walk.bits_walked += bits
            for child in leafward:
                cont(walk, child)


def _stage_index(node: MerlinExplicit) -> list:
    """A swapped stage's children by the query's parity b. Per run of children
    that share one rs, in stored order: rs, and a map from b to the bits a
    walk charges there and the leafward nodes it continues at, in stored
    order. A walk computes b once per run, as a loop over the children would.
    The loop's checks are made for every b at once, so a malformed stage
    raises at its first visit."""
    index: list = []
    rs = None
    for (mwidth, _m), carol in node.children.items():
        if not isinstance(carol, CarolNode) or carol.site != "base-parity-vecs":
            raise TreeError("expected stored parity vectors")
        if carol.vectors is not rs:
            rs = carol.vectors
            by_parity: dict[int, list] = {}
            index.append((rs, by_parity))
        bob = carol.child
        if not isinstance(bob, BobNode):
            raise TreeError("expected point parities")
        t = len(rs)
        for (nbits, b), child in bob.children.items():
            if nbits != t:
                continue
            if not isinstance(child, AliceNode):
                raise TreeError("expected reconstruction parities")
            hit = by_parity.setdefault(b, [0, []])
            hit[0] += mwidth + carol.dim * t + t
            leafward = child.children.get((t, b))
            if leafward is not None:
                hit[0] += t
                hit[1].append(leafward)
    return index


def _recon_reachability(mode: str, y_cur, z: float, rs):
    """Membership test for the parity vectors some advice value reconstructs
    to. With the rows of _recon_solve, a target is reached when its XOR with
    the offset reduces to 0; the reduced mask then names columns that sum to
    it. For SQ, some such sum must also use at most zmax columns. A row's mask
    holds only columns that became rows, so the reduced mask has at most rank
    columns, and the cap binds only when zmax < rank. The sums are then the
    reduced mask XOR each kernel combination; past _SUBSET_ENUM_LIMIT
    combinations every bucket is accepted, and the leaf predicate keeps
    answers exact. SQ ranks past the subset count decode to the sentinel, so
    its parity is reached as well."""
    offset, rows, kernel = _recon_solve(mode, y_cur, rs)
    zmax = math.floor(z)
    sentinel = None
    m = len(rows) + len(kernel)
    if mode == bp.SQ and 1 << bp.sq_advice_width(m, zmax) > bp.subset_count(m, zmax):
        sentinel = bp.parity_vector(bp.decode_failed_sentinel(y_cur.dim), rs)
    if mode == bp.PM or zmax >= len(rows):
        return lambda target: not _reduce(rows, target ^ offset)[0] or target == sentinel
    if 1 << len(kernel) > _SUBSET_ENUM_LIMIT:
        return lambda target: True
    combos = list(_coset(0, kernel))

    def reachable(target: int) -> bool:
        rest, mask = _reduce(rows, target ^ offset)
        light = not rest and any((mask ^ k).bit_count() <= zmax for k in combos)
        return light or target == sentinel

    return reachable


def _reachable_parities(mode: str, y_cur, z: float, rs, stored: int):
    """The parity vectors some advice value reconstructs to, in Gray-code
    order, when every payload is free and at most `stored` of them can
    exist; else None, and the walker tests each stored bucket."""
    free = y_cur.star_count() if mode == bp.PM else y_cur.popcount()
    if (mode == bp.SQ and math.floor(z) < free) or 1 << min(len(rs), free) > stored:
        return None
    offset, rows, _ = _recon_solve(mode, y_cur, rs)
    return _coset(offset, [row for row, _ in rows])


def _recon_solve(mode: str, y_cur, rs) -> tuple[int, list[tuple[int, int]], list[int]]:
    """One GF(2) elimination of the reconstruction parities: (offset, rows,
    kernel). The free coordinates are the stars (PM, offset the parities of
    the pattern's ones) or the ones of y_cur (SQ, offset 0). Each row is a
    reduced column with the mask of the source columns it sums; rows have
    distinct leading bits, in descending order. A column that reduces to 0
    leaves its mask in the kernel."""
    if mode == bp.PM:
        offset, positions = bp.parity_vector(y_cur.ones_vector(), rs), y_cur.star_positions()
    else:
        offset, positions = 0, y_cur.ones()
    rows: list[tuple[int, int]] = []
    kernel: list[int] = []
    for j, col in enumerate(_parity_columns(rs, positions)):
        col, mask = _reduce(rows, col)
        if col:
            rows.append((col, mask ^ 1 << j))
            rows.sort(reverse=True)
        else:
            kernel.append(mask ^ 1 << j)
    return offset, rows, kernel


def _reduce(rows: list[tuple[int, int]], target: int) -> tuple[int, int]:
    """target reduced against the rows, and the mask of the columns it took."""
    mask = 0
    for row, row_mask in rows:
        if target ^ row < target:
            target ^= row
            mask ^= row_mask
    return target, mask


def _coset(offset: int, basis: list[int]):
    """offset + span(basis) in Gray-code order, one XOR per value."""
    value = offset
    yield value
    for i in range(1, 1 << len(basis)):
        value ^= basis[(i & -i).bit_length() - 1]
        yield value


def _parity_columns(rs, positions) -> list[int]:
    """Per position, the bits of the parity vectors there, as one t-bit column."""
    return [sum(((r.value >> pos) & 1) << i for i, r in enumerate(rs)) for pos in positions]


def _expect(node, kind, site: str, what: str):
    if not isinstance(node, kind) or node.site != site:
        raise TreeError(f"expected {what}")
    return node


def _step(walk: _Walk, node, key: tuple[int, int], kind=None, site: str = "", what: str = ""):
    """The child stored under the message key, or None when no point sent
    it. Following it charges the message's bits; when kind is given, the
    child must be a node of that kind at that site."""
    child = node.children.get(key)
    if child is not None:
        walk.bits_walked += key[0]
        if kind is not None:
            _expect(child, kind, site, what)
    return child


def _walk_sq(walk: _Walk, node, params: ProtocolParams, y: BitVector, cont) -> None:
    _walk_sq_iter(walk, node, params, y, float(params.w), 0, cont)


def _walk_sq_iter(
    walk: _Walk, node, params: ProtocolParams, y_cur: BitVector, w_cur: float, iteration: int, cont
) -> None:
    if iteration >= params.max_iters:
        return
    _expect(node, AliceNode, "sq-status", "the size announcement")

    small = _step(walk, node, (STATUS_WIDTH, SMALL))
    if small is not None:
        _walk_base(walk, small, y_cur, sq_small_size(params), bp.SQ, False, cont)

    big = _step(walk, node, (STATUS_WIDTH, BIG))
    if big is None:
        return

    def overlap(batch):
        h = params.h
        istar = near_subset_index(batch, y_cur, h)
        if istar is None:
            return None
        xi = batch[istar]
        overflow = xi.diff(y_cur)
        rank = bp.rank_subset(xi, overflow, math.floor(h))
        keep = xi.complement()
        w_next = w_cur - (xi.popcount() - overflow.popcount())
        return overflow_key(istar, params.t, xi, rank, h), lambda onward: _walk_sq_iter(
            walk, onward, params, y_cur.restrict(keep), w_next, iteration + 1, cont
        )

    _walk_near_step(
        walk, big, SQ_PROTOCOL, overlap,
        lambda tag: _walk_halving(
            walk, tag, params, y_cur, y_cur.value, w_cur, SQ_PROTOCOL, _walk_sq, cont
        ),
    )


def _walk_near_step(walk: _Walk, node, protocol: str, found, none) -> None:
    """Follow the near-sample step: read the stored batch; found(batch) gives
    the key of the query's near sample and the callable that walks on below
    its gate, or None, in which case none(tag) takes the halving step below
    the announcement."""
    batch_site, tag_site, index_site, gate_site = _NEAR_SITES[protocol]
    _expect(node, CarolNode, batch_site, "the sample batch")
    walk.bits_walked += node.dim * len(node.vectors)
    tag = _expect(node.child, BobNode, tag_site, "the near-sample announcement")
    hit = found(node.vectors)
    if hit is None:
        none(tag)
        return
    key, onward = hit
    index = _step(walk, tag, (STATUS_WIDTH, CONTINUE), BobNode, index_site, "the sample index")
    if index is None:
        return
    gate = _step(walk, index, key, AliceNode, gate_site, "the point-side gate")
    if gate is None:
        return
    sub = _step(walk, gate, (STATUS_WIDTH, CONTINUE))
    if sub is not None:
        onward(sub)


def _walk_halving(
    walk: _Walk, tag_node, params: ProtocolParams, y, mask: int, w_cur: float, prefix: str,
    recurse, cont,
) -> None:
    """Follow the halving step below a "no near sample" announcement; a kept
    set continues as recurse(walk, node, params, y, cont)."""
    sets = _step(
        walk, tag_node, (STATUS_WIDTH, BIG), CarolNode, prefix + "-halving-sets", "the halving sets"
    )
    if sets is None:
        return
    halves = sets.vectors
    walk.bits_walked += sets.dim * len(halves)
    htag = _expect(sets.child, BobNode, prefix + "-halving-tag", "the halving announcement")
    jstar = pick_half(halves, mask, w_cur)
    if jstar is None:
        accept = _step(walk, htag, (STATUS_WIDTH, BIG))
        if accept is not None:
            cont(walk, accept)
        return
    jnode = _step(
        walk, htag, (STATUS_WIDTH, CONTINUE), BobNode, prefix + "-half-index", "the halving index"
    )
    if jnode is None:
        return
    child = _step(walk, jnode, (index_width(len(halves)), jstar))
    if child is None:
        return
    keep = halves[jstar]
    if keep.popcount() == 0:
        cont(walk, child)
        return
    recurse(walk, child, halved_params(params, w_cur), y.restrict(keep), cont)


def _walk_pm(walk: _Walk, node, params: ProtocolParams, y: TernaryPattern, cont) -> None:
    w = params.w
    if params.is_base_case():
        _walk_base(walk, node, y, w, bp.PM, False, cont)
        return

    h = pm_gap(params)
    sub_sq = shift_params(params, h)

    def near_match(batch):
        istar = near_match_index(batch, y, h)
        if istar is None:
            return None
        y_shift = shifted_pattern(y, batch[istar])
        hits = y_shift.ones_vector()

        def cont_reverse(walk2: _Walk, node2) -> None:
            _walk_base(walk2, node2, hits, h, bp.SQ, True, cont)

        return (index_width(pm_round_samples(params)), istar), lambda onward: _walk_sq(
            walk, onward, sub_sq, y_shift.star_vector() | hits, cont_reverse
        )

    _walk_near_step(
        walk, node, PM_PROTOCOL, near_match,
        lambda tag: _walk_halving(walk, tag, params, y, y.stars, w, PM_PROTOCOL, _walk_pm, cont),
    )


# ---------------------------------------------------------------------------
# Serialization: versioned little-endian binary, magic PMTREE01
# ---------------------------------------------------------------------------

_NODE_ALICE = 1
_NODE_BOB = 2
_NODE_MERLIN_DEFERRED = 3
_NODE_MERLIN_EXPLICIT = 4
_NODE_CAROL = 5
_NODE_LEAF = 6

_SITES = [
    "base-parity-vecs",
    "base-point-parities",
    "base-recon-parities",
    "sq-status",
    "sq-cond-batch",
    "sq-xi-tag",
    "sq-xi-index-rank",
    "sq-overlap-tag",
    "sq-halving-sets",
    "sq-halving-tag",
    "sq-half-index",
    "pm-batch",
    "pm-xi-tag",
    "pm-xi-index",
    "pm-shift-tag",
    "pm-halving-sets",
    "pm-halving-tag",
    "pm-half-index",
]
_SITE_CODE = {s: i for i, s in enumerate(_SITES)}
# The sites of the near-sample step, in the order the step stores them.
_NEAR_SITES = {
    SQ_PROTOCOL: ("sq-cond-batch", "sq-xi-tag", "sq-xi-index-rank", "sq-overlap-tag"),
    PM_PROTOCOL: ("pm-batch", "pm-xi-tag", "pm-xi-index", "pm-shift-tag"),
}
_SITE_NAME = dict(enumerate(_SITES))
_MODE_CODE = {bp.PM: 0, bp.SQ: 1}
_MODE_NAME = {v: k for k, v in _MODE_CODE.items()}
_TRUNCATED = "tree file is truncated: it ends inside the {}"
# The deepest node nesting a tree file may have, written or read. Built trees
# reach 19 levels (pm-iter); 128 stays well inside the recursion limit.
MAX_TREE_DEPTH = 128
_TOO_DEEP = f"tree nodes nest deeper than {MAX_TREE_DEPTH} levels"


# Fixed-size parts of the file. Every node starts with its kind byte.
_HEADER = struct.Struct("<HBQ")  # format version, protocol code, seed
# dataset dim, w, eps, delta, t_cap, base_factor, then node, leaf and candidate counts
_PARAMS = struct.Struct("<IdddqdQQQ")
_COUNT = struct.Struct("<I")
_BRANCH = struct.Struct("<II")
_NODE_HEADERS = {
    _NODE_ALICE: struct.Struct("<BBI"),  # kind, site, child count
    _NODE_BOB: struct.Struct("<BBI"),
    _NODE_MERLIN_DEFERRED: struct.Struct("<BBd"),  # kind, mode, z
    _NODE_MERLIN_EXPLICIT: struct.Struct("<BBddI"),  # kind, mode, z, cap, child count
    _NODE_CAROL: struct.Struct("<BBIIB"),  # kind, site, dim, vector count, private
    _NODE_LEAF: struct.Struct("<BI"),  # kind, candidate count
}


def _stored_params(w, eps, delta, t_cap, base_factor) -> ProtocolParams:
    """The params a tree reloads with: format v1 keeps only these five fields."""
    t_cap = None if t_cap < 0 else t_cap
    return ProtocolParams(w=w, eps=eps, delta=delta, t_cap=t_cap, base_factor=base_factor)


def serialize(tree: ProtocolTree) -> bytes:
    m = tree.meta
    p = m.params
    stored = (p.w, p.eps, p.delta, -1 if p.t_cap is None else p.t_cap, p.base_factor)
    reloaded = _stored_params(*stored)
    if reloaded != p:
        lost = [f.name for f in fields(p) if getattr(p, f.name) != getattr(reloaded, f.name)]
        raise TreeError(
            f"format v{FORMAT_VERSION} cannot store {', '.join(lost)}: "
            "the tree would reload with other params"
        )
    body = io.BytesIO()
    widest = [0] * (MAX_TREE_DEPTH + 1)
    if tree.root is None:
        body.write(b"\x00")
    else:
        body.write(b"\x01")
        _write_node(body, tree.root, 0, widest, {})
    # Format v1's branching table: the most children of a node at each depth
    # that holds more than leaves.
    table = [_BRANCH.pack(depth, most) for depth, most in enumerate(widest) if most]
    return b"".join([
        MAGIC,
        _HEADER.pack(FORMAT_VERSION, 1 if m.protocol == PM_PROTOCOL else 2, m.seed),
        _PARAMS.pack(tree.dataset.dim, *stored, m.node_count, m.leaf_count, m.candidate_total),
        m.fingerprint,
        _COUNT.pack(len(table)),
        *table,
        body.getvalue(),
    ])


def _write_children(
    buf, children: dict, depth: int, widest: list, runs: dict, spans: dict | None = None
) -> None:
    """With spans, a child that is the same object as an earlier sibling is
    written by copying the bytes written for that sibling."""
    if len(children) > widest[depth]:
        widest[depth] = len(children)
    for (nbits, value), child in sorted(children.items()):  # keys are unique
        buf.write(_COUNT.pack(nbits))
        buf.write(value.to_bytes((nbits + 7) // 8, "little"))
        span = None if spans is None else spans.get(id(child))
        if span is None:
            start = buf.tell()
            _write_node(buf, child, depth + 1, widest, runs)
            if spans is not None:
                spans[id(child)] = (start, buf.tell())
        else:
            # The view must be released before the buffer grows again.
            with buf.getbuffer() as view:
                raw = view[span[0] : span[1]].tobytes()
            buf.write(raw)


def _write_node(buf, node, depth: int, widest: list, runs: dict) -> None:
    """Refuses the nesting the reader refuses; widest[k] gets the most children
    of a node at depth k, and runs holds the bytes of each shared rs."""
    if depth > MAX_TREE_DEPTH:
        raise TreeError(_TOO_DEEP)
    if isinstance(node, (AliceNode, BobNode)):
        kind = _NODE_ALICE if isinstance(node, AliceNode) else _NODE_BOB
        buf.write(_NODE_HEADERS[kind].pack(kind, _SITE_CODE[node.site], len(node.children)))
        _write_children(buf, node.children, depth, widest, runs)
    elif isinstance(node, MerlinDeferred):
        kind = _NODE_MERLIN_DEFERRED
        buf.write(_NODE_HEADERS[kind].pack(kind, _MODE_CODE[node.mode], node.z))
        widest[depth] = widest[depth] or 1
        _write_node(buf, node.child, depth + 1, widest, runs)
    elif isinstance(node, MerlinExplicit):
        kind = _NODE_MERLIN_EXPLICIT
        mode = _MODE_CODE[node.mode]
        buf.write(_NODE_HEADERS[kind].pack(kind, mode, node.z, node.cap, len(node.children)))
        _write_children(buf, node.children, depth, widest, runs, {})
    elif isinstance(node, CarolNode):
        kind = _NODE_CAROL
        site = _SITE_CODE[node.site]
        private = node.site == "base-parity-vecs"
        buf.write(_NODE_HEADERS[kind].pack(kind, site, node.dim, len(node.vectors), private))
        run = (node.dim, id(node.vectors))
        raw = runs.get(run)
        if raw is None:
            nbytes = max(1, (node.dim + 7) // 8)
            raw = runs[run] = b"".join(v.value.to_bytes(nbytes, "little") for v in node.vectors)
        buf.write(raw)
        widest[depth] = widest[depth] or 1
        _write_node(buf, node.child, depth + 1, widest, runs)
    elif isinstance(node, Leaf):
        buf.write(_NODE_HEADERS[_NODE_LEAF].pack(_NODE_LEAF, len(node.candidates)))
        buf.write(struct.pack(f"<{len(node.candidates)}I", *node.candidates))
    else:
        raise TreeError(f"unserializable node {type(node).__name__}")


class _Reader:
    """A cursor over the bytes of a tree file. Leaf ids must be below n, and
    nodes nest at most MAX_TREE_DEPTH deep. Runs of vectors with the same dim
    and bytes come back as one shared tuple, as the builder shares one rs
    across the advice values of a swapped stage.

    A swapped stage's child whose bytes equal those of a child already read
    at the same depth, in this stage or an earlier one, is that child's
    object, found by matching the bytes rather than parsing them. This is
    exact: a node's encoding is self-delimiting and the parser decides only
    from the bytes it reads and the depth, so equal bytes at an equal depth
    parse to an equal sub-tree that ends at the same offset, and every check
    on them has already run. A copy that differs in any byte, or is cut
    short, matches nothing and is parsed and checked in full."""

    def __init__(self, data: bytes, n: int):
        self.data = bytes(data)
        self.view = memoryview(self.data)
        self.size = len(data)
        self.pos = 0
        self.n = n
        self.runs: dict[tuple[int, bytes], tuple[BitVector, ...]] = {}
        # Per depth, the bytes of each swapped-stage child read there.
        self.stage_children: dict[int, dict[bytes, object]] = {}

    def take(self, size: int, what: str) -> bytes:
        pos = self.pos
        self.pos = end = pos + size
        if end > self.size:
            raise TreeError(_TRUNCATED.format(what))
        return self.data[pos:end]

    def unpack(self, layout: struct.Struct, what: str) -> tuple:
        pos = self.pos
        self.pos = end = pos + layout.size
        if end > self.size:
            raise TreeError(_TRUNCATED.format(what))
        return layout.unpack_from(self.data, pos)

    def name(self, names: dict, code: int) -> str:
        name = names.get(code)
        if name is None:
            raise TreeError(f"bad site or mode code {code}")
        return name

    def children(self, count: int, depth: int, seen: dict | None = None) -> dict:
        """With seen, each child is first looked up by the bytes ahead, taken
        at the size of the child before it: a stage's children are spans of
        one size. Trying one size per child keeps the lookups linear in the
        file's length."""
        out = {}
        size = 0
        for _ in range(count):
            (nbits,) = self.unpack(_COUNT, "message width")
            value = int.from_bytes(self.take((nbits + 7) // 8, "message value"), "little")
            if seen is None:
                out[(nbits, value)] = self.node(depth + 1)
                continue
            start = self.pos
            end = start + size
            child = seen.get(self.view[start:end]) if end <= self.size else None
            if child is None:
                child = self.node(depth + 1)
                end = self.pos
                seen[self.data[start:end]] = child
            else:
                self.pos = end
            size = end - start
            out[(nbits, value)] = child
        if len(out) != count:
            raise TreeError(f"a node of {count} children repeats a message key")
        return out

    def node(self, depth: int = 0):
        if depth > MAX_TREE_DEPTH:
            raise TreeError(_TOO_DEEP)
        if self.pos == self.size:
            raise TreeError(_TRUNCATED.format("node kind"))
        kind = self.data[self.pos]
        layout = _NODE_HEADERS.get(kind)
        if layout is None:
            raise TreeError(f"bad node tag {kind}")
        head = self.unpack(layout, "node header")
        if kind == _NODE_LEAF:
            _, count = head
            ids = struct.unpack(f"<{count}I", self.take(4 * count, "leaf candidates"))
            if ids and max(ids) >= self.n:
                raise TreeError(
                    f"leaf candidate {max(ids)} is not a point of the {self.n}-point dataset"
                )
            return Leaf(ids)
        if kind == _NODE_CAROL:
            _, code, dim, count, private = head
            nbytes = max(1, (dim + 7) // 8)
            raw = self.take(nbytes * count, "parity vectors")
            vectors = self.runs.get((dim, raw))
            if vectors is None:
                vectors = self.runs[(dim, raw)] = tuple(
                    BitVector(dim, int.from_bytes(raw[k : k + nbytes], "little"))
                    for k in range(0, len(raw), nbytes)
                )
            site = self.name(_SITE_NAME, code)
            if private != (site == "base-parity-vecs"):
                raise TreeError(f"private flag {private} does not fit the site {site}")
            return CarolNode(site, dim, vectors, self.node(depth + 1))
        if kind == _NODE_MERLIN_DEFERRED:
            _, code, z = head
            return MerlinDeferred(self.name(_MODE_NAME, code), z, self.node(depth + 1))
        if kind == _NODE_MERLIN_EXPLICIT:
            _, code, z, cap, count = head
            children = self.children(count, depth, self.stage_children.setdefault(depth, {}))
            return MerlinExplicit(self.name(_MODE_NAME, code), z, cap, children)
        _, code, count = head
        cls = AliceNode if kind == _NODE_ALICE else BobNode
        return cls(self.name(_SITE_NAME, code), self.children(count, depth))


def deserialize(data: bytes, dataset: Dataset) -> ProtocolTree:
    r = _Reader(data, dataset.n)
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise TreeError("bad magic")
    version, proto_code, seed = r.unpack(_HEADER, "header")
    if version != FORMAT_VERSION:
        raise TreeError(f"unsupported format version {version}")
    if proto_code not in (1, 2):
        raise TreeError(f"bad protocol code {proto_code}")
    dim, *stored, node_count, leaf_count, cand_total = r.unpack(_PARAMS, "params")
    try:
        params = _stored_params(*stored)
    except ParamError as exc:
        raise TreeError(f"tree file holds params no tree is built with: {exc}") from exc
    fingerprint = r.take(32, "dataset fingerprint")
    if fingerprint != dataset.fingerprint():
        raise TreeError("tree was built over a different dataset")
    if dim != dataset.dim:
        raise TreeError(f"tree file stores dimension {dim}, but the dataset has {dataset.dim}")
    (nbranch,) = r.unpack(_COUNT, "branching table")
    r.take(_BRANCH.size * nbranch, "branching table")
    with _collector_paused():
        root = r.node() if r.take(1, "root flag")[0] else None
    if r.pos != r.size:
        raise TreeError(f"tree file has {r.size - r.pos} bytes after the tree")
    meta = TreeMeta(
        protocol=PM_PROTOCOL if proto_code == 1 else SQ_PROTOCOL,
        seed=seed,
        params=params,
        fingerprint=fingerprint,
        node_count=node_count,
        leaf_count=leaf_count,
        candidate_total=cand_total,
    )
    return ProtocolTree(root, meta, dataset)


def save_tree(tree: ProtocolTree, path) -> int:
    """Write the tree's bytes to path and return their count; a refused tree leaves no file."""
    data = serialize(tree)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def load_tree(path, dataset: Dataset) -> ProtocolTree:
    with open(path, "rb") as fh:
        return deserialize(fh.read(), dataset)
