"""Sparse subset-query protocol.

One loop: each round the point side announces its size class, small points
go to the parity-check subroutine, and for the rest the public channel draws
samples conditioned on a size window; either a near-subset sample lets
everyone shed its coordinates, or random halving sets shrink the budget and
the protocol recurses at half the error. The base case is the loop's first
round, in which every point within the budget counts as small. Output-1 paths
only ever overshoot (false positives); every 0 output is certified by a
witness.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

from .base_protocol import (
    SQ,
    BaseAdvice,
    base_exec,
    rank_subset,
    special_advice,
    sq_advice_width,
    unrank_subset,
)
from .bits import BitVector
from .dist import EmpiricalDistribution
from .engine import (
    BIG,
    CONTINUE,
    OUT0,
    SMALL,
    Message,
    Player,
    ProtocolParams,
    RandomTape,
    Stream,
    Tapes,
    Transcript,
    batch_message,
    index_width,
    status_message,
)


class ProtocolError(Exception):
    pass


class AdviceFeed:
    """Supplies prover segments to the parity subroutine invocations.

    With fixed segments, each invocation consumes the next one (an exhausted
    feed yields an all-ones payload as wide as the honest segment, which is
    just another wrong message). Without segments the feed computes the
    honest value and records it.
    """

    def __init__(self, segments: tuple[BaseAdvice, ...] | None = None):
        self.fixed = segments
        self.cursor = 0
        self.collected: list[BaseAdvice] = []

    def next(self, honest) -> BaseAdvice:
        if self.fixed is None:
            seg = honest()
            self.collected.append(seg)
            return seg
        if self.cursor < len(self.fixed):
            seg = self.fixed[self.cursor]
            self.cursor += 1
            return seg
        seg = honest()
        return BaseAdvice(seg.mode, (1 << seg.width) - 1, seg.width)


def run(
    exec_fn, params: ProtocolParams, dist: EmpiricalDistribution, x: BitVector, y,
    advice: tuple[BaseAdvice, ...] | None, tapes: Tapes,
) -> Transcript:
    """Run the interpreter exec_fn (sq_exec or pm_exec) on (x, y) and return
    the finalized transcript. advice=None computes the honest prover messages."""
    tr = Transcript()
    out = exec_fn(params, dist, x, y, tapes, tr, AdviceFeed(advice))
    return tr.finalize(out)


def honest_advice(
    exec_fn, params: ProtocolParams, dist: EmpiricalDistribution, x: BitVector, y,
    pub_tape: RandomTape,
) -> tuple[BaseAdvice, ...]:
    """The honest prover segments of exec_fn on (x, y), in invocation order,
    found by replaying the public part of the run.

    Deterministic in (dist, x, y, pub tape state); empty tuple when the run
    terminates without a parity subroutine.
    """
    tapes = Tapes(pub_tape.clone(), RandomTape(pub_tape.seed, Stream.PRI))
    feed = AdviceFeed(None)
    exec_fn(params, dist, x, y, tapes, Transcript(), feed)
    return tuple(feed.collected)


def parity_stage(
    feed: AdviceFeed, mode: str, x, y, z: float, w: float, delta: float, tapes: Tapes,
    tr: Transcript, swapped: bool = False,
) -> int:
    """One parity-check stage: the prover segment from the feed, then the check.

    In the swapped wiring y is the point's private data, so the advice width
    comes from the public cap w instead of y's size.
    """
    cap = w if swapped else None
    seg = feed.next(lambda: special_advice(mode, x, y, z, public_cap=cap))
    return base_exec(mode, x, y, z, w, delta, seg, tapes, tr, swap_roles=swapped)


def sq_small_size(params: ProtocolParams) -> float:
    """Largest point size a round sends to the parity check: the whole budget
    w in the base case, w / ell in the loop."""
    return params.w if params.is_base_case() else params.w / params.ell


def halving_count(ell: float, delta_prime: float) -> int:
    return max(1, math.ceil(math.log2(10.0 * ell / delta_prime)))


def sq_exec(
    params: ProtocolParams,
    dist: EmpiricalDistribution,
    x: BitVector,
    y: BitVector,
    tapes: Tapes,
    tr: Transcript,
    feed: AdviceFeed,
) -> int:
    d = dist.dim
    if x.dim != d or y.dim != d:
        raise ValueError("inputs must live on the distribution's domain")
    w = params.w
    if y.popcount() > w:
        raise ValueError(f"query has {y.popcount()} ones, budget is {w}")

    small = sq_small_size(params)
    small_label = "size-ok" if params.is_base_case() else "size-small"
    t = params.t
    h = params.h
    w_cur = float(w)
    x_cur, y_cur = x, y
    dist_cur = dist

    for _ in range(params.max_iters):
        assert x_cur.subset_of(y_cur) == x.subset_of(y)

        if x_cur.popcount() > w_cur:
            tr.append(status_message(Player.ALICE, OUT0, "size-over-budget"))
            return 0
        if x_cur.popcount() <= small:
            tr.append(status_message(Player.ALICE, SMALL, small_label))
            return parity_stage(feed, SQ, x_cur, y_cur, small, w, params.delta_prime, tapes, tr)

        tr.append(status_message(Player.ALICE, BIG, "size-in-window"))
        batch = draw_conditioned_batch(dist_cur, small, w_cur, t, tapes.pub)
        if batch is None:
            # No point of the distribution sits in the window.
            tr.append(Message(Player.CAROL_PUB, 0, 0, "no-sample"))
            return 0
        tr.append(batch_message(Player.CAROL_PUB, batch, dist_cur.dim, "cond-batch"))

        istar = near_subset_index(batch, y_cur, h)
        if istar is not None:
            tr.append(status_message(Player.BOB, CONTINUE, "xi-found"))
            xi = batch[istar]
            rank = rank_subset(xi, xi.diff(y_cur), math.floor(h))
            nbits, value = overflow_key(istar, t, xi, rank, h)
            tr.append(Message(Player.BOB, value, nbits, "xi-index-rank"))
            # The point side decodes the overflow set from the wire, not from y.
            overflow = unrank_subset(xi, rank, math.floor(h))
            if x_cur.intersects(overflow):
                tr.append(status_message(Player.ALICE, OUT0, "overlap-witness"))
                return 0
            tr.append(status_message(Player.ALICE, CONTINUE, "no-overlap"))
            shed = xi.popcount() - overflow.popcount()
            if params.base_factor >= 100.0 and params.t_cap is None and shed < 0.9 * small - 1e-9:
                raise ProtocolError("a near-subset sample shed fewer coordinates than its bound")
            keep = xi.complement()
            x_cur = x_cur.restrict(keep)
            y_cur = y_cur.restrict(keep)
            dist_cur = dist_cur.restrict_dist(keep)
            w_cur -= shed
            continue

        n_halving = halving_count(params.ell, params.delta_prime)
        return halving_exec(
            params, dist_cur, x_cur, y_cur, n_halving, y_cur.value, w_cur, tapes, tr,
            lambda sub, dist_h, x_h, y_h: sq_exec(sub, dist_h, x_h, y_h, tapes, tr, feed),
        )

    raise ProtocolError("iteration budget exhausted; parameters violate the shrink guarantee")


run_sq = partial(run, sq_exec)


def halving_exec(
    params: ProtocolParams, dist: EmpiricalDistribution, x, y, n_halving: int, mask: int,
    w_cur: float, tapes: Tapes, tr: Transcript, recurse,
) -> int:
    """The halving step, run when no sample came near the query.

    The public channel draws n_halving random sets. The query side names the
    first set holding at most 2 w_cur / 3 of the query coordinates in mask
    (the stars of a PM query, the ones of an SQ query); if none does, the run
    accepts. Otherwise every party restricts to that set and the run goes on
    as recurse(sub_params, sub_dist, sub_x, sub_y).
    """
    tr.append(status_message(Player.BOB, BIG, "xi-none"))
    d = dist.dim
    halves = [tapes.pub.draw_vector(d) for _ in range(n_halving)]
    tr.append(batch_message(Player.CAROL_PUB, halves, d, "halving-sets"))
    jstar = pick_half(halves, mask, w_cur)
    if jstar is None:
        tr.append(status_message(Player.BOB, BIG, "halving-none"))
        return 1
    tr.append(status_message(Player.BOB, CONTINUE, "halving-found"))
    tr.append(Message(Player.BOB, jstar, index_width(n_halving), "half-index"))
    keep = halves[jstar]
    if keep.popcount() == 0:
        return 1
    sub = halved_params(params, w_cur)
    return recurse(sub, dist.restrict_dist(keep), x.restrict(keep), y.restrict(keep))


def pick_half(halves, mask: int, w_cur: float) -> int | None:
    """Index of the first halving set holding at most 2 w_cur / 3 of the
    coordinates in mask, or None."""
    limit = 2.0 * w_cur / 3.0
    return next((j for j, s in enumerate(halves) if (mask & s.value).bit_count() <= limit), None)


def halved_params(params: ProtocolParams, w_cur: float) -> ProtocolParams:
    """Parameters of the sub-problem on a kept halving set: the set holds at
    most 2 w_cur / 3 of the query's coordinates, at half the error."""
    w = max(1.0, 2.0 * w_cur / 3.0)
    return replace(params, w=w, eps=params.eps / 2.0, delta=params.delta_prime)


def near_subset_index(batch, y: BitVector, h: float) -> int | None:
    """Index of the first sample with at most h coordinates outside y, or None."""
    return next((i for i, xi in enumerate(batch) if xi.diff(y).popcount() <= h), None)


def overflow_key(istar: int, t: int, xi: BitVector, rank: int, h: float) -> tuple[int, int]:
    """(width, value) of the message naming sample istar of t and the rank of
    its overflow set among the subsets of xi with at most h elements."""
    iw = index_width(t)
    return iw + sq_advice_width(xi.popcount(), math.floor(h)), istar | (rank << iw)


def draw_conditioned_batch(
    dist: EmpiricalDistribution, lo: float, hi: float, t: int, pub: RandomTape
) -> list[BitVector] | None:
    """t size-conditioned samples from the public tape, or None when nothing
    qualifies."""
    first = dist.sample_size_conditioned(lo, hi, pub)
    if first is None:
        return None
    return [first] + [dist.sample_size_conditioned(lo, hi, pub) for _ in range(t - 1)]
