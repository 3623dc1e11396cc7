"""Sparse partial-match protocol.

Reduces wildcard matching to subset queries: the public channel samples points
until one nearly matches the query, the point side re-centers by XOR against
that sample, and two containment checks (one each way) decide the match. When
no near-match shows up, random halving sets shrink the wildcard budget and the
protocol recurses. All error is on the accept side.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

from .base_protocol import SQ, PM
from .bits import BitVector, TernaryPattern
from .dist import EmpiricalDistribution
from .engine import (
    CONTINUE,
    OUT0,
    Message,
    Player,
    ProtocolParams,
    Tapes,
    Transcript,
    batch_message,
    index_width,
    status_message,
)
from .sq_protocol import AdviceFeed, ProtocolError, halving_exec, parity_stage, run, sq_exec


def pm_round_samples(params: ProtocolParams) -> int:
    """Per-round sample count for the near-match search (cap applies)."""
    t = math.ceil((100.0 / params.eps) * math.log2(10.0 / params.eps))
    if params.t_cap is not None:
        t = min(t, params.t_cap)
    return max(t, 1)


def pm_gap(params: ProtocolParams) -> float:
    """Tolerated non-star disagreements for a usable sample."""
    if params.h_override is not None:
        return params.h_override
    return math.log2(10.0 / params.eps)


def pm_halving_count(delta: float) -> int:
    return max(1, math.ceil(math.log2(10.0 / delta)))


def recursion_depth_cap(params: ProtocolParams) -> int:
    ratio = params.w / math.log2(1.0 / params.eps)
    if ratio <= 1.0:
        return 0
    return math.ceil(2.0 * math.log2(ratio))


def unmatched_count(sample: BitVector, y: TernaryPattern) -> int:
    """Non-star coordinates where the sample disagrees with the query."""
    return ((sample.value ^ y.one_bits) & ~y.stars & ((1 << y.dim) - 1)).bit_count()


def near_match_index(batch, y: TernaryPattern, h: float) -> int | None:
    """Index of the first sample with at most h unmatched coordinates, or None."""
    return next((i for i, xi in enumerate(batch) if unmatched_count(xi, y) <= h), None)


def shifted_pattern(y: TernaryPattern, xi: BitVector) -> TernaryPattern:
    """The query re-centered on sample xi: its ones mark where xi disagrees
    with y off the stars."""
    disagree = (y.one_bits ^ xi.value) & ~y.stars & ((1 << y.dim) - 1)
    return TernaryPattern(y.dim, y.stars, disagree)


def shift_params(params: ProtocolParams, h: float) -> ProtocolParams:
    """Parameters of the containment checks after re-centering on a sample."""
    return replace(params, w=params.w + h, eps=params.eps / 10.0, delta=params.delta / 10.0)


def pm_exec(
    params: ProtocolParams,
    dist: EmpiricalDistribution,
    x: BitVector,
    y: TernaryPattern,
    tapes: Tapes,
    tr: Transcript,
    feed: AdviceFeed,
    depth: int = 0,
    depth_cap: int | None = None,
) -> int:
    d = dist.dim
    if x.dim != d or y.dim != d:
        raise ValueError("inputs must live on the distribution's domain")
    w = params.w
    if y.star_count() > w:
        raise ValueError(f"query has {y.star_count()} stars, budget is {w}")
    if depth_cap is None:
        depth_cap = recursion_depth_cap(params)
    if depth > max(depth_cap, 1):
        raise ProtocolError("recursion exceeded its depth bound")

    if params.is_base_case():
        return parity_stage(feed, PM, x, y, w, w, params.delta, tapes, tr)

    t = pm_round_samples(params)
    h = pm_gap(params)
    batch = [dist.sample(tapes.pub) for _ in range(t)]
    tr.append(batch_message(Player.CAROL_PUB, batch, d, "near-match-batch"))

    istar = near_match_index(batch, y, h)
    if istar is None:
        return halving_exec(
            params, dist, x, y, pm_halving_count(params.delta), y.stars, w, tapes, tr,
            lambda sub, dist_h, x_h, y_h: pm_exec(
                sub, dist_h, x_h, y_h, tapes, tr, feed, depth + 1, depth_cap
            ),
        )

    tr.append(status_message(Player.BOB, CONTINUE, "xi-found"))
    tr.append(Message(Player.BOB, istar, index_width(t), "xi-index"))
    xi = batch[istar]

    x_shift = x ^ xi
    y_shift = shifted_pattern(y, xi)
    sub_sq = shift_params(params, h)

    if x_shift.popcount() > sub_sq.w:
        tr.append(status_message(Player.ALICE, OUT0, "shift-too-heavy"))
        return 0
    tr.append(status_message(Player.ALICE, CONTINUE, "shift-ok"))

    shifted_dist = dist.xor_shift(xi)
    target = y_shift.star_vector() | y_shift.ones_vector()
    out_contain = sq_exec(sub_sq, shifted_dist, x_shift, target, tapes, tr, feed)

    hits = y_shift.ones_vector()
    out_reverse = parity_stage(
        feed, SQ, hits, x_shift, h, sub_sq.w, sub_sq.delta, tapes, tr, swapped=True
    )
    return out_contain & out_reverse


run_pm = partial(run, pm_exec)
