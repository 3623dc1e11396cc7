"""Prover-assisted equality test between a point and a reconstructed candidate.

The prover commits a relative encoding of the point (star fills for wildcard
queries, a ranked subset for containment queries), the receiving side rebuilds
the candidate, and both ends compare random parities. A correct reconstruction
is accepted with probability 1; any other candidate survives each parity round
with probability exactly 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .bits import BitVector, TernaryPattern
from .engine import (
    OUT0,
    Message,
    Player,
    RandomTape,
    Tapes,
    Transcript,
    batch_message,
    index_width,
    status_message,
)

PM = "pm"
SQ = "sq"


class DecodeError(ValueError):
    """Advice payload is outside the encodable range."""


@dataclass(frozen=True)
class BaseAdvice:
    """The prover's message: star fills (PM) or a subset rank (SQ)."""

    mode: str
    payload: int
    width: int

    def __post_init__(self):
        if self.payload < 0 or (self.width >= 0 and self.payload >> max(self.width, 0)):
            raise ValueError("payload does not fit in width")


def subset_count(m: int, zmax: int) -> int:
    """Number of subsets of an m-element set with size at most zmax (size 0 included)."""
    return sum(comb(m, k) for k in range(0, min(zmax, m) + 1))


def _combination_rank(positions: tuple[int, ...], m: int) -> int:
    """Lexicographic rank of an ascending k-combination of [0, m)."""
    rank = 0
    prev = -1
    k = len(positions)
    for i, c in enumerate(positions):
        for j in range(prev + 1, c):
            rank += comb(m - 1 - j, k - 1 - i)
        prev = c
    return rank


def _combination_unrank(rank: int, m: int, k: int) -> tuple[int, ...]:
    out = []
    j = 0
    for i in range(k):
        while True:
            block = comb(m - 1 - j, k - 1 - i)
            if rank < block:
                break
            rank -= block
            j += 1
        out.append(j)
        j += 1
    return tuple(out)


def rank_subset(y: BitVector, s: BitVector, zmax: int) -> int:
    """Rank of s among subsets of y in length-lexicographic order.

    All size-0 subsets come first, then size-1 in ascending index order, and so
    on up to size zmax.
    """
    if not s.subset_of(y):
        raise ValueError("s must be a subset of y")
    k = s.popcount()
    if k > zmax:
        raise ValueError(f"subset size {k} exceeds the cap {zmax}")
    elements = tuple(y.ones())
    pos_of = {c: j for j, c in enumerate(elements)}
    positions = tuple(pos_of[c] for c in s.ones())
    m = len(elements)
    rank = sum(comb(m, kk) for kk in range(k))
    return rank + _combination_rank(positions, m)


def unrank_subset(y: BitVector, rank: int, zmax: int) -> BitVector:
    """Inverse of rank_subset. Raises DecodeError for out-of-range ranks."""
    m = y.popcount()
    total = subset_count(m, zmax)
    if not 0 <= rank < total:
        raise DecodeError(f"rank {rank} out of range [0, {total})")
    k = 0
    while rank >= comb(m, k):
        rank -= comb(m, k)
        k += 1
    elements = tuple(y.ones())
    positions = _combination_unrank(rank, m, k)
    return BitVector.from_ones(y.dim, (elements[j] for j in positions))


def sq_advice_width(m: int, zmax: int) -> int:
    return index_width(subset_count(m, zmax))


def decode_failed_sentinel(dim: int) -> BitVector:
    """Reconstruction used when the rank cannot be decoded.

    All-ones is distinct from every honest input with fewer than dim set
    coordinates, so the parity rounds reject it at the usual rate.
    """
    return BitVector(dim, (1 << dim) - 1)


def advice_width(mode: str, y, z: float) -> int:
    """Width of the advice decoded against y: one bit per star (PM), or the
    index width of the subsets of y with at most z elements (SQ)."""
    if mode == PM:
        return y.star_count()
    return sq_advice_width(y.popcount(), math.floor(z))


def special_advice(
    mode: str, x: BitVector, y, z: float, *, public_cap: float | None = None
) -> BaseAdvice:
    """The unique prover message for (x, y); a pure function, independent of
    the private tape.

    public_cap fixes the encoding width from a public bound on |y| instead of
    |y| itself. The swapped wiring needs it: there the reconstruction side is
    private data, so message boundaries cannot depend on its exact size.
    """
    if mode == PM:
        if not isinstance(y, TernaryPattern) or y.dim != x.dim:
            raise ValueError("PM mode needs a TernaryPattern of matching dimension")
        fill = x.restrict(y.star_vector())
        return BaseAdvice(PM, fill.value, advice_width(PM, y, z))
    if mode == SQ:
        if not isinstance(y, BitVector) or y.dim != x.dim:
            raise ValueError("SQ mode needs a BitVector of matching dimension")
        zmax = math.floor(z)
        if public_cap is None:
            width = advice_width(SQ, y, z)
        elif y.popcount() > math.floor(public_cap):
            raise ValueError("public cap is below the actual set size")
        else:
            width = sq_advice_width(math.floor(public_cap), zmax)
        return BaseAdvice(SQ, rank_subset(y, x & y, zmax), width)
    raise ValueError(f"unknown mode {mode!r}")


def decode(mode: str, y, payload: int, zmax: int) -> BitVector:
    """The candidate a payload encodes relative to y: the star fill (PM) or the
    subset of y with that rank (SQ), the all-ones sentinel on a bad rank."""
    if mode == PM:
        return y.fill_stars(BitVector(y.star_count(), payload))
    try:
        return unrank_subset(y, payload, zmax)
    except DecodeError:
        return decode_failed_sentinel(y.dim)


_decode_cached = lru_cache(maxsize=8192)(decode)


def reconstruct(mode: str, y, advice: BaseAdvice, z: float) -> BitVector:
    """The candidate the advice encodes relative to y (sentinel on bad ranks)."""
    return _decode_cached(mode, y, advice.payload, math.floor(z))


def parity_vector(v: BitVector, rs) -> int:
    """Bit i is the parity of v on the coordinates set in rs[i]."""
    value = v.value
    out = 0
    for i, r in enumerate(rs):
        out |= ((value & r.value).bit_count() & 1) << i
    return out


def draw_parity_vectors(pri: RandomTape, d: int, t: int) -> tuple[BitVector, ...]:
    """The stage's t private parity vectors of d bits, drawn after the advice."""
    return tuple(pri.draw_vector(d) for _ in range(t))


def base_t(delta: float) -> int:
    return max(1, math.ceil(math.log2(1.0 / delta)))


def base_exec(
    mode: str,
    x: BitVector,
    y,
    z: float,
    w: float,
    delta: float,
    advice: BaseAdvice,
    tapes: Tapes,
    tr: Transcript,
    *,
    swap_roles: bool = False,
) -> int:
    """Append the parity-check subprotocol to tr and return its output bit.

    x is the point side; y is the side the advice is decoded against. With
    swap_roles the point side is spoken by Bob and the reconstruction side by
    Alice (the wiring used when the querier holds the small set).
    """
    d = x.dim
    point_sender = Player.BOB if swap_roles else Player.ALICE
    recon_sender = Player.ALICE if swap_roles else Player.BOB

    if z > w:
        tr.append(status_message(Player.ALICE, OUT0, "sparsity-abort"))
        return 0

    tr.append(Message(Player.MERLIN, advice.payload, advice.width, "advice"))

    ybar = reconstruct(mode, y, advice, z)

    t = base_t(delta)
    tr.require_advice_committed()
    rs = draw_parity_vectors(tapes.pri, d, t)
    tr.append(batch_message(Player.CAROL_PRI, rs, d, "parity-vecs"))

    a = parity_vector(x, rs)
    b = parity_vector(ybar, rs)
    tr.append(Message(point_sender, a, t, "parities-point"))
    tr.append(Message(recon_sender, b, t, "parities-recon"))
    return 1 if a == b else 0


def run_base(
    mode: str,
    x: BitVector,
    y,
    z: float,
    w: float,
    delta: float,
    advice: BaseAdvice,
    tapes: Tapes,
    *,
    swap_roles: bool = False,
) -> Transcript:
    """Standalone parity-check run; returns the finalized transcript."""
    tr = Transcript()
    out = base_exec(mode, x, y, z, w, delta, advice, tapes, tr, swap_roles=swap_roles)
    return tr.finalize(out)
