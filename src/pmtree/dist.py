"""Uniform-over-dataset distributions with the two primitives the protocols pay for:
size-conditioned sampling and restriction to a coordinate subset.

Restriction is projection: support membership never changes, only the domain.
An optional XOR shift is applied after projection; it is how the partial-match
protocol hands the re-centered point distribution to its subset-query subroutine.
"""

from __future__ import annotations

from .bits import BitVector, CoordDomain, Dataset
from .engine import RandomTape


class EmptySupport:
    """Out-of-band result for a size-conditioned draw with no qualifying point."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "EMPTY_SUPPORT"


EMPTY_SUPPORT = EmptySupport()


class EmpiricalDistribution:
    __slots__ = (
        "base",
        "domain",
        "support",
        "shift",
        "_buckets",
        "_proj_cache",
        "_qual_cache",
    )

    def __init__(
        self,
        base: Dataset,
        domain: CoordDomain | None = None,
        support: tuple[int, ...] | None = None,
        shift: BitVector | None = None,
    ):
        self.base = base
        self.domain = domain if domain is not None else CoordDomain.full(base.dim)
        if self.domain.parent_dim != base.dim:
            raise ValueError("domain must be over the dataset dimension")
        self.support = support if support is not None else tuple(range(base.n))
        if shift is not None and shift.dim != self.domain.size:
            raise ValueError("shift must have the domain's size")
        self.shift = shift
        self._buckets = None
        self._proj_cache = None
        self._qual_cache = {}

    @property
    def dim(self) -> int:
        return self.domain.size

    def projected(self, i: int) -> BitVector:
        """Support point i projected to the domain (and shifted, if set)."""
        v = self.base.points[i].restrict(self.domain)
        return v if self.shift is None else v ^ self.shift

    def _projections(self) -> list[BitVector]:
        if self._proj_cache is None:
            self._proj_cache = [self.projected(i) for i in self.support]
        return self._proj_cache

    def sample(self, rng: RandomTape) -> BitVector:
        if not self.support:
            raise ValueError("cannot sample from an empty support")
        pos = rng.draw_below(len(self.support))
        return self._projections()[pos]

    def _popcount_buckets(self) -> dict[int, list[int]]:
        if self._buckets is None:
            buckets: dict[int, list[int]] = {}
            for pos, v in enumerate(self._projections()):
                buckets.setdefault(v.popcount(), []).append(pos)
            self._buckets = buckets
        return self._buckets

    def sample_size_conditioned(self, lo: float, hi: float, rng: RandomTape):
        """Uniform over support points whose projected popcount s has lo < s <= hi.

        Returns EMPTY_SUPPORT (no tape tick) when nothing qualifies.
        """
        qualifying = self._qual_cache.get((lo, hi))
        if qualifying is None:
            buckets = self._popcount_buckets()
            qualifying = [
                pos for pc in sorted(buckets) if lo < pc <= hi for pos in buckets[pc]
            ]
            self._qual_cache[(lo, hi)] = qualifying
        if not qualifying:
            return EMPTY_SUPPORT
        pos = qualifying[rng.draw_below(len(qualifying))]
        return self._projections()[pos]

    def restrict_dist(self, sub: CoordDomain) -> "EmpiricalDistribution":
        """Project every support point to sub (parent coordinates, inside the domain)."""
        if not self.domain.contains(sub):
            raise ValueError("sub must be contained in the current domain")
        new_shift = None
        if self.shift is not None:
            rel_of = {c: j for j, c in enumerate(self.domain.active)}
            rel_positions = tuple(rel_of[c] for c in sub.active)
            new_shift = self.shift.restrict(CoordDomain(self.domain.size, rel_positions))
        return EmpiricalDistribution(self.base, sub, self.support, new_shift)

    def restrict_relative(self, keep: BitVector) -> "EmpiricalDistribution":
        """Restrict to the relative positions set in keep (a mask over the current size)."""
        return self.restrict_dist(self.domain.select(keep))

    def xor_shift(self, shift: BitVector) -> "EmpiricalDistribution":
        """Distribution of (sample XOR shift)."""
        if shift.dim != self.dim:
            raise ValueError("shift must have the domain's size")
        combined = shift if self.shift is None else shift ^ self.shift
        return EmpiricalDistribution(self.base, self.domain, self.support, combined)
