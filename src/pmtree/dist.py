"""Uniform-over-dataset distributions with the two primitives the protocols pay for:
size-conditioned sampling and restriction to a coordinate subset.

Restriction is projection: every point of the dataset stays in the support, and
only the domain shrinks. A coordinate subset is a mask (see bits), and the
domain is kept as a mask over the dataset dimension. An optional XOR shift is
applied after projection; it is how the partial-match protocol hands the
re-centered point distribution to its subset-query subroutine.

A size-conditioned draw that no point qualifies for returns None. A run's only
dimension is its domain's size, dim: ProtocolParams holds none.
"""

from __future__ import annotations

from .bits import BitVector, Dataset
from .engine import RandomTape


class EmpiricalDistribution:
    """Uniform over the dataset's points, each restricted to the coordinates set
    in domain (a mask over the dataset dimension) and then XORed with shift."""

    __slots__ = ("base", "domain", "shift", "_buckets", "_proj_cache", "_qual_cache")

    def __init__(
        self, base: Dataset, domain: BitVector | None = None, shift: BitVector | None = None
    ):
        self.base = base
        self.domain = domain if domain is not None else BitVector(base.dim).complement()
        if self.domain.dim != base.dim:
            raise ValueError("domain must be over the dataset dimension")
        if shift is not None and shift.dim != self.dim:
            raise ValueError("shift must have the domain's size")
        self.shift = shift
        self._buckets = None
        self._proj_cache = None
        self._qual_cache = {}

    @property
    def dim(self) -> int:
        return self.domain.popcount()

    def projected(self, i: int) -> BitVector:
        """Point i restricted to the domain (and shifted, if set)."""
        v = self.base.points[i].restrict(self.domain)
        return v if self.shift is None else v ^ self.shift

    def _projections(self) -> list[BitVector]:
        if self._proj_cache is None:
            self._proj_cache = [self.projected(i) for i in range(self.base.n)]
        return self._proj_cache

    def sample(self, rng: RandomTape) -> BitVector:
        if not self.base.points:
            raise ValueError("cannot sample from an empty dataset")
        return self._projections()[rng.draw_below(self.base.n)]

    def _popcount_buckets(self) -> dict[int, list[int]]:
        if self._buckets is None:
            buckets: dict[int, list[int]] = {}
            for pos, v in enumerate(self._projections()):
                buckets.setdefault(v.popcount(), []).append(pos)
            self._buckets = buckets
        return self._buckets

    def sample_size_conditioned(self, lo: float, hi: float, rng: RandomTape) -> BitVector | None:
        """Uniform over points whose projected popcount s has lo < s <= hi;
        None, without a tape tick, when nothing qualifies."""
        qualifying = self._qual_cache.get((lo, hi))
        if qualifying is None:
            buckets = self._popcount_buckets()
            qualifying = [
                pos for pc in sorted(buckets) if lo < pc <= hi for pos in buckets[pc]
            ]
            self._qual_cache[(lo, hi)] = qualifying
        if not qualifying:
            return None
        pos = qualifying[rng.draw_below(len(qualifying))]
        return self._projections()[pos]

    def restrict_dist(self, keep: BitVector) -> "EmpiricalDistribution":
        """Keep the coordinates set in keep, a mask over the current coordinates."""
        shift = None if self.shift is None else self.shift.restrict(keep)
        return EmpiricalDistribution(self.base, keep.expand(self.domain), shift)

    def xor_shift(self, shift: BitVector) -> "EmpiricalDistribution":
        """Distribution of (sample XOR shift)."""
        if shift.dim != self.dim:
            raise ValueError("shift must have the domain's size")
        combined = shift if self.shift is None else shift ^ self.shift
        return EmpiricalDistribution(self.base, self.domain, combined)
