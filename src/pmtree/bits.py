"""Fixed-dimension bit vectors and ternary wildcard patterns.

Coordinate i of a vector is bit i of the packed integer, and character i of the
text form. A subset of the coordinates is a mask: a BitVector of the same
dimension with those coordinates set. restrict(keep) keeps the coordinates set
in keep, in ascending order; expand(keep) is its inverse. All values are
immutable and safe to share across threads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def _mask(dim: int) -> int:
    return (1 << dim) - 1


class BitVector:
    """A point in {0,1}^dim, stored as one packed integer."""

    __slots__ = ("dim", "value")

    def __init__(self, dim: int, value: int = 0):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = dim
        self.value = value & _mask(dim)

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        value = 0
        for i, ch in enumerate(text):
            if ch == "1":
                value |= 1 << i
            elif ch != "0":
                raise ValueError(f"bad bit character {ch!r}")
        return cls(len(text), value)

    @classmethod
    def from_ones(cls, dim: int, ones) -> "BitVector":
        value = 0
        for i in ones:
            if not 0 <= i < dim:
                raise ValueError(f"coordinate {i} out of range [0, {dim})")
            value |= 1 << i
        return cls(dim, value)

    def to01(self) -> str:
        return "".join("1" if (self.value >> i) & 1 else "0" for i in range(self.dim))

    def popcount(self) -> int:
        return self.value.bit_count()

    def get(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise IndexError(i)
        return (self.value >> i) & 1

    def ones(self):
        v = self.value
        while v:
            low = v & -v
            yield low.bit_length() - 1
            v ^= low

    def _check_dim(self, other: "BitVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_dim(other)
        return BitVector(self.dim, self.value ^ other.value)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_dim(other)
        return BitVector(self.dim, self.value & other.value)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_dim(other)
        return BitVector(self.dim, self.value | other.value)

    def diff(self, other: "BitVector") -> "BitVector":
        """Set difference: coordinates set in self but not in other."""
        self._check_dim(other)
        return BitVector(self.dim, self.value & ~other.value)

    def complement(self) -> "BitVector":
        return BitVector(self.dim, ~self.value)

    def subset_of(self, other: "BitVector") -> bool:
        self._check_dim(other)
        return self.value & ~other.value == 0

    def intersects(self, other: "BitVector") -> bool:
        self._check_dim(other)
        return self.value & other.value != 0

    def restrict(self, keep: "BitVector") -> "BitVector":
        """The coordinates set in keep, in ascending order."""
        self._check_dim(keep)
        if keep.value == _mask(self.dim):
            return self
        return BitVector(keep.popcount(), _extract(self.value, keep.value))

    def expand(self, keep: "BitVector") -> "BitVector":
        """The inverse of restrict: coordinate j goes to the j-th coordinate set
        in keep, and every coordinate outside keep is 0."""
        if self.dim != keep.popcount():
            raise ValueError(f"{self.dim} coordinates cannot fill a mask of {keep.popcount()}")
        return BitVector(keep.dim, _deposit(self.value, keep.value))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.dim == other.dim
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.value))

    def __repr__(self) -> str:
        return f"BitVector({self.to01()!r})"


def _extract(value: int, mask: int) -> int:
    """The bits of value at the set bits of mask, packed from bit 0 up."""
    out = j = 0
    while mask:
        low = mask & -mask
        if value & low:
            out |= 1 << j
        j += 1
        mask ^= low
    return out


def _deposit(value: int, mask: int) -> int:
    """The low bits of value placed, in order, at the set bits of mask."""
    out = 0
    while mask:
        low = mask & -mask
        if value & 1:
            out |= low
        value >>= 1
        mask ^= low
    return out


ZERO, ONE, STAR = "0", "1", "*"


class TernaryPattern:
    """A query in {0,1,*}^dim. Stars match either bit value."""

    __slots__ = ("dim", "stars", "one_bits")

    def __init__(self, dim: int, stars: int, one_bits: int):
        m = _mask(dim)
        stars &= m
        one_bits &= m
        if stars & one_bits:
            raise ValueError("a coordinate cannot be both star and one")
        self.dim = dim
        self.stars = stars
        self.one_bits = one_bits

    @classmethod
    def parse(cls, text: str) -> "TernaryPattern":
        stars = one_bits = 0
        for i, ch in enumerate(text):
            if ch == STAR:
                stars |= 1 << i
            elif ch == ONE:
                one_bits |= 1 << i
            elif ch != ZERO:
                raise ValueError(f"bad pattern character {ch!r}")
        return cls(len(text), stars, one_bits)

    @classmethod
    def from_point(cls, point: BitVector, star_positions) -> "TernaryPattern":
        stars = 0
        for i in star_positions:
            stars |= 1 << i
        return cls(point.dim, stars, point.value & ~stars)

    def to_text(self) -> str:
        out = []
        for i in range(self.dim):
            if (self.stars >> i) & 1:
                out.append(STAR)
            elif (self.one_bits >> i) & 1:
                out.append(ONE)
            else:
                out.append(ZERO)
        return "".join(out)

    def star_count(self) -> int:
        return self.stars.bit_count()

    def star_positions(self) -> tuple[int, ...]:
        return tuple(BitVector(self.dim, self.stars).ones())

    def star_vector(self) -> BitVector:
        return BitVector(self.dim, self.stars)

    def ones_vector(self) -> BitVector:
        return BitVector(self.dim, self.one_bits)

    def matches(self, x: BitVector) -> bool:
        if x.dim != self.dim:
            raise ValueError(f"dimension mismatch: {x.dim} != {self.dim}")
        return (x.value ^ self.one_bits) & ~self.stars == 0

    def fill_stars(self, fill: BitVector) -> BitVector:
        """Replace stars with the given bits (fill coordinate j goes to the j-th star)."""
        return BitVector(self.dim, self.one_bits | fill.expand(self.star_vector()).value)

    def restrict(self, keep: BitVector) -> "TernaryPattern":
        """The coordinates set in keep, in ascending order."""
        if keep.dim != self.dim:
            raise ValueError(f"dimension mismatch: {keep.dim} != {self.dim}")
        return TernaryPattern(
            keep.popcount(), _extract(self.stars, keep.value), _extract(self.one_bits, keep.value)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TernaryPattern)
            and self.dim == other.dim
            and self.stars == other.stars
            and self.one_bits == other.one_bits
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.stars, self.one_bits))

    def __repr__(self) -> str:
        return f"TernaryPattern({self.to_text()!r})"


@dataclass(frozen=True)
class Dataset:
    """n points in {0,1}^dim."""

    dim: int
    points: tuple[BitVector, ...]

    def __post_init__(self):
        for p in self.points:
            if p.dim != self.dim:
                raise ValueError("all points must share the dataset dimension")

    @property
    def n(self) -> int:
        return len(self.points)

    def fingerprint(self) -> bytes:
        h = hashlib.sha256()
        h.update(f"{self.dim} {self.n}\n".encode())
        nbytes = (self.dim + 7) // 8
        for p in self.points:
            h.update(p.value.to_bytes(nbytes, "little"))
        return h.digest()

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.dim} {self.n}\n")
            for p in self.points:
                fh.write(p.to01() + "\n")

    @classmethod
    def load(cls, path) -> "Dataset":
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError("dataset header must be 'd n'")
            dim, n = int(header[0]), int(header[1])
            if n < 0:
                raise ValueError(f"dataset header gives a negative point count {n}")
            points = []
            for _ in range(n):
                line = fh.readline().strip()
                if len(line) != dim:
                    raise ValueError("dataset line length does not match header dimension")
                points.append(BitVector.from01(line))
            if fh.read().strip():
                raise ValueError(f"dataset holds more than the {n} points its header gives")
        return cls(dim, tuple(points))


def save_queries(path, queries) -> None:
    with open(path, "w") as fh:
        for q in queries:
            fh.write((q.to_text() if isinstance(q, TernaryPattern) else q.to01()) + "\n")


def load_pm_queries(path) -> list[TernaryPattern]:
    with open(path) as fh:
        return [TernaryPattern.parse(line.strip()) for line in fh if line.strip()]


def load_sq_queries(path) -> list[BitVector]:
    with open(path) as fh:
        return [BitVector.from01(line.strip()) for line in fh if line.strip()]


def match_pm(x: BitVector, y: TernaryPattern) -> bool:
    """True iff x agrees with y on every non-star coordinate."""
    return y.matches(x)


def subset_of(x: BitVector, y: BitVector) -> bool:
    """True iff every set coordinate of x is set in y."""
    return x.subset_of(y)
