"""Execution model for the four-party protocols.

Carries tagged messages with per-player bit accounting, replayable randomness
tapes split into a public stream (visible to the prover) and a private stream
(hidden until the prover's message is committed), and the shared parameter
derivations. All logarithms project-wide are base 2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .bits import BitVector


class Player(enum.Enum):
    ALICE = "A"
    BOB = "B"
    CAROL_PUB = "Cpub"
    CAROL_PRI = "Cpri"
    MERLIN = "M"

    # Members are singletons, so the identity hash is exact; unlike Enum's
    # hash of the name it runs in C, and Transcript keys a dict by Player on
    # every message.
    __hash__ = object.__hash__


# 2-bit status codebook for every "inform with O(1) bits" branch announcement.
STATUS_WIDTH = 2
CONTINUE = 0b00
OUT0 = 0b01
SMALL = 0b10
BIG = 0b11

PENDING = None


class Message:
    """One tagged message. The charged cost is nbits; labels are cosmetic."""

    __slots__ = ("sender", "value", "nbits", "label")

    def __init__(self, sender: Player, value: int, nbits: int, label: str = ""):
        if nbits < 0 or value < 0 or value >> nbits:
            raise ValueError("message value does not fit in nbits")
        self.sender = sender
        self.value = value
        self.nbits = nbits
        self.label = label

    def hex_payload(self) -> str:
        ndigits = max(1, (self.nbits + 3) // 4)
        return format(self.value, f"0{ndigits}x")

    def __eq__(self, other):
        return (
            isinstance(other, Message)
            and (self.sender, self.value, self.nbits, self.label)
            == (other.sender, other.value, other.nbits, other.label)
        )

    def __repr__(self):
        return f"Message({self.sender}, {self.value}, {self.nbits}, {self.label!r})"


class TranscriptError(Exception):
    pass


# Iterating an Enum runs Python code; a Transcript copies this instead.
_NO_BITS = dict.fromkeys(Player, 0)


class Transcript:
    """Ordered message log with per-player running bit totals and a final output."""

    __slots__ = ("messages", "bits", "output", "advice_committed")

    def __init__(self):
        self.messages: list[Message] = []
        self.bits: dict[Player, int] = _NO_BITS.copy()
        self.output = PENDING
        self.advice_committed = False

    def append(self, msg: Message) -> "Transcript":
        if self.output is not PENDING:
            raise TranscriptError("cannot append after the output is finalized")
        self.messages.append(msg)
        sender = msg.sender
        self.bits[sender] += msg.nbits
        if sender is Player.MERLIN:
            self.advice_committed = True
        return self

    def finalize(self, output: int) -> "Transcript":
        if self.output is not PENDING:
            raise TranscriptError("output already finalized")
        if output not in (0, 1):
            raise ValueError("output must be 0 or 1")
        self.output = output
        return self

    def require_advice_committed(self) -> None:
        if not self.advice_committed:
            raise TranscriptError("private-tape draw before the prover message was committed")

    @property
    def c_a(self) -> int:
        return self.bits[Player.ALICE]

    @property
    def c_b(self) -> int:
        return self.bits[Player.BOB]

    @property
    def c_c(self) -> int:
        return self.bits[Player.CAROL_PUB] + self.bits[Player.CAROL_PRI]

    @property
    def c_m(self) -> int:
        return self.bits[Player.MERLIN]

    def dump_lines(self) -> list[str]:
        return [
            f"{m.sender.value} {m.nbits} {m.label or '-'} {m.hex_payload()}"
            for m in self.messages
        ]


class Stream(enum.Enum):
    PUB = 0
    PRI = 1


_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomTape:
    """Counter-based tape: every draw is a pure function of (seed, stream, counter)."""

    __slots__ = ("seed", "stream", "counter", "_base")

    def __init__(self, seed: int, stream: Stream, counter: int = 0):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.stream = stream
        self.counter = counter
        self._base = _mix64(self.seed ^ (0xD6E8FEB86659FD93 if stream is Stream.PRI else 0))

    def clone(self) -> "RandomTape":
        # Copies the mixed seed rather than deriving it again in __init__.
        twin = object.__new__(RandomTape)
        twin.seed, twin.stream, twin.counter, twin._base = (
            self.seed, self.stream, self.counter, self._base
        )
        return twin

    def _block(self, counter: int, j: int) -> int:
        return _mix64(_mix64((self._base + (counter + 1) * _GOLDEN + j) & _MASK64))

    def draw_bits(self, nbits: int) -> int:
        """One counter tick yielding nbits uniform bits."""
        c = self.counter
        self.counter += 1
        if nbits <= 64:
            return _mix64(_mix64((self._base + (c + 1) * _GOLDEN) & _MASK64)) >> (64 - nbits) if nbits else 0
        out = 0
        for j in range((nbits + 63) // 64):
            out |= self._block(c, j * 0x632BE59BD9B4E019) << (64 * j)
        return out & ((1 << nbits) - 1)

    def draw_below(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection sampling, one tick per attempt."""
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        while True:
            v = self.draw_bits(k)
            if v < n:
                return v

    def draw_vector(self, dim: int) -> BitVector:
        return BitVector(dim, self.draw_bits(dim) if dim else 0)


@dataclass
class Tapes:
    """The public and private tape pair for one protocol run."""

    pub: RandomTape
    pri: RandomTape

    @classmethod
    def from_seed(cls, seed: int) -> "Tapes":
        return cls(RandomTape(seed, Stream.PUB), RandomTape(seed, Stream.PRI))

    def clone(self) -> "Tapes":
        return Tapes(self.pub.clone(), self.pri.clone())


class ParamError(ValueError):
    pass


@dataclass(frozen=True)
class ProtocolParams:
    """Shared parameter bundle for the subset-query and partial-match protocols.

    It holds no dimension: no protocol rule reads one, and a run's domain is
    its distribution's. Derived quantities follow the protocol headers with
    base-2 logs; h has an override hook so experiments can pin it directly.
    t_cap bounds the per-round sample count at desk scale; base_factor scales
    the threshold that routes small sparsity budgets to the base-case protocol
    (100 is the genuine value, tests shrink it to force the iterative path).
    """

    w: float
    eps: float
    delta: float
    t_cap: int | None = None
    base_factor: float = 100.0
    h_override: float | None = None

    def __post_init__(self):
        if not 1 <= self.w:
            raise ParamError("sparsity budget must be at least 1")
        if not 0 < self.delta <= self.eps < 0.5:
            raise ParamError("need 0 < delta <= eps < 0.5")
        if self.t_cap is not None and self.t_cap < 1:
            raise ParamError(f"sample cap t_cap must be at least 1, not {self.t_cap}")

    @property
    def ell(self) -> float:
        return math.sqrt(self.w / math.log2(self.w / self.eps))

    @property
    def eps_prime(self) -> float:
        return self.eps / (20.0 * self.ell)

    @property
    def delta_prime(self) -> float:
        return self.delta / 10.0

    @property
    def t(self) -> int:
        """Conditioned samples per round; counts take ceilings, caps apply after."""
        ep = self.eps_prime
        t = math.ceil((10.0 / ep) * math.log2(1.0 / ep))
        if self.t_cap is not None:
            t = min(t, self.t_cap)
        return max(t, 1)

    @property
    def h(self) -> float:
        if self.h_override is not None:
            return self.h_override
        return math.log2(1.0 / self.eps_prime)

    @property
    def max_iters(self) -> int:
        return max(1, math.ceil(2.0 * self.ell))

    def is_base_case(self) -> bool:
        return self.w <= self.base_factor * math.log2(self.w / self.eps)


def derive_params(
    d: int,
    w: float,
    eps: float,
    delta: float,
    *,
    t_cap: int | None = None,
    base_factor: float = 100.0,
    **overrides,
) -> ProtocolParams:
    """Build a ProtocolParams with the standard derived quantities.

    The protocol analysis assumes eps < 0.1; we admit the whole open range
    below 0.5 because the desk-scale experiment presets run up to eps = 0.5.
    """
    if not 1 <= w <= d:
        raise ParamError("need 1 <= w <= d")
    return ProtocolParams(
        w=w, eps=eps, delta=delta, t_cap=t_cap, base_factor=base_factor, **overrides
    )


def status_message(sender: Player, tag: int, label: str) -> Message:
    return Message(sender, tag, STATUS_WIDTH, label)


def batch_message(sender: Player, vectors, dim: int, label: str) -> Message:
    """One message carrying the vectors packed dim bits apart."""
    packed = 0
    for i, v in enumerate(vectors):
        packed |= v.value << (i * dim)
    return Message(sender, packed, len(vectors) * dim, label)


def index_width(count: int) -> int:
    """Fixed-width encoding for an index below count."""
    if count <= 1:
        return 0
    return (count - 1).bit_length()
