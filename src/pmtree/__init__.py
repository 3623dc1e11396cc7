"""Wildcard and subset search structures compiled from randomized protocols."""

from .bits import (
    BitVector,
    Dataset,
    TernaryPattern,
    match_pm,
    subset_of,
)
from .dist import EmpiricalDistribution
from .engine import (
    Message,
    Player,
    ProtocolParams,
    RandomTape,
    Stream,
    Tapes,
    Transcript,
    derive_params,
)

__all__ = [
    "BitVector",
    "Dataset",
    "TernaryPattern",
    "match_pm",
    "subset_of",
    "EmpiricalDistribution",
    "Message",
    "Player",
    "ProtocolParams",
    "RandomTape",
    "Stream",
    "Tapes",
    "Transcript",
    "derive_params",
]

__version__ = "0.1.0"
