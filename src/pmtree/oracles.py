"""Ground-truth matchers and the Monte-Carlo rate estimate.

Deliberately naive O(n*d) scans built only on the core predicates; these stay
independent of every protocol and compiler code path so they can judge them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitVector, Dataset, TernaryPattern, match_pm, subset_of


def brute_force_pm(dataset: Dataset, y: TernaryPattern) -> set[int]:
    if y.dim != dataset.dim:
        raise ValueError("query dimension must match the dataset")
    return {i for i, x in enumerate(dataset.points) if match_pm(x, y)}


def brute_force_sq(dataset: Dataset, y: BitVector) -> set[int]:
    if y.dim != dataset.dim:
        raise ValueError("query dimension must match the dataset")
    return {i for i, x in enumerate(dataset.points) if subset_of(x, y)}


@dataclass(frozen=True)
class RateEstimate:
    mean: float
    stderr: float
    trials: int
