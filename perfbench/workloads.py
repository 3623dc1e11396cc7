"""Seeded inputs for the benchmark workloads.

Inputs come from `random.Random`, not from pmtree's own tapes, so the program
under test receives only the generated points and queries. The same
(workload, seed, size) always gives the same inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from pmtree.bits import BitVector, Dataset, TernaryPattern
from pmtree.engine import ProtocolParams, derive_params
from pmtree.presets import desk_params

# The iterative tree's size swings almost fourfold with its dataset. Over
# dataset seeds 1..11 (n=96, d=11, tree seed = dataset seed) it has
# 76 508, 129 138, 172 520, 289 263, 90 820, 81 776, 243 956, 158 264,
# 176 359, 90 920 and 91 958 nodes. On one tree, the mean scan count of 400
# random queries still moves by 13% from query seed to query seed. Either
# would drown every figure in seed noise, so the dataset, tree seed and query
# pool are fixed, and --seed only shuffles the query order. Seed 2 gives the
# median tree of the eleven: 129 138 nodes, 2.07 MB serialized.
PM_ITER_DATA_SEED = 2


@dataclass(frozen=True)
class Spec:
    name: str
    n: int
    d: int
    w: int
    queries: int  # distinct queries, each checked against the oracles


@dataclass
class Inputs:
    spec: Spec
    dataset: Dataset
    params: ProtocolParams
    tree_seed: int
    queries: list[TernaryPattern]
    anchors: list  # dataset index each planted query was cut from, else None


def wide_w(n: int, d: int) -> int:
    """pm-wide's star budget, w = ceil(1.5 * log2 n): the paper's c > 1 regime."""
    return min(d, math.ceil(1.5 * math.log2(n)))


def resized(spec: Spec, n: int) -> Spec:
    """The same workload over n points."""
    w = wide_w(n, spec.d) if spec.name == "pm-wide" else spec.w
    return replace(spec, n=n, w=w)


# A round is one build, one load and one pass over the distinct queries.
SPECS = {
    s.name: s
    for s in (
        Spec("pm-desk", n=65536, d=64, w=4, queries=64),
        Spec("pm-wide", n=8192, d=64, w=wide_w(8192, 64), queries=64),
        Spec("pm-iter", n=96, d=11, w=6, queries=400),
    )
}


def _stars(rng: random.Random, d: int, k: int) -> int:
    mask = 0
    for i in rng.sample(range(d), k):
        mask |= 1 << i
    return mask


def raw_pm(values: list[int], stars: int, ones: int) -> set[int]:
    """Independent partial-match answer on raw integers."""
    keep = ~stars
    return {i for i, x in enumerate(values) if (x ^ ones) & keep == 0}


def make(spec: Spec, seed: int) -> Inputs:
    if spec.name == "pm-iter":
        return _pm_iter(spec, seed)
    rng = random.Random(f"{spec.name}/{seed}")
    d = spec.d
    values = [rng.getrandbits(d) for _ in range(spec.n)]
    queries, anchors = [], []
    for k in range(spec.queries):
        stars = _stars(rng, d, spec.w)
        if k % 2 == 0:
            # Planted: the stars are cut out of a dataset point.
            anchor = rng.randrange(spec.n)
            ones = values[anchor] & ~stars
        else:
            # Random pattern, redrawn until nothing matches it.
            anchor = None
            ones = rng.getrandbits(d) & ~stars
            while raw_pm(values, stars, ones):
                ones = rng.getrandbits(d) & ~stars
        queries.append(TernaryPattern(d, stars, ones))
        anchors.append(anchor)
    dataset = Dataset(d, tuple(BitVector(d, v) for v in values))
    return Inputs(spec, dataset, desk_params(spec.n, d, spec.w), seed, queries, anchors)


def _pm_iter(spec: Spec, seed: int) -> Inputs:
    # A fixed dataset and query pool; the seed only shuffles the query order
    # (see PM_ITER_DATA_SEED).
    d = spec.d
    data_rng = random.Random(f"{spec.name}/data/{PM_ITER_DATA_SEED}")
    values = [data_rng.getrandbits(d) for _ in range(spec.n)]
    queries = []
    for _ in range(spec.queries):
        stars = _stars(data_rng, d, spec.w)
        queries.append(TernaryPattern(d, stars, data_rng.getrandbits(d) & ~stars))
    random.Random(f"{spec.name}/{seed}").shuffle(queries)
    params = derive_params(d, spec.w, 0.25, 0.05, t_cap=3, base_factor=1.0)
    dataset = Dataset(d, tuple(BitVector(d, v) for v in values))
    return Inputs(spec, dataset, params, PM_ITER_DATA_SEED, queries, [None] * len(queries))
