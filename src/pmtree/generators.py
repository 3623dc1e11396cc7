"""Instance generators with planted ground truth.

Every instance carries its expected answers, recomputed from the brute-force
oracles at construction time, so downstream checks never trust the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitVector, Dataset, TernaryPattern
from .engine import RandomTape, Stream
from .oracles import brute_force_pm, brute_force_sq


@dataclass(frozen=True)
class Instance:
    kind: str
    seed: int
    params: dict
    dataset: Dataset
    queries: tuple
    truth: tuple[frozenset[int], ...]
    special: int | None = None


def _bernoulli(tape: RandomTape, p: float) -> int:
    return 1 if tape.draw_bits(53) < p * (1 << 53) else 0


def _bernoulli_vector(tape: RandomTape, dim: int, p: float) -> BitVector:
    value = 0
    for i in range(dim):
        value |= _bernoulli(tape, p) << i
    return BitVector(dim, value)


def distinct_positions(tape: RandomTape, dim: int, k: int) -> list[int]:
    """k distinct coordinates of [0, dim), ascending (partial Fisher-Yates)."""
    pool = list(range(dim))
    for i in range(k):
        j = i + tape.draw_below(dim - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


def gen_planted(n: int, d: int, w: int, n_queries: int, seed: int) -> Instance:
    """Uniform dataset; each query stars w coordinates of some dataset point,
    so at least one match is guaranteed."""
    if not 0 <= w <= d:
        raise ValueError("need 0 <= w <= d")
    tape = RandomTape(seed, Stream.PUB)
    points = tuple(tape.draw_vector(d) for _ in range(n))
    dataset = Dataset(d, points)
    queries = []
    for _ in range(n_queries):
        anchor = points[tape.draw_below(n)]
        stars = distinct_positions(tape, d, w)
        queries.append(TernaryPattern.from_point(anchor, stars))
    truth = tuple(frozenset(brute_force_pm(dataset, q)) for q in queries)
    for t in truth:
        assert t, "planted query lost its anchor match"
    return Instance(
        "planted", seed, {"n": n, "d": d, "w": w, "n_queries": n_queries},
        dataset, tuple(queries), truth,
    )


def gen_random_sq(n: int, d: int, w_u: float, w_q: float, seed: int) -> Instance:
    """Random containment instance: query bits Bernoulli(w_q), background
    points Bernoulli(w_u), and one planted point drawn inside the query
    (Bernoulli(w_u / w_q) on the query's ones, zero elsewhere)."""
    if not 0.0 < w_u <= w_q < 1.0:
        raise ValueError("need 0 < w_u <= w_q < 1")
    tape = RandomTape(seed, Stream.PUB)
    y = _bernoulli_vector(tape, d, w_q)
    points = [_bernoulli_vector(tape, d, w_u) for _ in range(n - 1)]
    ratio = w_u / w_q
    special_value = 0
    for i in y.ones():
        special_value |= _bernoulli(tape, ratio) << i
    special = BitVector(d, special_value)
    points.append(special)
    dataset = Dataset(d, tuple(points))
    truth = (frozenset(brute_force_sq(dataset, y)),)
    assert special.subset_of(y)
    assert n - 1 in truth[0]
    return Instance(
        "random-sq", seed, {"n": n, "d": d, "w_u": w_u, "w_q": w_q},
        dataset, (y,), truth, special=n - 1,
    )


def random_pattern_query(dim: int, n_stars: int, tape: RandomTape) -> TernaryPattern:
    """Random ternary query: uniform bits with n_stars starred coordinates."""
    base = tape.draw_vector(dim)
    stars = distinct_positions(tape, dim, n_stars)
    return TernaryPattern.from_point(base, stars)


def nonmatching_pm_queries(
    dataset: Dataset, n_stars: int, count: int, seed: int, max_attempts: int = 100000
) -> list[TernaryPattern]:
    """Random ternary queries with no match in the dataset (rejection sampled)."""
    tape = RandomTape(seed, Stream.PUB)
    out: list[TernaryPattern] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError("could not find enough non-matching queries")
        q = random_pattern_query(dataset.dim, n_stars, tape)
        if not brute_force_pm(dataset, q):
            out.append(q)
    return out
