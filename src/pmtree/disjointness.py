"""Two-party set-disjointness under a product distribution, prover-free.

The containment view of the iterative protocol, run between two ordinary
players with the randomness folded into a shared seed: rounds shed sampled
sets that sit inside the complement of Bob's set, and once Alice's residual
is small she sends it outright for an exact check. Declaring "intersecting"
can be wrong (that is the type II error the seed is chosen to keep small);
declaring "disjoint" never is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

from .bits import BitVector, Dataset
from .dist import EmpiricalDistribution
from .engine import RandomTape, Stream, index_width
from .generators import distinct_positions
from .oracles import RateEstimate
from .sq_protocol import draw_conditioned_batch


@dataclass(frozen=True)
class StdParams:
    d: int
    ell: int
    eps: float

    def __post_init__(self):
        if self.d < 1 or self.ell < 1:
            raise ValueError("need d >= 1 and ell >= 1")
        if not 0 < self.eps < 0.5:
            raise ValueError("need 0 < eps < 0.5")

    @property
    def theta(self) -> int:
        """Minimum size of shed samples; also the explicit-send threshold."""
        return math.ceil(self.d / self.ell)

    @property
    def round_samples(self) -> int:
        return math.ceil(8.0 * self.ell / self.eps)

    def alice_budget(self) -> float:
        return self.ell + math.ceil(self.d / self.ell) * math.log2(3 * math.e * self.ell)

    def bob_budget(self) -> float:
        return 2.0 * self.ell * math.log2(16.0 * self.ell / self.eps)


@dataclass(frozen=True)
class StdRunResult:
    output: int  # 1 = declared disjoint, 0 = declared intersecting
    a_bits: int
    b_bits: int
    rounds: int


def run_std(
    lam: EmpiricalDistribution, x: BitVector, y: BitVector, seed: int, params: StdParams
) -> StdRunResult:
    """One deterministic-given-seed run deciding whether x and y intersect."""
    d = params.d
    if x.dim != d or y.dim != d or lam.dim != d:
        raise ValueError("inputs must have the protocol dimension")
    tape = RandomTape(seed, Stream.PUB)
    theta = params.theta
    t = params.round_samples

    x_cur = x
    ybar_cur = y.complement()
    dist_cur = lam
    a_bits = 0
    b_bits = 0

    for rnd in range(params.ell):
        a_bits += 1  # size-class announcement
        if x_cur.popcount() <= theta:
            k = x_cur.popcount()
            size_field = index_width(theta + 1)
            rank_field = index_width(comb(dist_cur.dim, k))
            a_bits += size_field + rank_field
            b_bits += 1  # verdict
            ok = x_cur.subset_of(ybar_cur)
            return StdRunResult(1 if ok else 0, a_bits, b_bits, rnd + 1)

        batch = draw_conditioned_batch(dist_cur, theta - 0.5, dist_cur.dim, t, tape)
        if batch is None:
            b_bits += 1
            return StdRunResult(0, a_bits, b_bits, rnd + 1)

        istar = next((i for i, xi in enumerate(batch) if xi.subset_of(ybar_cur)), None)
        if istar is None:
            b_bits += 1
            return StdRunResult(0, a_bits, b_bits, rnd + 1)
        b_bits += 1 + index_width(t)
        keep = batch[istar].complement()
        x_cur = x_cur.restrict(keep)
        ybar_cur = ybar_cur.restrict(keep)
        dist_cur = dist_cur.restrict_dist(keep)

    raise AssertionError("residual domain must be exhausted within ell rounds")


@dataclass(frozen=True)
class FixResult:
    seed: int
    heldout: RateEstimate
    estimates: dict[int, float]


def _wrong_verdicts(
    lam: EmpiricalDistribution, rho: EmpiricalDistribution, params: StdParams, seed: int,
    trials: int, tape: RandomTape,
) -> int:
    """How many of trials fresh pairs from tape run_std with seed decides wrongly."""
    wrong = 0
    for _ in range(trials):
        x, y = lam.sample(tape), rho.sample(tape)
        truth = 0 if x.intersects(y) else 1
        wrong += run_std(lam, x, y, seed, params).output != truth
    return wrong


def fix_randomness(
    lam: EmpiricalDistribution,
    rho: EmpiricalDistribution,
    params: StdParams,
    candidate_seeds: list[int],
    trials: int,
    eval_seed: int = 0,
) -> FixResult:
    """Pick the candidate seed with the lowest estimated error, then estimate
    the chosen seed's error again on fresh pairs."""
    if not candidate_seeds:
        raise ValueError("need at least one candidate seed")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    estimates: dict[int, float] = {}
    for cand in candidate_seeds:
        sel_tape = RandomTape(eval_seed ^ (cand * 0x9E3779B97F4A7C15), Stream.PUB)
        estimates[cand] = _wrong_verdicts(lam, rho, params, cand, trials, sel_tape) / trials
    chosen = min(candidate_seeds, key=lambda s: (estimates[s], s))

    held_tape = RandomTape(eval_seed ^ (chosen * 0x9E3779B97F4A7C15), Stream.PRI)
    p = _wrong_verdicts(lam, rho, params, chosen, trials, held_tape) / trials
    heldout = RateEstimate(p, math.sqrt(p * (1 - p) / trials), trials)
    return FixResult(chosen, heldout, estimates)


def random_fixed_size_set(dim: int, k: int, tape: RandomTape) -> BitVector:
    """Uniform subset of [dim] with exactly k elements."""
    if not 0 <= k <= dim:
        raise ValueError("need 0 <= k <= dim")
    return BitVector.from_ones(dim, distinct_positions(tape, dim, k))


def uniform_size_dataset(dim: int, k: int, n: int, seed: int) -> Dataset:
    """Empirical stand-in for the uniform size-k distribution: n i.i.d. draws."""
    tape = RandomTape(seed, Stream.PUB)
    return Dataset(dim, tuple(random_fixed_size_set(dim, k, tape) for _ in range(n)))
