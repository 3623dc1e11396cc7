import math

import pytest

from pmtree.bits import BitVector, Dataset
from pmtree.dist import EmpiricalDistribution
from pmtree.disjointness import (
    StdParams,
    fix_randomness,
    random_fixed_size_set,
    run_std,
    uniform_size_dataset,
)
from pmtree.engine import RandomTape, Stream
from pmtree.reports import mean


def _params(d, eps=0.2):
    ell = math.ceil(math.sqrt(d / math.log2(1 / eps)))
    return StdParams(d, ell, eps)


def exact_disjoint_probability(d: int, k: int, l: int) -> float:
    """Closed form for uniform fixed-size sets: C(d-k, l) / C(d, l)."""
    if k + l > d:
        return 0.0
    return math.comb(d - k, l) / math.comb(d, l)


def disjoint_probability_check(
    d: int, k: int, l: int, eps: float, trials: int = 20000, seed: int = 7
) -> bool:
    """Generator sanity oracle: empirical disjoint rate of uniform size-k vs
    size-l sets stays above eps minus three standard errors.

    Hypothesis bound taken non-strictly; the underlying estimate still holds
    with equality.
    """
    if k == 0 or l == 0:
        return True
    if not (k <= l < d / 3.0):
        raise ValueError("need k <= l < d/3")
    if k * l > d * math.log(1.0 / eps) / 3.0:
        raise ValueError("need k*l <= d*ln(1/eps)/3")
    tape = RandomTape(seed, Stream.PUB)
    hits = 0
    for _ in range(trials):
        x = random_fixed_size_set(d, k, tape)
        yv = random_fixed_size_set(d, l, tape)
        hits += 0 if x.intersects(yv) else 1
    p = hits / trials
    sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
    return p >= eps - 3.0 * sigma


def test_intersecting_pairs_never_declared_disjoint_exhaustive():
    d = 6
    params = StdParams(d, 2, 0.2)
    pts = tuple(BitVector(d, v) for v in range(1, 1 << d, 3))
    lam = EmpiricalDistribution(Dataset(d, pts))
    for x in pts:
        for y in pts:
            res = run_std(lam, x, y, seed=9, params=params)
            if x.intersects(y):
                assert res.output == 0
            # declared disjoint must always be correct
            if res.output == 1:
                assert not x.intersects(y)


def test_bit_ceilings_hold_on_every_run():
    for d in (32, 64):
        params = _params(d)
        theta = params.theta
        lam = EmpiricalDistribution(uniform_size_dataset(d, theta + 3, 64, seed=1))
        rho = EmpiricalDistribution(uniform_size_dataset(d, theta, 64, seed=2))
        tape = RandomTape(3, Stream.PUB)
        for i in range(800):
            x, y = lam.sample(tape), rho.sample(tape)
            res = run_std(lam, x, y, seed=31 + i % 4, params=params)
            assert res.a_bits <= params.alice_budget()
            assert res.b_bits <= params.bob_budget()
            assert 1 <= res.rounds <= params.ell


def test_small_set_short_circuits_exactly():
    d = 32
    params = _params(d)
    k = max(1, params.theta // 2)
    lam = EmpiricalDistribution(uniform_size_dataset(d, k, 64, seed=4))
    rho = EmpiricalDistribution(uniform_size_dataset(d, 8, 64, seed=5))
    tape = RandomTape(6, Stream.PUB)
    for i in range(500):
        x, y = lam.sample(tape), rho.sample(tape)
        res = run_std(lam, x, y, seed=7, params=params)
        assert res.rounds == 1
        assert res.output == (0 if x.intersects(y) else 1)


def test_type_two_error_within_budget():
    d = 32
    params = _params(d)
    lam = EmpiricalDistribution(uniform_size_dataset(d, params.theta + 4, 128, seed=8))
    rho = EmpiricalDistribution(uniform_size_dataset(d, 8, 128, seed=9))
    tape = RandomTape(10, Stream.PUB)
    trials, wrong = 3000, 0
    for i in range(trials):
        x, y = lam.sample(tape), rho.sample(tape)
        res = run_std(lam, x, y, seed=11, params=params)
        truth = 0 if x.intersects(y) else 1
        if res.output != truth:
            wrong += 1
            assert truth == 1  # errors only on disjoint pairs
    sigma = math.sqrt(params.eps * (1 - params.eps) / trials)
    assert wrong / trials <= params.eps + 3 * sigma


def test_fix_randomness_single_candidate():
    d = 32
    params = _params(d)
    lam = EmpiricalDistribution(uniform_size_dataset(d, 12, 64, seed=12))
    rho = EmpiricalDistribution(uniform_size_dataset(d, 8, 64, seed=13))
    res = fix_randomness(lam, rho, params, [77], trials=50, eval_seed=1)
    assert res.seed == 77


def test_fix_randomness_min_at_most_mean_and_heldout():
    d = 32
    params = _params(d)
    lam = EmpiricalDistribution(uniform_size_dataset(d, params.theta + 4, 64, seed=14))
    rho = EmpiricalDistribution(uniform_size_dataset(d, 8, 64, seed=15))
    res = fix_randomness(lam, rho, params, list(range(8)), trials=100, eval_seed=2)
    avg = mean(res.estimates.values())
    assert res.estimates[res.seed] <= avg + 1e-12
    assert res.heldout.mean <= 2 * params.eps + 3 * res.heldout.stderr


def test_random_fixed_size_set():
    tape = RandomTape(16, Stream.PUB)
    for k in (0, 1, 5, 12):
        v = random_fixed_size_set(24, k, tape)
        assert v.popcount() == k
    with pytest.raises(ValueError):
        random_fixed_size_set(4, 5, tape)


def test_uniform_size_dataset_properties():
    ds = uniform_size_dataset(20, 7, 50, seed=17)
    assert all(p.popcount() == 7 for p in ds.points)
    assert uniform_size_dataset(20, 7, 50, seed=17) == ds


def test_exact_disjoint_probability():
    assert exact_disjoint_probability(4, 1, 1) == 0.75
    assert exact_disjoint_probability(6, 3, 3) == 1 / math.comb(6, 3)
    assert exact_disjoint_probability(4, 3, 3) == 0.0


def test_disjoint_probability_check_closed_form_cases():
    # d=6, k=l=1: exact disjoint probability 5/6 >= 0.5 and the hypothesis holds
    assert exact_disjoint_probability(6, 1, 1) == 5 / 6
    assert disjoint_probability_check(6, 1, 1, 0.5, trials=20000, seed=18)
    assert disjoint_probability_check(300, 5, 10, math.exp(-0.5), trials=4000, seed=19)
    assert disjoint_probability_check(10, 0, 3, 0.9)


def test_disjoint_probability_check_rejects_bad_hypotheses():
    with pytest.raises(ValueError):
        disjoint_probability_check(9, 3, 4, 0.2)  # l >= d/3
    with pytest.raises(ValueError):
        disjoint_probability_check(100, 9, 10, 0.45)  # k*l over the budget


def test_monte_carlo_matches_closed_form():
    d, k, l = 24, 3, 4
    tape = RandomTape(20, Stream.PUB)
    trials = 20000
    hits = 0
    for _ in range(trials):
        x = random_fixed_size_set(d, k, tape)
        y = random_fixed_size_set(d, l, tape)
        hits += 0 if x.intersects(y) else 1
    p_exact = exact_disjoint_probability(d, k, l)
    sigma = math.sqrt(p_exact * (1 - p_exact) / trials)
    assert abs(hits / trials - p_exact) <= 3 * sigma
