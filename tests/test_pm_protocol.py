import math
from itertools import product

import pytest

from pmtree.bits import BitVector, Dataset, TernaryPattern, match_pm
from pmtree.dist import EmpiricalDistribution
from pmtree.engine import RandomTape, Stream, Tapes, Transcript, derive_params
from pmtree.generators import random_pattern_query
from pmtree.oracles import brute_force_pm
from pmtree.pm_protocol import (
    pm_exec,
    pm_gap,
    pm_round_samples,
    recursion_depth_cap,
    run_pm,
    unmatched_count,
)
from pmtree.sq_protocol import AdviceFeed, ProtocolError, honest_advice


def _all_patterns(d):
    for code in range(3**d):
        stars = ones = 0
        c = code
        for i in range(d):
            sym = c % 3
            c //= 3
            if sym == 1:
                ones |= 1 << i
            elif sym == 2:
                stars |= 1 << i
        yield TernaryPattern(d, stars, ones)


def test_recenter_reduction_claim_exhaustive_d4():
    # x matches y  <=>  ones(x^X) inside stars+ones of the re-centered pattern
    # and the re-centered ones inside ones(x^X), for every anchor X.
    d = 4
    mask = (1 << d) - 1
    for y in _all_patterns(d):
        for x_bits, anchor_bits in product(range(1 << d), repeat=2):
            x = BitVector(d, x_bits)
            xp = x_bits ^ anchor_bits
            disagree = (y.one_bits ^ anchor_bits) & ~y.stars & mask
            allowed = y.stars | disagree
            lhs = match_pm(x, y)
            rhs = (xp & ~allowed & mask) == 0 and (disagree & ~xp & mask) == 0
            assert lhs == rhs


def test_unmatched_count():
    y = TernaryPattern.parse("1*0*")
    assert unmatched_count(BitVector.from01("1000"), y) == 0
    assert unmatched_count(BitVector.from01("0010"), y) == 2
    assert unmatched_count(BitVector.from01("1110"), y) == 1


def test_completeness_exhaustive_small():
    d = 4
    cube = Dataset(d, tuple(BitVector(d, v) for v in range(1 << d)))
    lam = EmpiricalDistribution(cube)
    params = derive_params(d, d, 0.25, 0.05, t_cap=16)
    for y in _all_patterns(d):
        free = y.star_count()
        for fill in range(1 << free):
            x = y.fill_stars(BitVector(free, fill))
            for seed in (0, 1):
                tr = run_pm(params, lam, x, y, None, Tapes.from_seed(seed))
                assert tr.output == 1


def test_completeness_monte_carlo_d64():
    d, n, w = 64, 128, 16
    tape = RandomTape(17, Stream.PUB)
    pts = tuple(BitVector(d, tape.draw_bits(d)) for _ in range(n))
    lam = EmpiricalDistribution(Dataset(d, pts))
    params = derive_params(d, w, 0.25, 0.01, t_cap=128)
    for trial in range(300):
        x = pts[tape.draw_below(n)]
        stars = sorted({tape.draw_below(d) for _ in range(w)})
        y = TernaryPattern.from_point(x, stars)
        tr = run_pm(params, lam, x, y, None, Tapes.from_seed(trial))
        assert tr.output == 1


def test_completeness_forced_loop():
    d, n, w = 10, 10, 6
    tape = RandomTape(18, Stream.PUB)
    pts = tuple(BitVector(d, tape.draw_bits(d) & tape.draw_bits(d)) for _ in range(n))
    lam = EmpiricalDistribution(Dataset(d, pts))
    params = derive_params(d, w, 0.25, 0.05, t_cap=3, base_factor=1.0)
    assert not params.is_base_case()
    for trial in range(300):
        x = pts[tape.draw_below(n)]
        stars = sorted({tape.draw_below(d) for _ in range(w)})
        y = TernaryPattern.from_point(x, stars)
        tr = run_pm(params, lam, x, y, None, Tapes.from_seed(trial))
        assert tr.output == 1


def test_false_positive_mass():
    d, n, w = 32, 128, 6
    eps, delta = 0.25, 0.05
    tape = RandomTape(19, Stream.PUB)
    pts = tuple(BitVector(d, tape.draw_bits(d)) for _ in range(n))
    lam = EmpiricalDistribution(Dataset(d, pts))
    params = derive_params(d, w, eps, delta, t_cap=64)
    fp = trials = 0
    for trial in range(2500):
        x = pts[tape.draw_below(n)]
        stars = sorted({tape.draw_below(d) for _ in range(w)})
        y = TernaryPattern.from_point(BitVector(d, tape.draw_bits(d)), stars)
        trials += 1
        tr = run_pm(params, lam, x, y, None, Tapes.from_seed(trial))
        if tr.output == 1 and not match_pm(x, y):
            fp += 1
    bound = eps + delta
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert fp / trials <= bound + 3 * sigma


def test_heavy_shift_rejects():
    # The only dataset point nearly matches y but differs from x almost everywhere.
    d, w = 12, 6
    anchor = BitVector(d, 0)
    ds = Dataset(d, (anchor,))
    lam = EmpiricalDistribution(ds)
    params = derive_params(d, w, 0.25, 0.05, t_cap=2, base_factor=1.0, h_override=0.5)
    assert not params.is_base_case()
    y = TernaryPattern(d, stars=0b111111, one_bits=0)  # anchor matches exactly
    x = BitVector(d, (1 << d) - 1)  # shift weight d > w + h
    tr = run_pm(params, lam, x, y, None, Tapes.from_seed(2))
    assert tr.output == 0
    assert any(m.label == "shift-too-heavy" for m in tr.messages)


def test_halving_none_accepts_and_matches_are_never_rejected():
    # h = 0.5 sends most runs to the halving step; with one star, all five
    # drawn sets hold it in about one run in 32, and the run accepts.
    d, n, w = 12, 16, 1
    tape = RandomTape(1, Stream.PUB)
    ds = Dataset(d, tuple(BitVector(d, tape.draw_bits(d)) for _ in range(n)))
    lam = EmpiricalDistribution(ds)
    params = derive_params(d, w, 0.45, 0.45, t_cap=2, base_factor=0.5, h_override=0.5)
    tape = RandomTape(9, Stream.PUB)
    nones = 0
    for i in range(300):
        k = tape.draw_below(n)
        y = random_pattern_query(d, w, tape)
        if i % 2 == 0:
            y = TernaryPattern(d, y.stars, ds.points[k].value & ~y.stars)
        tr = run_pm(params, lam, ds.points[k], y, None, Tapes.from_seed(i))
        if any(m.label == "halving-none" for m in tr.messages):
            nones += 1
            assert tr.output == 1
        if k in brute_force_pm(ds, y):
            assert tr.output == 1
    assert nones > 0


def test_advice_two_segments_on_recenter_path():
    d, n, w = 10, 8, 6
    tape = RandomTape(23, Stream.PUB)
    pts = tuple(BitVector(d, tape.draw_bits(d) & tape.draw_bits(d)) for _ in range(n))
    lam = EmpiricalDistribution(Dataset(d, pts))
    params = derive_params(d, w, 0.25, 0.05, t_cap=3, base_factor=1.0)
    seen_two = False
    for trial in range(120):
        x = pts[tape.draw_below(n)]
        stars = sorted({tape.draw_below(d) for _ in range(w)})
        y = TernaryPattern.from_point(x, stars)
        adv = honest_advice(pm_exec, params, lam, x, y, RandomTape(trial, Stream.PUB))
        tr = run_pm(params, lam, x, y, None, Tapes.from_seed(trial))
        if any(m.label == "xi-found" for m in tr.messages) and not any(
            m.label == "size-small" or m.label == "size-ok" for m in tr.messages
        ):
            # re-centered path without an inner parity stage contributes only
            # the reverse-check segment
            assert len(adv) >= 1
        if len(adv) == 2:
            seen_two = True
            # An exhausted feed sends all ones, as wide as each honest segment
            # (the public-cap width in the swapped reverse check).
            starved = run_pm(params, lam, x, y, (), Tapes.from_seed(trial))
            sent = [(m.value, m.nbits) for m in starved.messages if m.label == "advice"]
            assert sent == [((1 << a.width) - 1, a.width) for a in adv]
        explicit = run_pm(params, lam, x, y, adv, Tapes.from_seed(trial))
        assert explicit.output == tr.output == 1
    assert seen_two


def test_advice_replay_determinism():
    d, n, w = 12, 10, 6
    tape = RandomTape(29, Stream.PUB)
    pts = tuple(BitVector(d, tape.draw_bits(d)) for _ in range(n))
    lam = EmpiricalDistribution(Dataset(d, pts))
    params = derive_params(d, w, 0.25, 0.05, t_cap=8)
    for trial in range(60):
        x = pts[tape.draw_below(n)]
        stars = sorted({tape.draw_below(d) for _ in range(w)})
        y = TernaryPattern.from_point(BitVector(d, tape.draw_bits(d)), stars)
        a1 = honest_advice(pm_exec, params, lam, x, y, RandomTape(trial, Stream.PUB))
        a2 = honest_advice(pm_exec, params, lam, x, y, RandomTape(trial, Stream.PUB))
        assert a1 == a2


def test_recursion_depth_cap_formula():
    params = derive_params(128, 16, 0.25, 0.05)
    assert recursion_depth_cap(params) == math.ceil(2 * math.log2(16 / 2))
    tiny = derive_params(16, 2, 0.001, 0.001)
    assert recursion_depth_cap(tiny) == 0


def test_round_samples_and_gap():
    uncapped = math.ceil((100 / 0.25) * math.log2(10 / 0.25))
    params = derive_params(64, 16, 0.25, 0.05)
    assert pm_round_samples(params) == uncapped
    capped = derive_params(64, 16, 0.25, 0.05, t_cap=32)
    assert pm_round_samples(capped) == 32
    assert math.isclose(pm_gap(params), math.log2(40))


def test_star_budget_validation():
    lam = EmpiricalDistribution(Dataset(4, (BitVector(4, 1),)))
    params = derive_params(4, 2, 0.25, 0.05)
    with pytest.raises(ValueError):
        run_pm(params, lam, BitVector(4, 0), TernaryPattern.parse("***0"), None,
               Tapes.from_seed(1))


def test_depth_bound_raises_protocol_error():
    # The bound must hold under python -O too, so it is not an assert.
    d = 8
    x = BitVector.from01("10110001")
    lam = EmpiricalDistribution(Dataset(d, (x,)))
    params = derive_params(d, 4, 0.25, 0.05)
    y = TernaryPattern.parse("1*1*0*0*")
    with pytest.raises(ProtocolError, match="depth bound"):
        pm_exec(params, lam, x, y, Tapes.from_seed(1), Transcript(), AdviceFeed(), depth=3, depth_cap=1)
