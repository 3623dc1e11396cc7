import math
from itertools import combinations

import pytest

from pmtree.base_protocol import (
    PM,
    SQ,
    BaseAdvice,
    DecodeError,
    decode_failed_sentinel,
    rank_subset,
    reconstruct,
    run_base,
    special_advice,
    sq_advice_width,
    subset_count,
    unrank_subset,
)
from pmtree.bits import BitVector, TernaryPattern
from pmtree.engine import Player, Tapes


def test_subset_count_examples():
    assert subset_count(4, 2) == 1 + 4 + 6
    assert subset_count(3, 3) == 8
    assert subset_count(5, 0) == 1


def test_rank_of_empty_set_is_zero():
    y = BitVector.from01("011101")
    assert rank_subset(y, BitVector(6, 0), 3) == 0


def test_rank_example_from_small_list():
    # subsets of {1,2,3} up to size 2, length-lex: {}, {1}, {2}, {3}, {1,2}, {1,3}, {2,3}
    y = BitVector.from01("0111")
    s = BitVector.from01("0010")
    assert rank_subset(y, s, 2) == 2
    assert rank_subset(y, BitVector.from01("0101"), 2) == 5


def test_rank_unrank_round_trip_exhaustive():
    y = BitVector.from01("110101001")  # 5 elements
    elements = list(y.ones())
    zmax = 3
    seen = set()
    for k in range(zmax + 1):
        for combo in combinations(elements, k):
            s = BitVector.from_ones(y.dim, combo)
            r = rank_subset(y, s, zmax)
            assert unrank_subset(y, r, zmax) == s
            seen.add(r)
    assert seen == set(range(subset_count(5, zmax)))


def test_unrank_out_of_range_raises():
    y = BitVector.from01("0111")
    with pytest.raises(DecodeError):
        unrank_subset(y, subset_count(3, 2), 2)


def test_rank_requires_subset_and_size():
    y = BitVector.from01("0111")
    with pytest.raises(ValueError):
        rank_subset(y, BitVector.from01("1000"), 2)
    with pytest.raises(ValueError):
        rank_subset(y, BitVector.from01("0111"), 2)


def test_special_advice_pm_reads_star_positions():
    x = BitVector.from01("1011")
    y = TernaryPattern.parse("1*1*")
    adv = special_advice(PM, x, y, 2)
    assert adv.width == 2
    # star positions 1 and 3 carry x's bits 0 and 1
    assert adv.payload == 0b10


def test_special_advice_sq_rank():
    x = BitVector.from01("0010")
    y = BitVector.from01("0111")
    adv = special_advice(SQ, x, y, 2)
    assert adv.payload == 2
    assert adv.width == sq_advice_width(3, 2)


def test_special_advice_sq_empty_intersection():
    adv = special_advice(SQ, BitVector.from01("1000"), BitVector.from01("0111"), 2)
    assert adv.payload == 0


def test_reconstruct_sentinel_on_bad_rank():
    y = BitVector.from01("0111")
    bad = BaseAdvice(SQ, subset_count(3, 2), sq_advice_width(3, 2))
    assert reconstruct(SQ, y, bad, 2) == decode_failed_sentinel(4)


def test_completeness_is_exact_exhaustive():
    d = 5
    for stars in range(1 << d):
        ones = 0b10110 & ~stars & ((1 << d) - 1)
        y = TernaryPattern(d, stars, ones)
        star_positions = y.star_positions()
        for fill in range(1 << y.star_count()):
            x = y.fill_stars(BitVector(y.star_count(), fill))
            adv = special_advice(PM, x, y, d)
            for seed in range(3):
                tr = run_base(PM, x, y, d, d, 0.05, adv, Tapes.from_seed(seed))
                assert tr.output == 1


def test_sq_completeness_exhaustive():
    d = 5
    for y_val in range(1 << d):
        y = BitVector(d, y_val)
        sub = y_val
        while True:
            x = BitVector(d, sub)
            adv = special_advice(SQ, x, y, d)
            tr = run_base(SQ, x, y, d, d, 0.05, adv, Tapes.from_seed(11))
            assert tr.output == 1
            if sub == 0:
                break
            sub = (sub - 1) & y_val


def test_soundness_exhaustive_over_wrong_advice():
    # Every advice other than the honest one is accepted at ~2^-t.
    d = 5
    y = TernaryPattern.parse("1*0*1")
    x = BitVector.from01("11011")
    honest = special_advice(PM, x, y, d)
    n_seeds = 400
    t = math.ceil(math.log2(1 / 0.05))
    accepts = trials = 0
    for payload in range(1 << honest.width):
        if payload == honest.payload:
            continue
        adv = BaseAdvice(PM, payload, honest.width)
        for seed in range(n_seeds):
            trials += 1
            accepts += run_base(PM, x, y, d, d, 0.05, adv, Tapes.from_seed(seed)).output
    rate = accepts / trials
    sigma = math.sqrt(2.0**-t * (1 - 2.0**-t) / trials)
    assert rate <= 2.0**-t + 3 * sigma


def test_wrong_reconstruction_rate_quarter_at_t2():
    d = 8
    y = TernaryPattern(d, 0b11, 0b10100 & ~0b11)
    x = BitVector(d, 0b10110101)
    fill = 0b01
    assert y.fill_stars(BitVector(2, fill)) != x
    adv = BaseAdvice(PM, fill, 2)
    tapes = Tapes.from_seed(8)
    trials = 40_000
    acc = sum(
        run_base(PM, x, y, d, d, 2.0**-2, adv, tapes).output
        for _ in range(trials)
    )
    rate = acc / trials
    sigma = math.sqrt(0.25 * 0.75 / trials)
    assert abs(rate - 0.25) <= 3 * sigma


def test_sparsity_abort_outputs_zero_after_tag():
    x = BitVector.from01("1110")
    y = BitVector.from01("0110")
    tr = run_base(SQ, x, y, z=3, w=2, delta=0.05, advice=special_advice(SQ, x, y, 3),
                  tapes=Tapes.from_seed(1))
    assert tr.output == 0
    assert tr.c_a == 2  # just the status tag
    assert tr.c_b == 0 and tr.c_c == 0 and tr.c_m == 0


def test_cost_ceilings():
    d, w = 16, 6
    delta = 0.02
    t = math.ceil(math.log2(1 / delta))
    x = BitVector(d, 0b101001)
    y = TernaryPattern.from_point(BitVector(d, 0b101001), (0, 2, 9, 11))
    adv = special_advice(PM, x, y, w)
    tr = run_base(PM, x, y, w, w, delta, adv, Tapes.from_seed(5))
    assert tr.c_a == t and tr.c_b == t
    assert tr.c_m <= w
    assert tr.c_c == d * t

    yv = BitVector(d, 0b1011001010)
    xv = BitVector(d, 0b0011000010)
    z = 3
    adv = special_advice(SQ, xv, yv, z)
    tr = run_base(SQ, xv, yv, z, w, delta, adv, Tapes.from_seed(6))
    assert tr.c_a == t and tr.c_b == t
    assert tr.c_m <= math.log2(z) + z * math.log2(math.e * w / z)


def test_swap_roles_swaps_senders_and_stays_complete():
    d = 10
    xv = BitVector(d, 0b11)          # the point side (held by the query player)
    yv = BitVector(d, 0b1011)        # the side the advice decodes against
    adv = special_advice(SQ, xv, yv, 2, public_cap=6)
    tr = run_base(SQ, xv, yv, 2, 6, 0.05, adv, Tapes.from_seed(3), swap_roles=True)
    assert tr.output == 1
    senders = [m.sender for m in tr.messages if m.label.startswith("parities")]
    assert senders == [Player.BOB, Player.ALICE]


def test_public_cap_width_is_independent_of_actual_size():
    yv = BitVector.from01("00110100")
    adv = special_advice(SQ, BitVector.from01("00000100"), yv, 2, public_cap=6)
    assert adv.width == sq_advice_width(6, 2)


def test_advice_is_pure_function_of_inputs():
    x = BitVector.from01("101101")
    y = TernaryPattern.parse("1*11*1")
    assert special_advice(PM, x, y, 6) == special_advice(PM, x, y, 6)
