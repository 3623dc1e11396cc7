import math
import pytest
from scipy.stats import chisquare

from pmtree.bits import BitVector, Dataset
from pmtree.dist import EmpiricalDistribution
from pmtree.engine import RandomTape, Stream


def _dataset(*rows):
    return Dataset(len(rows[0]), tuple(BitVector.from01(r) for r in rows))


def test_singleton_support_always_returns_it():
    dist = EmpiricalDistribution(_dataset("0011"))
    tape = RandomTape(9, Stream.PUB)
    assert all(dist.sample(tape).to01() == "0011" for _ in range(20))


def test_two_point_support_is_balanced():
    dist = EmpiricalDistribution(_dataset("00", "11"))
    tape = RandomTape(3, Stream.PUB)
    n = 10_000
    ones = sum(dist.sample(tape).popcount() // 2 for _ in range(n))
    sigma = math.sqrt(0.25 / n) * n
    assert abs(ones - n / 2) <= 3 * sigma


def test_projection_then_sampling_balanced():
    dist = EmpiricalDistribution(_dataset("01", "10"))
    sub = dist.restrict_dist(BitVector.from01("01"))
    tape = RandomTape(4, Stream.PUB)
    n = 10_000
    ones = sum(sub.sample(tape).value for _ in range(n))
    sigma = math.sqrt(0.25 / n) * n
    assert abs(ones - n / 2) <= 3 * sigma


def test_size_conditioned_examples():
    dist = EmpiricalDistribution(_dataset("1100", "1110", "0000"))
    tape = RandomTape(5, Stream.PUB)
    assert all(
        dist.sample_size_conditioned(1, 2, tape).to01() == "1100" for _ in range(10)
    )
    assert all(
        dist.sample_size_conditioned(2, 4, tape).to01() == "1110" for _ in range(10)
    )
    assert dist.sample_size_conditioned(5, 9, tape) is None


def test_size_conditioned_respects_window():
    rows = ["0000", "1000", "1100", "1110", "1111", "0110", "0001"]
    dist = EmpiricalDistribution(_dataset(*rows))
    tape = RandomTape(6, Stream.PUB)
    for _ in range(200):
        v = dist.sample_size_conditioned(1, 3, tape)
        assert 1 < v.popcount() <= 3


def test_restrict_full_domain_is_identity():
    dist = EmpiricalDistribution(_dataset("101", "011"))
    full = dist.restrict_dist(BitVector.from01("111"))
    t1, t2 = RandomTape(7, Stream.PUB), RandomTape(7, Stream.PUB)
    for _ in range(20):
        assert dist.sample(t1) == full.sample(t2)


def test_restrict_to_empty_domain():
    dist = EmpiricalDistribution(_dataset("101", "011"))
    empty = dist.restrict_dist(BitVector(3))
    tape = RandomTape(8, Stream.PUB)
    assert empty.sample(tape).dim == 0


def test_project_then_sample_equals_sample_then_project():
    # Exact distribution equality: both sides are uniform over the projected
    # support, counted as multisets.
    d, n = 6, 8
    tape = RandomTape(11, Stream.PUB)
    rows = [BitVector(d, tape.draw_bits(d)) for _ in range(n)]
    ds = Dataset(d, tuple(rows))
    dist = EmpiricalDistribution(ds)
    keep = BitVector.from_ones(d, (0, 2, 5))
    sub = dist.restrict_dist(keep)
    direct = sorted(sub.projected(i).value for i in range(n))
    projected = sorted(p.restrict(keep).value for p in rows)
    assert direct == projected

    # And a chi-square check on actual draws.
    counts = {}
    t2 = RandomTape(12, Stream.PUB)
    n_draws = 8000
    for _ in range(n_draws):
        v = sub.sample(t2).value
        counts[v] = counts.get(v, 0) + 1
    support_counts = {}
    for v in projected:
        support_counts[v] = support_counts.get(v, 0) + 1
    expected = [n_draws * c / n for c in support_counts.values()]
    observed = [counts.get(v, 0) for v in support_counts.keys()]
    scale = sum(observed) / sum(expected)
    _, p = chisquare(observed, [e * scale for e in expected])
    assert p > 0.001


def test_determinism_same_seed_same_sequence():
    dist = EmpiricalDistribution(_dataset("1100", "1010", "0011"))
    seq1 = [dist.sample(RandomTape(9, Stream.PUB, c)).value for c in range(10)]
    dist2 = EmpiricalDistribution(_dataset("1100", "1010", "0011"))
    seq2 = [dist2.sample(RandomTape(9, Stream.PUB, c)).value for c in range(10)]
    assert seq1 == seq2


def test_xor_shift_samples_are_shifted():
    dist = EmpiricalDistribution(_dataset("1100", "0011"))
    shift = BitVector.from01("1111")
    shifted = dist.xor_shift(shift)
    t1, t2 = RandomTape(14, Stream.PUB), RandomTape(14, Stream.PUB)
    for _ in range(10):
        assert shifted.sample(t1) == dist.sample(t2) ^ shift


def test_xor_shift_then_restrict():
    dist = EmpiricalDistribution(_dataset("1100", "0011"))
    shifted = dist.xor_shift(BitVector.from01("1010"))
    sub = shifted.restrict_dist(BitVector.from01("0110"))
    t1 = RandomTape(15, Stream.PUB)
    vals = {sub.sample(t1).to01() for _ in range(30)}
    # points 1100, 0011 shifted by 1010 -> 0110, 1001; restricted to coords (1,2) -> 11, 00
    assert vals == {"11", "00"}


def test_empty_support_sample_raises():
    dist = EmpiricalDistribution(Dataset(2, ()))
    with pytest.raises(ValueError):
        dist.sample(RandomTape(1, Stream.PUB))


def test_restrict_dist_twice_equals_once_by_the_composed_mask():
    dist = EmpiricalDistribution(_dataset("110010", "011101", "101011"))
    shifted = dist.xor_shift(BitVector.from01("100110"))
    outer, inner = BitVector.from01("110101"), BitVector.from01("1011")
    twice = shifted.restrict_dist(outer).restrict_dist(inner)
    once = shifted.restrict_dist(inner.expand(outer))
    assert twice.domain == once.domain == BitVector.from01("100101")
    assert [twice.projected(i) for i in range(3)] == [once.projected(i) for i in range(3)]
    with pytest.raises(ValueError):
        dist.restrict_dist(BitVector.from01("111"))
