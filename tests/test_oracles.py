from pmtree.bits import BitVector, Dataset, TernaryPattern
from pmtree.oracles import RateEstimate, brute_force_pm, brute_force_sq


def _dataset(*rows):
    return Dataset(len(rows[0]), tuple(BitVector.from01(r) for r in rows))


def test_brute_force_pm_planted():
    ds = _dataset("1010", "0110", "1110")
    q = TernaryPattern.parse("1*10")
    assert brute_force_pm(ds, q) == {0, 2}
    assert brute_force_pm(ds, TernaryPattern.parse("****")) == {0, 1, 2}
    assert brute_force_pm(ds, TernaryPattern.parse("0001")) == set()


def test_brute_force_sq():
    ds = _dataset("1000", "0011", "0001")
    assert brute_force_sq(ds, BitVector.from01("0011")) == {1, 2}
    assert brute_force_sq(ds, BitVector.from01("1111")) == {0, 1, 2}
    assert brute_force_sq(ds, BitVector.from01("0100")) == set()


def test_rate_estimate_bounds():
    est = RateEstimate(0.1, 0.01, 100)
    assert (est.mean, est.stderr, est.trials) == (0.1, 0.01, 100)
