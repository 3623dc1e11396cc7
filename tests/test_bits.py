import pytest
from hypothesis import given
import hypothesis.strategies as st

from pmtree.bits import (
    BitVector,
    Dataset,
    TernaryPattern,
    match_pm,
    subset_of,
)


def test_match_pm_examples():
    assert match_pm(BitVector.from01("1010"), TernaryPattern.parse("1*1*"))
    assert not match_pm(BitVector.from01("1010"), TernaryPattern.parse("0***"))
    assert match_pm(BitVector.from01("0000"), TernaryPattern.parse("****"))


def test_subset_examples():
    assert subset_of(BitVector.from01("0101"), BitVector.from01("0111"))
    assert not subset_of(BitVector.from01("1000"), BitVector.from01("0111"))
    assert subset_of(BitVector.from01("0000"), BitVector.from01("0000"))


def test_xor_and_diff():
    a, b = BitVector.from01("1100"), BitVector.from01("1010")
    assert (a ^ b).to01() == "0110"
    assert (a ^ a).popcount() == 0
    assert BitVector.from01("1110").diff(BitVector.from01("0100")).to01() == "1010"


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        BitVector.from01("101") ^ BitVector.from01("10")
    with pytest.raises(ValueError):
        match_pm(BitVector.from01("10"), TernaryPattern.parse("1*1"))


def test_restrict_examples():
    v = BitVector.from01("1011")
    full = BitVector.from01("1111")
    assert v.restrict(BitVector.from01("1011")).to01() == "111"
    assert v.restrict(BitVector.from01("0101")).to01() == "01"
    assert v.restrict(full) == v
    assert v.restrict(BitVector(4)) == BitVector(0)
    p = TernaryPattern.parse("1*0*")
    assert p.restrict(full) == p
    assert p.restrict(BitVector.from01("0101")).to_text() == "**"
    assert p.restrict(BitVector.from01("1110")).to_text() == "1*0"


@given(st.integers(0, 1023), st.integers(0, 1023))
def test_popcount_splits_across_restriction(v_bits, mask):
    d = 10
    v = BitVector(d, v_bits)
    keep = BitVector(d, mask)
    assert v.restrict(keep).popcount() + v.restrict(keep.complement()).popcount() == v.popcount()


@given(st.integers(0, 255), st.integers(0, 255), st.data())
def test_restrict_is_functorial(v_bits, mask, data):
    d = 8
    v = BitVector(d, v_bits)
    outer = BitVector(d, mask)
    inner = BitVector(outer.popcount(), data.draw(st.integers(0, (1 << outer.popcount()) - 1)))
    combined = inner.expand(outer)
    assert combined.subset_of(outer)
    assert v.restrict(outer).restrict(inner) == v.restrict(combined)


@given(st.integers(0, 255), st.integers(0, 255))
def test_expand_inverts_restrict(v_bits, mask):
    d = 8
    v, keep = BitVector(d, v_bits), BitVector(d, mask)
    assert v.restrict(keep).expand(keep) == v & keep
    assert v.restrict(keep).expand(keep).restrict(keep) == v.restrict(keep)


def test_star_free_pattern_matches_iff_equal():
    d = 8
    for y_bits in range(64):
        y = TernaryPattern(d, 0, y_bits)
        for x_bits in range(64):
            assert match_pm(BitVector(d, x_bits), y) == (x_bits == y_bits)


def test_match_iff_xor_inside_stars_exhaustive():
    # For any anchor X matching y, x matches y iff ones(x ^ X) sit inside the stars.
    d = 6
    for stars in range(1 << d):
        ones = 0b101010 & ~stars
        y = TernaryPattern(d, stars, ones & ((1 << d) - 1))
        anchors = [v for v in range(1 << d) if match_pm(BitVector(d, v), y)]
        for x_bits in range(1 << d):
            x = BitVector(d, x_bits)
            for anchor in anchors[:4]:
                lhs = match_pm(x, y)
                rhs = (x_bits ^ anchor) & ~stars == 0
                assert lhs == rhs


def test_pattern_round_trip_text():
    text = "01*0*11*"
    assert TernaryPattern.parse(text).to_text() == text
    with pytest.raises(ValueError):
        TernaryPattern.parse("01x")


def test_fill_stars():
    y = TernaryPattern.parse("1*0*")
    filled = y.fill_stars(BitVector.from01("10"))
    assert filled.to01() == "1100"
    assert y.fill_stars(BitVector.from01("01")).to01() == "1001"
    with pytest.raises(ValueError):
        y.fill_stars(BitVector.from01("1"))


def test_dataset_io(tmp_path):
    ds = Dataset(5, (BitVector.from01("10101"), BitVector.from01("00011")))
    path = tmp_path / "points.txt"
    ds.save(path)
    back = Dataset.load(path)
    assert back == ds
    assert back.fingerprint() == ds.fingerprint()


def test_domain_validation():
    # A keep mask must have the restricted value's dimension, and an expanded
    # value must have one coordinate per set bit of the mask.
    with pytest.raises(ValueError):
        BitVector.from01("1011").restrict(BitVector.from01("101"))
    with pytest.raises(ValueError):
        TernaryPattern.parse("1*0*").restrict(BitVector.from01("11111"))
    with pytest.raises(ValueError):
        BitVector.from01("11").expand(BitVector.from01("101010"))
    keep = BitVector.from01("010101")
    assert BitVector.from01("101").expand(keep).to01() == "010001"
