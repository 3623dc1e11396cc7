import math

import pytest

from pmtree.engine import (
    BIG,
    CONTINUE,
    OUT0,
    SMALL,
    Message,
    ParamError,
    Player,
    RandomTape,
    Stream,
    Tapes,
    Transcript,
    TranscriptError,
    derive_params,
    index_width,
    status_message,
)


def test_append_accumulates_per_player_totals():
    tr = Transcript()
    tr.append(Message(Player.ALICE, 0b10110, 5, "x"))
    assert tr.c_a == 5
    tr.append(Message(Player.BOB, 0b101, 3))
    tr.append(Message(Player.BOB, 0b1111, 4))
    assert tr.c_b == 7
    tr.append(Message(Player.CAROL_PUB, 1, 2))
    tr.append(Message(Player.CAROL_PRI, 1, 3))
    assert tr.c_c == 5
    assert tr.c_m == 0


def test_append_after_finalize_raises():
    tr = Transcript()
    tr.append(Message(Player.ALICE, 1, 1))
    tr.finalize(1)
    with pytest.raises(TranscriptError):
        tr.append(Message(Player.BOB, 0, 1))
    with pytest.raises(TranscriptError):
        tr.finalize(0)


def test_private_draws_gated_on_advice_commit():
    tr = Transcript()
    with pytest.raises(TranscriptError):
        tr.require_advice_committed()
    tr.append(Message(Player.MERLIN, 3, 2, "advice"))
    tr.require_advice_committed()


def test_message_width_validation():
    with pytest.raises(ValueError):
        Message(Player.ALICE, 4, 2)
    assert Message(Player.ALICE, 3, 2).hex_payload() == "3"


def test_dump_format():
    tr = Transcript()
    tr.append(Message(Player.ALICE, 0xAB, 8, "tag"))
    tr.append(Message(Player.MERLIN, 0, 0))
    lines = tr.dump_lines()
    assert lines[0] == "A 8 tag ab"
    assert lines[1] == "M 0 - 0"


def test_tape_draws_are_pure_functions_of_counter():
    t1 = RandomTape(42, Stream.PUB)
    seq = [t1.draw_bits(16) for _ in range(8)]
    t2 = RandomTape(42, Stream.PUB)
    assert [t2.draw_bits(16) for _ in range(8)] == seq
    # jumping straight to a counter reproduces the draw at that position
    t3 = RandomTape(42, Stream.PUB, counter=5)
    assert t3.draw_bits(16) == seq[5]


def test_streams_are_independent():
    pub = RandomTape(7, Stream.PUB)
    pri = RandomTape(7, Stream.PRI)
    assert [pub.draw_bits(32) for _ in range(4)] != [pri.draw_bits(32) for _ in range(4)]


def test_draw_below_is_uniform_and_in_range():
    tape = RandomTape(1, Stream.PUB)
    n = 5
    counts = [0] * n
    trials = 20000
    for _ in range(trials):
        v = tape.draw_below(n)
        counts[v] += 1
    for c in counts:
        assert abs(c - trials / n) < 5 * math.sqrt(trials * (1 / n) * (1 - 1 / n))


def test_draw_wide_vectors():
    tape = RandomTape(3, Stream.PUB)
    v = tape.draw_vector(130)
    assert v.dim == 130
    w = tape.draw_vector(130)
    assert v != w


def test_derive_params_frozen_values():
    p = derive_params(128, 64, 0.05, 0.01)
    assert math.isclose(p.ell, 2.490058626375396, rel_tol=1e-12)
    assert math.isclose(p.eps_prime, 0.0010039924255273761, rel_tol=1e-12)
    assert p.t == math.ceil(99204.29324255392)
    assert math.isclose(p.h, 9.96003589953208, rel_tol=1e-12)
    assert p.max_iters == math.ceil(2 * p.ell)


def test_derive_params_base_case_for_small_w():
    p = derive_params(16, 1, 0.05, 0.01)
    assert p.is_base_case()


def test_derive_params_validation():
    with pytest.raises(ParamError):
        derive_params(4, 8, 0.05, 0.01)  # w > d
    with pytest.raises(ParamError):
        derive_params(8, 4, 0.05, 0.2)  # delta > eps
    with pytest.raises(ParamError):
        derive_params(8, 4, 0.7, 0.01)  # eps out of range


def test_t_cap_and_overrides():
    p = derive_params(128, 64, 0.05, 0.01, t_cap=100)
    assert p.t == 100
    p3 = derive_params(128, 64, 0.05, 0.01, h_override=2.5)
    assert p3.h == 2.5


def test_status_codebook_is_two_bits():
    for tag in (CONTINUE, OUT0, SMALL, BIG):
        msg = status_message(Player.ALICE, tag, "s")
        assert msg.nbits == 2
    assert len({CONTINUE, OUT0, SMALL, BIG}) == 4


def test_index_width():
    assert index_width(1) == 0
    assert index_width(2) == 1
    assert index_width(3) == 2
    assert index_width(11) == 4


def test_tapes_clone_independent():
    tapes = Tapes.from_seed(5)
    tapes.pub.draw_bits(8)
    c = tapes.clone()
    assert c.pub.counter == tapes.pub.counter
    c.pub.draw_bits(8)
    assert c.pub.counter == tapes.pub.counter + 1


@pytest.mark.parametrize("stream", list(Stream))
def test_tape_clone_draws_as_a_fresh_tape_and_moves_alone(stream):
    tape = RandomTape(2**64 + 17, stream)
    tape.draw_bits(8)
    tape.draw_bits(100)
    twin = tape.clone()
    assert (twin.seed, twin.stream, twin.counter) == (tape.seed, tape.stream, 2)
    fresh = RandomTape(tape.seed, stream, 2)
    assert [twin.draw_bits(70) for _ in range(5)] == [fresh.draw_bits(70) for _ in range(5)]
    # Advancing the clone left the original where it was, and the reverse.
    assert tape.counter == 2
    assert tape.draw_bits(70) == RandomTape(tape.seed, stream, 2).draw_bits(70)
    assert twin.counter == 7
    assert twin.draw_below(1000) == RandomTape(tape.seed, stream, 7).draw_below(1000)


def test_tapes_clone_draws_as_fresh_tapes_and_moves_alone():
    tapes = Tapes.from_seed(9)
    tapes.pub.draw_bits(8)
    tapes.pri.draw_vector(40)
    tapes.pri.draw_vector(40)
    twin = tapes.clone()
    fresh = Tapes(RandomTape(9, Stream.PUB, 1), RandomTape(9, Stream.PRI, 2))
    pub = [twin.pub.draw_bits(16) for _ in range(3)]
    pri = [twin.pri.draw_bits(16) for _ in range(3)]
    assert pub == [fresh.pub.draw_bits(16) for _ in range(3)]
    assert pri == [fresh.pri.draw_bits(16) for _ in range(3)]
    # Advancing the clone left the original where it was, and the reverse.
    assert (tapes.pub.counter, tapes.pri.counter) == (1, 2)
    assert tapes.pub.draw_bits(16) == pub[0]
    assert tapes.pri.draw_bits(16) == pri[0]
    assert (twin.pub.counter, twin.pri.counter) == (4, 5)
