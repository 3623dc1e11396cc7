import math

import pytest

from pmtree.bits import BitVector, Dataset
from pmtree.dist import EmpiricalDistribution
from pmtree.engine import ProtocolParams, RandomTape, Stream, Tapes, derive_params
from pmtree.sq_protocol import ProtocolError, honest_advice, run_sq, sq_exec


def _sparse_dataset(n, d, seed, target=None):
    tape = RandomTape(seed, Stream.PUB)
    pts = []
    while len(pts) < n:
        v = BitVector(d, tape.draw_bits(d) & tape.draw_bits(d))
        if target is None or target[0] <= v.popcount() <= target[1]:
            pts.append(v)
    return Dataset(d, tuple(pts))


LOOP_PARAMS = dict(t_cap=4, base_factor=1.0)


def test_true_subset_always_accepted_base_case():
    ds = _sparse_dataset(16, 16, seed=1)
    lam = EmpiricalDistribution(ds)
    params = derive_params(16, 6, 0.25, 0.05, t_cap=64)
    assert params.is_base_case()
    tape = RandomTape(4, Stream.PUB)
    for trial in range(300):
        x = ds.points[tape.draw_below(ds.n)]
        extra = BitVector(16, tape.draw_bits(16))
        y = x | extra
        if y.popcount() > 6:
            continue
        tr = run_sq(params, lam, x, y, None, Tapes.from_seed(trial))
        assert tr.output == 1


def test_true_subset_always_accepted_forced_loop():
    d, w = 12, 8
    ds = _sparse_dataset(12, d, seed=2, target=(5, 8))
    lam = EmpiricalDistribution(ds)
    params = derive_params(d, w, 0.25, 0.05, **LOOP_PARAMS)
    assert not params.is_base_case()
    tape = RandomTape(5, Stream.PUB)
    for trial in range(400):
        x = ds.points[tape.draw_below(ds.n)]
        y = x | BitVector(d, tape.draw_bits(d) & tape.draw_bits(d))
        if y.popcount() > w:
            continue
        tr = run_sq(params, lam, x, y, None, Tapes.from_seed(trial))
        assert tr.output == 1


def test_witness_overlap_rejects():
    # A near-subset sample whose overflow intersects x certifies non-containment.
    d = 8
    ds = Dataset(d, (BitVector.from01("11111000"),))
    lam = EmpiricalDistribution(ds)
    params = derive_params(d, 5, 0.25, 0.05, t_cap=2, base_factor=1.0, h_override=1.0)
    assert not params.is_base_case()
    x = BitVector.from01("11011100")  # five ones, contains coordinate 4
    y = BitVector.from01("11110000")  # sample overflow = {4}, x hits it
    tr = run_sq(params, lam, x, y, None, Tapes.from_seed(1))
    assert tr.output == 0
    assert any(m.label == "overlap-witness" for m in tr.messages)


def test_false_positive_rate_against_oracle():
    n, d, w = 64, 128, 16
    eps, delta = 0.25, 0.05
    ds = _sparse_dataset(n, d, seed=3, target=(12, 16))
    lam = EmpiricalDistribution(ds)
    params = derive_params(d, w, eps, delta, t_cap=128)
    tape = RandomTape(6, Stream.PUB)
    fp = trials = 0
    for trial in range(1500):
        x = ds.points[tape.draw_below(n)]
        y = BitVector(d, tape.draw_bits(d) & tape.draw_bits(d) & tape.draw_bits(d))
        if y.popcount() > w:
            continue
        trials += 1
        tr = run_sq(params, lam, x, y, None, Tapes.from_seed(trial))
        if tr.output == 1 and not x.subset_of(y):
            fp += 1
    bound = eps + delta
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert fp / trials <= bound + 3 * sigma


def test_empty_support_branch_outputs_zero():
    # All support points miss the size window, and the fed point sits inside it.
    d, w = 10, 6
    ds = Dataset(d, tuple(BitVector(d, 1 << i) for i in range(8)))
    lam = EmpiricalDistribution(ds)
    params = derive_params(d, w, 0.25, 0.05, **LOOP_PARAMS)
    x = BitVector.from01("1111110000")
    y = x
    tr = run_sq(params, lam, x, y, None, Tapes.from_seed(7))
    assert tr.output == 0
    assert any(m.label == "no-sample" for m in tr.messages)


def test_special_advice_replay_is_deterministic():
    d, w = 12, 8
    ds = _sparse_dataset(10, d, seed=8, target=(4, 8))
    lam = EmpiricalDistribution(ds)
    params = derive_params(d, w, 0.25, 0.05, **LOOP_PARAMS)
    tape = RandomTape(9, Stream.PUB)
    for trial in range(60):
        x = ds.points[tape.draw_below(ds.n)]
        y = BitVector(d, tape.draw_bits(d))
        if y.popcount() > w:
            continue
        a1 = honest_advice(sq_exec, params, lam, x, y, RandomTape(trial, Stream.PUB))
        a2 = honest_advice(sq_exec, params, lam, x, y, RandomTape(trial, Stream.PUB))
        assert a1 == a2
        honest = run_sq(params, lam, x, y, None, Tapes.from_seed(trial))
        explicit = run_sq(params, lam, x, y, a1, Tapes.from_seed(trial))
        assert honest.output == explicit.output
        assert [m.value for m in honest.messages] == [m.value for m in explicit.messages]


def test_advice_empty_when_no_parity_stage_runs():
    d, w = 10, 6
    ds = Dataset(d, tuple(BitVector(d, 1 << i) for i in range(6)))
    lam = EmpiricalDistribution(ds)
    params = derive_params(d, w, 0.25, 0.05, **LOOP_PARAMS)
    x = BitVector.from01("1111111000")  # over budget: early reject, no subroutine
    y = BitVector.from01("0000011000")
    adv = honest_advice(sq_exec, params, lam, x, y, RandomTape(3, Stream.PUB))
    assert adv == ()


def test_iteration_budget_exhaustion_raises(monkeypatch):
    d, w = 12, 8
    ds = _sparse_dataset(8, d, seed=10, target=(7, 8))
    lam = EmpiricalDistribution(ds)
    params = derive_params(d, w, 0.25, 0.05, t_cap=4, base_factor=1.0)
    # A point in the size window (w / ell, w], so the run needs at least one round.
    x = ds.points[0]
    assert w / params.ell < x.popcount() <= w
    assert run_sq(params, lam, x, x, None, Tapes.from_seed(1)).output == 1
    monkeypatch.setattr(ProtocolParams, "max_iters", property(lambda self: 0))
    with pytest.raises(ProtocolError):
        run_sq(params, lam, x, x, None, Tapes.from_seed(1))


def test_monotone_invariant_checked_in_debug_runs():
    d, w = 12, 8
    ds = _sparse_dataset(10, d, seed=12, target=(5, 8))
    lam = EmpiricalDistribution(ds)
    params = derive_params(d, w, 0.25, 0.05, **LOOP_PARAMS)
    tape = RandomTape(13, Stream.PUB)
    for trial in range(150):
        x = ds.points[tape.draw_below(ds.n)]
        y = BitVector(d, tape.draw_bits(d))
        if y.popcount() > w:
            continue
        run_sq(params, lam, x, y, None, Tapes.from_seed(trial))  # asserts inside


def test_bob_message_width_matches_declared_encoding():
    from pmtree.base_protocol import sq_advice_width
    from pmtree.engine import index_width

    d, w = 12, 8
    ds = _sparse_dataset(12, d, seed=2, target=(5, 8))
    lam = EmpiricalDistribution(ds)
    params = derive_params(d, w, 0.25, 0.05, **LOOP_PARAMS)
    tape = RandomTape(20, Stream.PUB)
    seen = 0
    for trial in range(200):
        x = ds.points[tape.draw_below(ds.n)]
        y = x | BitVector(d, tape.draw_bits(d) & tape.draw_bits(d))
        if y.popcount() > w:
            continue
        tr = run_sq(params, lam, x, y, None, Tapes.from_seed(trial))
        batch_dim = None
        batch = []
        for m in tr.messages:
            if m.label == "cond-batch":
                batch_dim = m.nbits // params.t
                batch = [
                    BitVector(batch_dim, (m.value >> (i * batch_dim)) & ((1 << batch_dim) - 1))
                    for i in range(params.t)
                ]
            if m.label == "xi-index-rank":
                iw = index_width(params.t)
                istar = m.value & ((1 << iw) - 1)
                rw = sq_advice_width(batch[istar].popcount(), math.floor(params.h))
                assert m.nbits == iw + rw
                seen += 1
    assert seen > 0


def test_cost_envelope_across_sweep():
    # Calibrated constants, pinned once: c_a <= A*(sqrt(w/log2(w/eps)) + log2(1/delta)),
    # c_b <= B*(sqrt(w*log2(w/eps))*log2(w/log2(w/eps)) + log2log2(w/delta)*log2(w) + log2(1/delta)).
    A, B = 6.0, 8.0
    tape = RandomTape(21, Stream.PUB)
    for (n, d, w, eps, delta, extra) in [
        (16, 16, 4, 0.25, 0.05, {}),
        (24, 32, 8, 0.1, 0.01, {}),
        (12, 12, 8, 0.25, 0.05, LOOP_PARAMS),
        (16, 64, 16, 0.4, 0.1, {"t_cap": 64}),
    ]:
        ds = _sparse_dataset(n, d, seed=n + d, target=(max(1, w // 2), w))
        lam = EmpiricalDistribution(ds)
        params = derive_params(d, w, eps, delta, **extra)
        la = math.sqrt(w / math.log2(w / eps)) + math.log2(1 / delta)
        logw = math.log2(w / math.log2(w / eps))
        lb = (
            math.sqrt(w * math.log2(w / eps)) * max(logw, 1.0)
            + math.log2(max(math.log2(w / delta), 2.0)) * math.log2(w)
            + math.log2(1 / delta)
        )
        for trial in range(100):
            x = ds.points[tape.draw_below(n)]
            y = BitVector(d, tape.draw_bits(d) & tape.draw_bits(d))
            if y.popcount() > w:
                continue
            tr = run_sq(params, lam, x, y, None, Tapes.from_seed(trial))
            assert tr.c_a <= A * la, (tr.c_a, A * la)
            assert tr.c_b <= B * lb, (tr.c_b, B * lb)


def test_query_over_budget_rejected():
    ds = _sparse_dataset(8, 10, seed=30)
    lam = EmpiricalDistribution(ds)
    params = derive_params(10, 3, 0.25, 0.05)
    with pytest.raises(ValueError):
        run_sq(params, lam, ds.points[0], BitVector.from01("1111100000"), None,
               Tapes.from_seed(1))
