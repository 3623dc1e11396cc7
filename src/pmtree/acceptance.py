"""The acceptance gate: one callable per criterion, each self-contained and
seed-pinned, returning a pass flag plus a one-line detail string.

Exactness and one-sidedness run at zero tolerance; rate criteria run at their
stated three-standard-error tolerances with frozen seeds so results are
reproducible rather than flaky.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

from . import base_protocol as bp
from .bits import BitVector, Dataset, TernaryPattern, match_pm
from .compiler import preprocess, query, serialize
from .disjointness import (
    StdParams,
    fix_randomness,
    run_std,
    uniform_size_dataset,
)
from .dist import EmpiricalDistribution
from .engine import RandomTape, Stream, Tapes, derive_params
from .generators import gen_planted, gen_random_sq, nonmatching_pm_queries, random_pattern_query
from .pm_protocol import pm_exec, run_pm
from .presets import desk_params
from .reports import loglog_slope, mean
from .sq_protocol import honest_advice, run_sq, sq_exec


@dataclass
class CriterionResult:
    ident: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.ident} ({self.name}): {self.detail} [{self.seconds:.1f}s]"


def _sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


# --------------------------------------------------------------------------
# 1. Exactness of compiled trees on planted wildcard instances
# --------------------------------------------------------------------------


def crit_exactness(quick: bool = False):
    n, d = 1024, 64
    n_instances = 10 if quick else 50
    per_instance = 8 if quick else 40
    widths = [8, 16, 32]
    wrong = total = 0
    for idx in range(n_instances):
        w = widths[idx % len(widths)]
        inst = gen_planted(n, d, w, per_instance, seed=1000 + idx)
        params = desk_params(n, d, w)
        tree = preprocess(inst.dataset, "pm", params, seed=2000 + idx)
        for q, truth in zip(inst.queries, inst.truth):
            total += 1
            if query(tree, q).matches != truth:
                wrong += 1
    return wrong == 0 and total >= (80 if quick else 2000), (
        f"{total - wrong}/{total} queries exact over {n_instances} instances"
    )


# --------------------------------------------------------------------------
# 2. Base-protocol accept rate 2^-t on fixed unequal pairs
# --------------------------------------------------------------------------


def _unequal_pairs(d: int, count: int, seed: int):
    """Fixed (x, reconstruction) pairs where the point and the decoded value
    differ on a non-star coordinate, so each parity round is a fair coin."""
    tape = RandomTape(seed, Stream.PUB)
    pairs = []
    while len(pairs) < count:
        y = TernaryPattern(d, stars=0b11, one_bits=tape.draw_bits(d) & ~0b11 & ((1 << d) - 1))
        x_val = tape.draw_bits(d)
        fill = tape.draw_bits(2)
        ybar = y.fill_stars(BitVector(2, fill))
        x = BitVector(d, x_val)
        if x != ybar:
            pairs.append((x, y, bp.BaseAdvice(bp.PM, fill, 2)))
    return pairs


def crit_base_rate(quick: bool = False):
    d = 16
    trials = 20000 if quick else 100000
    pairs = _unequal_pairs(d, 10, seed=77)
    worst = 0.0
    tapes = Tapes.from_seed(4242)
    for t in range(1, 9):
        target = 2.0**-t
        tol = 3.0 * _sigma(target, trials)
        for x, y, adv in pairs:
            acc = 0
            for _ in range(trials):
                acc += bp.run_base(bp.PM, x, y, d, d, target, adv, tapes).output
            dev = abs(acc / trials - target)
            worst = max(worst, dev / tol)
            if dev > tol:
                return False, f"t={t}: rate {acc / trials:.5f} vs {target:.5f} (3-sigma {tol:.5f})"
    return True, f"80 rate estimates within 3 sigma (worst {worst:.2f} of tolerance)"


# --------------------------------------------------------------------------
# 3. One-sidedness: no true match or subset is ever rejected
# --------------------------------------------------------------------------


def _all_patterns(d: int):
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


def crit_one_sided(quick: bool = False):
    d = 6
    n_seeds = 20 if quick else 100
    cube = Dataset(d, tuple(BitVector(d, v) for v in range(1 << d)))
    lam = EmpiricalDistribution(cube)
    params = desk_params(cube.n, d, d)
    violations = runs = 0

    patterns = list(_all_patterns(d))
    for seed in range(n_seeds):
        for y in patterns:
            stars_dom = y.star_positions()
            free = y.star_count()
            base_fill = y.ones_vector().value
            for fill_code in range(1 << free):
                x_val = base_fill
                for j, pos in enumerate(stars_dom):
                    x_val |= ((fill_code >> j) & 1) << pos
                x = BitVector(d, x_val)
                runs += 2
                adv = bp.special_advice(bp.PM, x, y, d)
                if bp.run_base(bp.PM, x, y, d, d, 0.05, adv, Tapes.from_seed(seed)).output != 1:
                    violations += 1
                if run_pm(params, lam, x, y, None, Tapes.from_seed(seed)).output != 1:
                    violations += 1
        for yv_val in range(1 << d):
            yv = BitVector(d, yv_val)
            sub = yv_val
            while True:
                x = BitVector(d, sub)
                runs += 2
                adv = bp.special_advice(bp.SQ, x, yv, d)
                if bp.run_base(bp.SQ, x, yv, d, d, 0.05, adv, Tapes.from_seed(seed)).output != 1:
                    violations += 1
                if run_sq(params, lam, x, yv, None, Tapes.from_seed(seed)).output != 1:
                    violations += 1
                if sub == 0:
                    break
                sub = (sub - 1) & yv_val
    return violations == 0, f"{runs} honest runs, {violations} rejections"


# --------------------------------------------------------------------------
# 4. Soundness: wrong prover messages are rejected
# --------------------------------------------------------------------------


def _mutate_segments(segments, tape):
    """Random advice tuple differing from the honest one in one nonzero-width
    segment; None when every segment is width zero (no wrong message exists)."""
    widths = [s.width for s in segments]
    eligible = [i for i, w in enumerate(widths) if w > 0]
    if not eligible:
        return None
    k = eligible[tape.draw_below(len(eligible))]
    seg = segments[k]
    delta = 1 + tape.draw_below((1 << seg.width) - 1)
    new_payload = seg.payload ^ delta
    out = list(segments)
    out[k] = bp.BaseAdvice(seg.mode, new_payload, seg.width)
    return tuple(out)


def crit_soundness(quick: bool = False):
    d, w, delta = 32, 8, 0.05
    trials = 2000 if quick else 10000
    tape = RandomTape(99, Stream.PUB)
    n_pts = 64
    pts = tuple(
        BitVector(d, tape.draw_bits(d) & tape.draw_bits(d) & tape.draw_bits(d))
        for _ in range(n_pts)
    )
    lam = EmpiricalDistribution(Dataset(d, pts))
    params = derive_params(d, w, 0.25, delta, t_cap=128)
    bound = delta + 3.0 * _sigma(delta, trials)
    details = []

    accepts = 0
    for i in range(trials):
        x = BitVector(d, tape.draw_bits(d))
        y = random_pattern_query(d, w, tape)
        honest = bp.special_advice(bp.PM, x, y, w)
        wrong = _mutate_segments((honest,), tape)
        accepts += bp.run_base(
            bp.PM, x, y, w, w, delta, wrong[0], Tapes.from_seed(5_000_000 + i)
        ).output
    rate_base = accepts / trials
    details.append(f"base {rate_base:.4f}")
    if rate_base > bound:
        return False, f"base soundness {rate_base:.4f} > {bound:.4f}"

    accepts = 0
    for i in range(trials):
        x = pts[tape.draw_below(n_pts)]
        y_val = tape.draw_bits(d) & tape.draw_bits(d)
        yv = BitVector(d, y_val)
        if yv.popcount() > w:
            yv = BitVector(d, y_val & ((1 << (d // 2)) - 1))
            if yv.popcount() > w:
                continue
        honest = honest_advice(sq_exec, params, lam, x, yv, RandomTape(6_000_000 + i, Stream.PUB))
        wrong = _mutate_segments(honest, tape) if honest else (
            bp.BaseAdvice(bp.SQ, 1, 2),
        )
        if wrong is None:
            continue
        accepts += run_sq(params, lam, x, yv, wrong, Tapes.from_seed(6_000_000 + i)).output
    rate_sq = accepts / trials
    details.append(f"sq {rate_sq:.4f}")
    if rate_sq > bound:
        return False, f"sq soundness {rate_sq:.4f} > {bound:.4f}"

    accepts = 0
    for i in range(trials):
        x = pts[tape.draw_below(n_pts)]
        y = random_pattern_query(d, w, tape)
        honest = honest_advice(pm_exec, params, lam, x, y, RandomTape(7_000_000 + i, Stream.PUB))
        wrong = _mutate_segments(honest, tape) if honest else (
            bp.BaseAdvice(bp.PM, 1, 2),
        )
        if wrong is None:
            continue
        accepts += run_pm(params, lam, x, y, wrong, Tapes.from_seed(7_000_000 + i)).output
    rate_pm = accepts / trials
    details.append(f"pm {rate_pm:.4f}")
    if rate_pm > bound:
        return False, f"pm soundness {rate_pm:.4f} > {bound:.4f}"

    return True, f"accept rates {', '.join(details)} all <= {bound:.4f}"


# --------------------------------------------------------------------------
# 5. False-positive mass of the match protocol and tree scan volume
# --------------------------------------------------------------------------


def crit_fp_mass(quick: bool = False):
    n, d, w = 512, 64, 4
    eps, delta = 0.25, 0.01
    trials = 1000 if quick else 4000
    tape = RandomTape(31337, Stream.PUB)
    pts = tuple(BitVector(d, tape.draw_bits(d)) for _ in range(n))
    dataset = Dataset(d, pts)
    lam = EmpiricalDistribution(dataset)
    params = derive_params(d, w, eps, delta, t_cap=128)

    fp = 0
    for i in range(trials):
        x = pts[tape.draw_below(n)]
        y = random_pattern_query(d, w, tape)
        out = run_pm(params, lam, x, y, None, Tapes.from_seed(8_000_000 + i)).output
        if out == 1 and not match_pm(x, y):
            fp += 1
    mass = fp / trials
    bound = (eps + delta) + 3.0 * _sigma(eps + delta, trials)
    if mass > bound:
        return False, f"fp mass {mass:.4f} > {bound:.4f}"

    tree = preprocess(dataset, "pm", params, seed=1717)
    n_queries = 50 if quick else 200
    queries = nonmatching_pm_queries(dataset, w, n_queries, seed=4141)
    scans = [query(tree, q).candidates_scanned for q in queries]
    avg = mean(scans)
    scan_bound = 2.0 * eps * n
    if avg > scan_bound:
        return False, f"avg candidates_scanned {avg:.1f} > {scan_bound:.1f}"
    return True, f"fp mass {mass:.4f} <= {bound:.4f}; avg scans {avg:.1f} <= {scan_bound:.0f}"


# --------------------------------------------------------------------------
# 6. Bit ceilings and one-sidedness of the two-party disjointness protocol
# --------------------------------------------------------------------------


def crit_std_ceilings(quick: bool = False):
    eps = 0.2
    per_config = 400 if quick else 1700
    total = wrong_on_disjoint = 0
    worst_a = worst_b = 0.0
    for d in (32, 64, 128):
        ell = math.ceil(math.sqrt(d / math.log2(1.0 / eps)))
        params = StdParams(d, ell, eps)
        theta = params.theta
        configs = [
            (max(1, theta // 2), theta),        # explicit-send path
            (min(d // 2, theta + 4), theta),    # sampling path
        ]
        for cfg_idx, (k, l) in enumerate(configs):
            lam = EmpiricalDistribution(uniform_size_dataset(d, k, 128, seed=50 + cfg_idx + d))
            rho = EmpiricalDistribution(uniform_size_dataset(d, l, 128, seed=90 + cfg_idx + d))
            tape = RandomTape(1000 + d + cfg_idx, Stream.PUB)
            for i in range(per_config):
                x = lam.sample(tape)
                yv = rho.sample(tape)
                res = run_std(lam, x, yv, seed=123, params=params)
                total += 1
                if res.a_bits > params.alice_budget() or res.b_bits > params.bob_budget():
                    return False, (
                        f"d={d}: bits a={res.a_bits} b={res.b_bits} exceed "
                        f"({params.alice_budget():.1f}, {params.bob_budget():.1f})"
                    )
                worst_a = max(worst_a, res.a_bits / params.alice_budget())
                worst_b = max(worst_b, res.b_bits / params.bob_budget())
                disjoint = not x.intersects(yv)
                if res.output == 1 and not disjoint:
                    return False, f"d={d}: declared disjoint on an intersecting pair"
                if res.output == 0 and disjoint:
                    wrong_on_disjoint += 1
    err = wrong_on_disjoint / total
    bound = eps + 3.0 * _sigma(eps, total)
    ok = err <= bound
    return ok, (
        f"{total} runs; ceilings held (worst a {worst_a:.2f}, b {worst_b:.2f} of budget); "
        f"type-II error {err:.4f} <= {bound:.4f}"
    )


# --------------------------------------------------------------------------
# 7. Randomness fixing picks a near-average-or-better seed
# --------------------------------------------------------------------------


def crit_fix_randomness(quick: bool = False):
    d, eps = 32, 0.2
    ell = math.ceil(math.sqrt(d / math.log2(1.0 / eps)))
    params = StdParams(d, ell, eps)
    lam = EmpiricalDistribution(uniform_size_dataset(d, params.theta + 4, 128, seed=11))
    rho = EmpiricalDistribution(uniform_size_dataset(d, 8, 128, seed=12))
    trials = 120 if quick else 300
    res = fix_randomness(lam, rho, params, list(range(16)), trials, eval_seed=5)
    avg = mean(res.estimates.values())
    best = min(res.estimates.values())
    if best > avg + 1e-12:
        return False, "selected error exceeds the average over seeds"
    bound = 2.0 * eps + 3.0 * res.heldout.stderr
    ok = res.heldout.mean <= bound
    return ok, (
        f"seed {res.seed}: heldout {res.heldout.mean:.4f} <= {bound:.4f} "
        f"(mean over seeds {avg:.4f})"
    )


# --------------------------------------------------------------------------
# 8. Random containment instances follow the two-bit coordinate law
# --------------------------------------------------------------------------


def crit_random_instance_law(quick: bool = False):
    from scipy.stats import chisquare

    w_u, w_q = 0.3, 0.6
    d = 4000
    n_instances = 5 if quick else 25
    counts = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    for k in range(n_instances):
        inst = gen_random_sq(4, d, w_u, w_q, seed=600 + k)
        y = inst.queries[0]
        xp = inst.dataset.points[inst.special]
        if not xp.subset_of(y):
            return False, "planted point escaped the query"
        for i in range(d):
            counts[(y.get(i), xp.get(i))] += 1
    if counts[(0, 1)] != 0:
        return False, "law violated: point bit set outside the query"
    n_coords = n_instances * d
    expected = {
        (1, 1): w_u * n_coords,
        (1, 0): (w_q - w_u) * n_coords,
        (0, 0): (1.0 - w_q) * n_coords,
    }
    cells = [(1, 1), (1, 0), (0, 0)]
    stat, p = chisquare([counts[c] for c in cells], [expected[c] for c in cells])
    ok = bool(p > 0.001)  # p is a numpy float, and json cannot encode a numpy bool
    return ok, f"{n_coords} coordinates, chi2 p={p:.4f} > 0.001; containment exact"


# --------------------------------------------------------------------------
# 9. Scan volume grows sublinearly in n under the desk preset
# --------------------------------------------------------------------------


def crit_scaling(quick: bool = False):
    d, w = 64, 4
    sizes = [256, 1024, 4096] if quick else [256, 1024, 4096, 16384]
    per_n = 40 if quick else 100
    tape = RandomTape(909, Stream.PUB)
    means = []
    for n in sizes:
        pts = tuple(BitVector(d, tape.draw_bits(d)) for _ in range(n))
        dataset = Dataset(d, pts)
        params = desk_params(n, d, w)
        tree = preprocess(dataset, "pm", params, seed=123456 + n)
        queries = nonmatching_pm_queries(dataset, w, per_n, seed=777 + n)
        scans = [query(tree, q).candidates_scanned for q in queries]
        means.append(max(mean(scans), 1e-9))
    slope = loglog_slope(sizes, means)
    ok = slope < 1.0
    pairs = ", ".join(f"n={n}:{m:.1f}" for n, m in zip(sizes, means))
    return ok, f"log-log slope {slope:.3f} < 1.0 ({pairs})"


# --------------------------------------------------------------------------
# 10. Determinism: byte-identical rebuilds and stable transcripts
# --------------------------------------------------------------------------


def _golden_transcript_hash() -> str:
    digest = hashlib.sha256()
    d = 12
    tape = RandomTape(55, Stream.PUB)
    pts = tuple(BitVector(d, tape.draw_bits(d) & tape.draw_bits(d)) for _ in range(10))
    lam = EmpiricalDistribution(Dataset(d, pts))
    params = derive_params(d, 6, 0.25, 0.05, t_cap=4, base_factor=1.0)

    x = pts[0]
    y = TernaryPattern.from_point(pts[1], (0, 3, 5, 7))
    tr = run_pm(params, lam, x, y, None, Tapes.from_seed(99))
    for line in tr.dump_lines():
        digest.update(line.encode())
    digest.update(str(tr.output).encode())

    yv = BitVector(d, 0b001101)
    tr = run_sq(params, lam, pts[2], yv, None, Tapes.from_seed(98))
    for line in tr.dump_lines():
        digest.update(line.encode())
    digest.update(str(tr.output).encode())
    return digest.hexdigest()


GOLDEN_TRANSCRIPT_SHA256 = "303dc55bfeb12cadcd0c745ee8a2c23e1b2542d2853e6dc8ebd7e24682c1ecfc"


def crit_determinism(quick: bool = False):
    inst = gen_planted(128, 32, 8, 4, seed=321)
    params = desk_params(128, 32, 8)
    blobs = {serialize(preprocess(inst.dataset, "pm", params, seed=999)) for _ in range(3)}
    if len(blobs) != 1:
        return False, "rebuild with equal seed produced different bytes"
    hashes = {_golden_transcript_hash() for _ in range(3)}
    if len(hashes) != 1:
        return False, "transcript dump changed across runs"
    if hashes != {GOLDEN_TRANSCRIPT_SHA256}:
        return False, f"transcript hash {hashes.pop()} does not match the golden value"
    return True, "tree bytes and transcript dumps identical across 3 runs and vs golden"


CRITERIA = [
    (1, "exactness", crit_exactness),
    (2, "base-rate", crit_base_rate),
    (3, "one-sidedness", crit_one_sided),
    (4, "soundness", crit_soundness),
    (5, "fp-mass", crit_fp_mass),
    (6, "disjointness-ceilings", crit_std_ceilings),
    (7, "randomness-fixing", crit_fix_randomness),
    (8, "random-instance-law", crit_random_instance_law),
    (9, "scaling", crit_scaling),
    (10, "determinism", crit_determinism),
]


def run_criterion(ident: int, quick: bool = False) -> CriterionResult:
    for cid, name, fn in CRITERIA:
        if cid == ident:
            t0 = time.perf_counter()
            passed, detail = fn(quick=quick)
            return CriterionResult(cid, name, passed, detail, time.perf_counter() - t0)
    raise ValueError(f"no criterion {ident}")


def run_all(quick: bool = False, printer=print) -> list[CriterionResult]:
    results = []
    for cid, _name, _fn in CRITERIA:
        res = run_criterion(cid, quick=quick)
        results.append(res)
        if printer:
            printer(res.line())
    return results
