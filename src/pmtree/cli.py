"""Command-line harness: instance generation, tree builds, queries, protocol
simulations, seed fixing, scaling sweeps, and the acceptance gate."""

from __future__ import annotations

import argparse
import json
import struct
import sys

from . import acceptance
from .bits import BitVector, Dataset, TernaryPattern, load_pm_queries, load_sq_queries, save_queries
from .compiler import DEFAULT_NODE_CEILING, TreeError, load_tree, preprocess, query, save_tree
from .disjointness import StdParams, fix_randomness, uniform_size_dataset
from .dist import EmpiricalDistribution
from .engine import ProtocolParams, RandomTape, Stream, Tapes, derive_params
from .generators import distinct_positions, gen_planted, gen_random_sq, nonmatching_pm_queries
from .pm_protocol import run_pm
from .presets import DESK_T_CAP, desk_params
from .reports import Report, loglog_slope, mean, stderr_of_mean
from .sq_protocol import run_sq
from . import base_protocol as bp


class CliError(Exception):
    pass


# The keys a params file may hold and the JSON types of their values; the
# overrides apply to the "derive" preset only. null stands for the default.
_NUMBER = (int, float)
_DESK_KEYS = {"preset": (str,), "w": _NUMBER, "eps": _NUMBER, "delta": _NUMBER, "t_cap": (int,)}
_DERIVE_KEYS = {**_DESK_KEYS, "base_factor": _NUMBER, "h_override": _NUMBER}
_NULLABLE = {"w", "delta", "t_cap", "h_override"}


def _read_params_file(path) -> dict:
    with open(path) as fh:
        fields = json.load(fh)
    if not isinstance(fields, dict):
        raise CliError(f"params file {path} must hold a JSON object")
    preset = fields.get("preset", "desk")
    if preset not in ("desk", "derive"):
        raise CliError(f"params file key 'preset' must be 'desk' or 'derive', not {preset!r}")
    allowed = _DESK_KEYS if preset == "desk" else _DERIVE_KEYS
    for key, value in fields.items():
        if key not in allowed:
            raise CliError(f"params file key {key!r} is not a parameter of the {preset} preset")
        if value is None and key in _NULLABLE:
            continue
        types = allowed[key]
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise CliError(f"params file key {key!r} has a value of the wrong type: {value!r}")
    return fields


def _params_from_args(args, n: int, d: int, default_w: float | None = None) -> ProtocolParams:
    """Params from the flags, then the params file, then the defaults."""
    fields = _read_params_file(args.params_file) if getattr(args, "params_file", None) else {}
    preset = fields.pop("preset", "desk")
    w = fields.pop("w", None)
    if getattr(args, "w", None) is not None:
        w = args.w
    if w is None:
        if default_w is None:
            raise CliError("sparsity budget w is required (flag --w or params file)")
        w = default_w
    eps = fields.pop("eps", 0.25)
    if getattr(args, "eps", None) is not None:
        eps = args.eps
    delta = fields.pop("delta", None)
    if getattr(args, "delta", None) is not None:
        delta = args.delta
    t_cap = fields.pop("t_cap", None)
    if getattr(args, "cap_t", None) is not None:
        t_cap = args.cap_t
    if preset == "desk":
        t_cap = DESK_T_CAP if t_cap is None else t_cap
        return desk_params(n, d, w, eps=eps, delta=delta, t_cap=t_cap)
    return derive_params(d, w, eps, eps / 10.0 if delta is None else delta, t_cap=t_cap, **fields)


def _cmd_gen(args) -> int:
    if args.kind == "planted":
        inst = gen_planted(args.n, args.d, args.w, args.n_queries, args.seed)
    elif args.kind == "random-sq":
        inst = gen_random_sq(args.n, args.d, args.w_u, args.w_q, args.seed)
    else:
        raise CliError(f"unknown instance kind {args.kind!r}")
    inst.dataset.save(args.out + ".dataset")
    save_queries(args.out + ".queries", inst.queries)
    with open(args.out + ".truth.json", "w") as fh:
        json.dump(
            {
                "kind": inst.kind,
                "seed": inst.seed,
                "params": inst.params,
                "truth": [sorted(t) for t in inst.truth],
                "special": inst.special,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    _emit(args, {"dataset": args.out + ".dataset", "queries": args.out + ".queries",
                 "n": inst.dataset.n, "d": inst.dataset.dim})
    return 0


def _cmd_build(args) -> int:
    dataset = Dataset.load(args.dataset)
    params = _params_from_args(args, dataset.n, dataset.dim)
    tree = preprocess(dataset, args.protocol, params, args.seed, node_ceiling=args.node_ceiling)
    size = save_tree(tree, args.out)
    info = {
        "protocol": args.protocol,
        "nodes": tree.meta.node_count,
        "leaves": tree.meta.leaf_count,
        "stored_candidates": tree.meta.candidate_total,
        "bytes": size,
        "seed": args.seed,
        "w": params.w,
        "eps": params.eps,
        "delta": params.delta,
    }
    _emit(args, info)
    return 0


def _cmd_query(args) -> int:
    dataset = Dataset.load(args.dataset)
    tree = load_tree(args.tree, dataset)
    if tree.meta.protocol == "pm":
        queries = load_pm_queries(args.queries)
    else:
        queries = load_sq_queries(args.queries)
    report = Report(
        "query",
        {"tree": args.tree, "dataset": args.dataset, "seed": tree.meta.seed},
    )
    all_matches = []
    for qi, q in enumerate(queries):
        rep = query(tree, q)
        all_matches.append(sorted(rep.matches))
        report.add_row(
            query_index=qi,
            matches=" ".join(map(str, sorted(rep.matches))),
            n_matches=len(rep.matches),
            leaves_visited=rep.leaves_visited,
            candidates_scanned=rep.candidates_scanned,
            candidates_rejected=rep.candidates_rejected,
            bits_walked=rep.bits_walked,
        )
    report.aggregates = {
        "queries": len(queries),
        "mean_scanned": mean(r["candidates_scanned"] for r in report.rows),
        "mean_matches": mean(r["n_matches"] for r in report.rows),
    }
    _write_report(args, report)
    if not args.csv and not args.json:
        for qi, m in enumerate(all_matches):
            print(f"query {qi}: {len(m)} matches: {' '.join(map(str, m))}")
    return 0


def _cmd_sim(args) -> int:
    if args.trials < 1:
        raise CliError("trials must be at least 1")
    report = Report("sim", {"protocol": args.protocol, "seed": args.seed, "trials": args.trials})
    if args.protocol == "base":
        d = args.d
        t = 4 if args.t is None else args.t
        if t < 1:
            raise CliError("parity rounds t must be at least 1")
        tape = RandomTape(args.seed, Stream.PUB)
        y = TernaryPattern(d, stars=0b11, one_bits=tape.draw_bits(d) & ~0b11 & ((1 << d) - 1))
        fill = tape.draw_bits(2)
        ybar = y.fill_stars(BitVector(2, fill))
        while True:
            x = BitVector(d, tape.draw_bits(d))
            if x != ybar:
                break
        adv = bp.BaseAdvice(bp.PM, fill, 2)
        # Each run draws its parity vectors from the private tape it advances.
        tapes = Tapes.from_seed(args.seed + 1)
        runs = (bp.run_base(bp.PM, x, y, d, d, 2.0**-t, adv, tapes) for _ in range(args.trials))
        rate = sum(tr.output for tr in runs) / args.trials
        stderr = (rate * (1.0 - rate) / args.trials) ** 0.5
        report.add_row(t=t, accept_rate=rate, stderr=stderr, target=2.0**-t)
        report.aggregates = {"accept_rate": rate, "target": 2.0**-t, "stderr": stderr}
        _say(args, f"base accept rate: {rate:.5f} +/- {stderr:.5f} (target {2.0**-t:.5f})")
    elif args.protocol in ("sq", "pm"):
        d = args.d
        params = _params_from_args(args, args.n, d, default_w=max(2, d // 8))
        tape = RandomTape(args.seed, Stream.PUB)
        k = int(params.w)
        if args.protocol == "sq":
            # 1 to k ones, so that every point fits the budget.
            sizes = (1 + tape.draw_below(k) for _ in range(args.n))
            pts = tuple(BitVector.from_ones(d, distinct_positions(tape, d, s)) for s in sizes)
        else:
            pts = tuple(BitVector(d, tape.draw_bits(d) & tape.draw_bits(d)) for _ in range(args.n))
        lam = EmpiricalDistribution(Dataset(d, pts))
        fp = fn = pos = neg = 0
        max_ca = max_cb = max_cm = 0
        for i in range(args.trials):
            x = pts[tape.draw_below(args.n)]
            if args.protocol == "sq":
                # At most k ones; half the queries hold x.
                held = x if tape.draw_bits(1) else BitVector(d, 0)
                yq = held | BitVector.from_ones(d, distinct_positions(tape, d, k - held.popcount()))
                truth = x.subset_of(yq)
                tr = run_sq(params, lam, x, yq, None, Tapes.from_seed(args.seed + 10 + i))
            else:
                stars = sorted(tape.draw_below(d) for _ in range(k))
                stars = list(dict.fromkeys(stars))
                # Half the patterns are cut out of x.
                cut = x if tape.draw_bits(1) else BitVector(d, tape.draw_bits(d))
                yq = TernaryPattern.from_point(cut, stars)
                truth = yq.matches(x)
                tr = run_pm(params, lam, x, yq, None, Tapes.from_seed(args.seed + 10 + i))
            if truth:
                pos += 1
                fn += 1 if tr.output == 0 else 0
            else:
                neg += 1
                fp += 1 if tr.output == 1 else 0
            max_ca = max(max_ca, tr.c_a)
            max_cb = max(max_cb, tr.c_b)
            max_cm = max(max_cm, tr.c_m)
        report.add_row(positives=pos, negatives=neg, false_neg=fn, false_pos=fp,
                       max_c_a=max_ca, max_c_b=max_cb, max_c_m=max_cm)
        report.aggregates = {
            "false_negative_rate": fn / pos if pos else 0.0,
            "false_positive_rate": fp / neg if neg else 0.0,
            "max_c_a": max_ca, "max_c_b": max_cb, "max_c_m": max_cm,
        }
        _say(
            args,
            f"{args.protocol}: {pos} positives ({fn} rejected), {neg} negatives "
            f"({fp} accepted); max bits a={max_ca} b={max_cb} m={max_cm}",
        )
    else:
        raise CliError(f"unknown protocol {args.protocol!r}")
    _write_report(args, report)
    return 0


def _cmd_fix_seed(args) -> int:
    params = StdParams(args.d, args.ell, args.eps)
    lam = EmpiricalDistribution(uniform_size_dataset(args.d, args.k, 128, seed=args.seed))
    rho = EmpiricalDistribution(uniform_size_dataset(args.d, args.l, 128, seed=args.seed + 1))
    res = fix_randomness(lam, rho, params, list(range(args.seeds)), args.trials, eval_seed=args.seed)
    info = {
        "chosen_seed": res.seed,
        "heldout_error": res.heldout.mean,
        "heldout_stderr": res.heldout.stderr,
        "per_seed": {str(k): v for k, v in sorted(res.estimates.items())},
    }
    _emit(args, info)
    _say(args, f"chosen seed {res.seed}: heldout error {res.heldout.mean:.4f} "
               f"+/- {res.heldout.stderr:.4f}")
    return 0


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sweep_n.split(",")]
    if args.queries < 1:
        raise CliError(f"queries must be at least 1, not {args.queries}")
    # Every size's params are checked before the first build.
    sweep = [(n, _params_from_args(args, n, args.d)) for n in sizes]
    if len(set(sizes)) < 2:
        raise CliError("the sweep needs at least two distinct sizes to fit a slope")
    report = Report("bench", {"d": args.d, "w": args.w, "seed": args.seed})
    tape = RandomTape(args.seed, Stream.PUB)
    means = []
    for n, params in sweep:
        pts = tuple(BitVector(args.d, tape.draw_bits(args.d)) for _ in range(n))
        dataset = Dataset(args.d, pts)
        tree = preprocess(dataset, "pm", params, seed=args.seed + n,
                          node_ceiling=args.node_ceiling)
        queries = nonmatching_pm_queries(dataset, args.w, args.queries, seed=args.seed + 1 + n)
        scans = []
        for qi, q in enumerate(queries):
            rep = query(tree, q)
            scans.append(rep.candidates_scanned)
            report.add_row(n=n, query_index=qi, candidates_scanned=rep.candidates_scanned,
                           leaves_visited=rep.leaves_visited, bits_walked=rep.bits_walked,
                           seed=args.seed)
        means.append(max(mean(scans), 1e-9))
        _say(args, f"n={n}: mean candidates_scanned {means[-1]:.1f} "
                   f"(stderr {stderr_of_mean(scans):.1f})")
    slope = loglog_slope(sizes, means)
    report.aggregates = {
        "sizes": sizes,
        "mean_scans": means,
        "loglog_slope": slope,
    }
    _say(args, f"log-log slope: {slope:.3f}")
    _write_report(args, report)
    return 0


def _cmd_verify(args) -> int:
    if args.only:
        results = [acceptance.run_criterion(args.only, quick=args.quick)]
        _say(args, results[0].line())
    else:
        results = acceptance.run_all(quick=args.quick, printer=None if args.json else print)
    ok = all(r.passed for r in results)
    if args.json:
        print(json.dumps(
            {"passed": ok,
             "criteria": [
                 {"id": r.ident, "name": r.name, "passed": r.passed,
                  "detail": r.detail, "seconds": round(r.seconds, 2)}
                 for r in results
             ]},
            indent=2, sort_keys=True))
    return 0 if ok else 1


def _emit(args, obj: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for k, v in obj.items():
            print(f"{k}: {v}")


def _say(args, line: str) -> None:
    """Print a line for a reader; under --json stdout holds only the JSON object."""
    if not getattr(args, "json", False):
        print(line)


def _write_report(args, report: Report) -> None:
    """Under --json, print the report as one object; write every file named."""
    if getattr(args, "json", False):
        print(json.dumps(report.to_json_obj(), indent=2, sort_keys=True))
    if getattr(args, "csv", None):
        report.write_csv(args.csv)
    if getattr(args, "json_out", None):
        report.write_json(args.json_out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmtree",
        description="Wildcard/subset search structures compiled from randomized protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance (dataset + queries + truth)")
    p.add_argument("--kind", default="planted", choices=["planted", "random-sq"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--w", type=int, default=8)
    p.add_argument("--w-u", dest="w_u", type=float, default=0.3)
    p.add_argument("--w-q", dest="w_q", type=float, default=0.6)
    p.add_argument("--n-queries", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("build", help="compile a search tree over a dataset file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--protocol", default="pm", choices=["pm", "sq"])
    p.add_argument("--w", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--cap-t", dest="cap_t", type=int)
    p.add_argument("--node-ceiling", type=int, default=DEFAULT_NODE_CEILING)
    p.add_argument("--params-file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="answer queries from a file against a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--csv", help="write per-query rows to this CSV file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("sim", help="standalone protocol simulations")
    p.add_argument("--protocol", required=True, choices=["base", "sq", "pm"])
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--t", type=int, help="parity rounds for the base protocol")
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--w", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--cap-t", dest="cap_t", type=int)
    p.add_argument("--params-file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("fix-seed", help="pick a low-error seed for the two-party protocol")
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--ell", type=int, default=4)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--l", type=int, default=8)
    p.add_argument("--seeds", type=int, default=16)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fix_seed)

    p = sub.add_parser("bench", help="scan-count scaling sweep over dataset sizes")
    p.add_argument("--sweep-n", default="256,1024,4096")
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--w", type=int, default=4)
    p.add_argument("--queries", type=int, default=50)
    p.add_argument("--cap-t", dest="cap_t", type=int)
    p.add_argument("--node-ceiling", type=int, default=DEFAULT_NODE_CEILING)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv")
    p.add_argument("--json-out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--quick", action="store_true", help="reduced trial counts")
    p.add_argument("--only", type=int, help="run a single criterion by number")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError, TreeError, struct.error) as exc:
        if getattr(args, "json", False):
            print(json.dumps({"error": str(exc), "type": type(exc).__name__}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
