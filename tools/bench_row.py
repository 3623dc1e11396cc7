"""Turn paired benchmark runs of two commits into one BENCH_*.json row.

    python3 tools/bench_row.py RUNS --parent SHA --change SHA --seconds 25 --out BENCH_13.json

RUNS holds two folders, parent/ and change/. Each holds one file per run,
named <workload>-seed<seed>.json, whose last line is the result object that
perfbench/run.py prints. A pair is the two runs of one workload and seed. For
example, ten alternating pairs of one workload:

    for s in $(seq 1 10); do
      for side in $( ((s % 2)) && echo parent change || echo change parent); do
        (cd $side && python3 perfbench/run.py --workload pm-iter --seed $s \
          --seconds 25) | tail -1 > RUNS/$side/pm-iter-seed$s.json
      done
    done

Per workload, the row holds the seeds, the checks (runs correct, operations
attempted and failed), and for each end-to-end metric that BENCHMARK.json
lists: both sides' medians and quartiles (statistics.quantiles, n=4), and how
many pairs the change won, ties counting for neither side. The row records
the Python version that runs this script; run it with the runs' interpreter.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)\.json")


def load_runs(runs: Path) -> dict[str, dict[str, dict[int, dict]]]:
    """workload -> side -> seed -> result object."""
    out: dict[str, dict[str, dict[int, dict]]] = {}
    for side in SIDES:
        for path in sorted((runs / side).glob("*.json")):
            match = RUN_NAME.fullmatch(path.name)
            if match is None:
                raise ValueError(f"{path}: not named <workload>-seed<seed>.json")
            lines = path.read_text().split("\n")
            result = json.loads([line for line in lines if line.strip()][-1])
            by_side = out.setdefault(match["workload"], {s: {} for s in SIDES})
            by_side[side][int(match["seed"])] = result
    return out


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def workload_row(sides: dict[str, dict[int, dict]], metrics: list[dict]) -> dict:
    seeds = sorted(sides["parent"])
    if sorted(sides["change"]) != seeds or not seeds:
        raise ValueError(f"parent seeds {seeds} and change seeds {sorted(sides['change'])} differ")
    row = {"seeds": seeds}
    for side in SIDES:
        results = [sides[side][s] for s in seeds]
        row[f"{side}_checks"] = {
            "correct_runs": sum(bool(r["correct"]) for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
    row["metrics"] = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        pairs = [
            tuple(sides[side][s]["metrics"][name]["value"] for side in SIDES) for s in seeds
        ]
        parent, change = (list(side) for side in zip(*pairs))
        row["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": summary(parent),
            "change": summary(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "pairs": len(pairs),
        }
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", type=Path)
    parser.add_argument("--parent", required=True, help="git SHA of the parent commit")
    parser.add_argument("--change", required=True, help="git SHA of the change")
    parser.add_argument("--seconds", type=float, required=True, help="the runs' --seconds")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    bench = json.loads(args.benchmark.read_text())
    try:
        runs = load_runs(args.runs)
        workloads = {
            name: workload_row(sides, bench["end_to_end"]) for name, sides in sorted(runs.items())
        }
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not workloads:
        print(f"error: no runs under {args.runs}", file=sys.stderr)
        return 1
    row = {
        "parent_sha": args.parent,
        "change_sha": args.change,
        "python": sys.version.split()[0],
        "run_seconds": args.seconds,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(row, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
