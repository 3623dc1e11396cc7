"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload pm-desk [--seeds 1-10]

Runs perfbench/run.py untraced once per seed, one run at a time, for the
run_seconds of BENCHMARK.json, and prints for each end-to-end metric the
median and the spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median. Each run's
wall time is printed as it ends.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for line in proc.stderr.splitlines():
            print(f"seed {seed}: {line}", file=sys.stderr)
        print(f"seed {seed}: {wall:.1f} s wall, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':28} {'unit':6} {'median':>14} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:28} {units[name]:6} {med:14.6g} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
