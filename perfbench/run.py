"""Build, load and query benchmark for pmtree.

    python3 perfbench/run.py --workload pm-desk --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: each query is issued when the previous
one has returned. After a checked set-up, the run repeats whole rounds until
--seconds have passed and at least MIN_QUERY_SAMPLES queries are timed. A
round is one build (preprocess + serialize), one load (deserialize) and one
pass over the workload's distinct queries on the freshly loaded tree.

Every answer is checked against the benchmark's own raw-integer matcher and
against pmtree.oracles.brute_force_pm; see README.md for the full list of checks. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics for --trace 0 and the
per-layer metrics for --trace 1. The command exits nonzero if any check
failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns, process_time_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

MIN_QUERY_SAMPLES = 1000  # p99 then has at least ten samples beyond it
MAX_SECONDS = 120  # rounds stop here even short of MIN_QUERY_SAMPLES

# Timed spans are read from the process's CPU clock, which counts every
# thread of the process. The program does no I/O, so its CPU time is its
# latency on cores of its own. On a shared VM the wall clock adds hypervisor
# steal in bursts of 5-60 ms: wall minus CPU time exceeded 1 ms on 93 of 6528
# pm-desk queries, enough to move p99 by half from one run to the next. Work
# that waits rather than computes would not show on this clock, so each phase
# also keeps its wall-clock total, and the run warns when the two diverge.
clock = process_time_ns
WALL_OVER_CPU_WARNING = 1.25  # steal alone stayed below this phase-wide
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    """The process's resident memory now (not its high-water mark)."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE_BYTES


class Run:
    """The state of one benchmark run: inputs, verified answers, samples."""

    def __init__(self, inputs, seconds: float, trace: bool):
        from pmtree import compiler
        from spans import Tracer

        self.C = compiler
        self.inputs = inputs
        self.spec = inputs.spec
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.expected: list[frozenset[int]] = []
        self.brute_ns: list[int] = []
        self.setup_ns: dict[bool, list[int]] = {False: [], True: []}
        self.load_ns: dict[bool, list[int]] = {False: [], True: []}
        self.latency_ns: dict[bool, list[int]] = {False: [], True: []}
        # Untraced phase totals: name -> [CPU ns, wall ns].
        self.phase_ns = {"build": [0, 0], "load": [0, 0], "query": [0, 0]}
        self.loaded_rss: list[int] = []
        self.scanned = 0
        self.matched = 0
        self.leaves = 0
        self.bits = 0
        self.blob = b""
        self.meta = None

    # -- checked set-up, outside every timed window ------------------------

    def prepare(self) -> None:
        from pmtree import oracles
        from workloads import raw_pm

        inp, C = self.inputs, self.C
        values = [p.value for p in inp.dataset.points]
        for k, q in enumerate(inp.queries):
            raw = raw_pm(values, q.stars, q.one_bits)
            t0 = clock()
            oracle = oracles.brute_force_pm(inp.dataset, q)
            self.brute_ns.append(clock() - t0)
            if raw != oracle:
                self.problems.append(f"query {k}: raw matcher and brute force disagree")
            anchor = inp.anchors[k]
            if anchor is not None and anchor not in raw:
                self.problems.append(f"query {k}: planted query misses its anchor {anchor}")
            self.expected.append(frozenset(raw))

        # One tree is alive at a time, so no check holds two trees in memory.
        tree = C.preprocess(inp.dataset, C.PM_PROTOCOL, inp.params, inp.tree_seed)
        self.blob = C.serialize(tree)
        self.meta = tree.meta
        for k, q in enumerate(inp.queries):
            if not self.answer_ok(k, C.query(tree, q)):
                self.problems.append(f"query {k}: the built tree gives a wrong answer")
        del tree
        loaded = C.deserialize(self.blob, inp.dataset)
        if C.serialize(loaded) != self.blob:
            self.problems.append("a reloaded tree re-serializes to other bytes")
        for k, q in enumerate(inp.queries):
            if not self.answer_ok(k, C.query(loaded, q)):
                self.problems.append(f"query {k}: the reloaded tree gives a wrong answer")

    def answer_ok(self, k: int, report) -> bool:
        """The answer equals the verified one and the scan counters add up.

        A base-case tree stores each point in one bucket, so every candidate
        is scanned once and scanned == matches + rejected. Iterative trees can
        store a point in several leaves; there a match may be scanned more
        than once, so only scanned - rejected >= matches holds.
        """
        accepted = report.candidates_scanned - report.candidates_rejected
        if report.matches != self.expected[k] or report.candidates_rejected < 0:
            return False
        if self.inputs.params.is_base_case():
            return accepted == len(report.matches)
        return accepted >= len(report.matches)

    # -- timed rounds ------------------------------------------------------

    def measure(self) -> None:
        self.rounds()
        for phase, (cpu, wall) in self.phase_ns.items():
            if cpu and wall > WALL_OVER_CPU_WARNING * cpu:
                print(f"warning: {phase} phases took {wall / 1e9:.3f} s of wall time "
                      f"for {cpu / 1e9:.3f} s of CPU time", file=sys.stderr)

    def rounds(self) -> None:
        start = perf_counter_ns()
        limit = self.seconds * 1e9
        rounds = 0
        while perf_counter_ns() - start < MAX_SECONDS * 1e9 and (
            perf_counter_ns() - start < limit
            or self.samples() < MIN_QUERY_SAMPLES
            or (self.tracer is not None and rounds < 2)
        ):
            # In a traced run every other round is traced, so the untraced
            # rounds in between give the tracing overhead.
            traced = self.tracer is not None and rounds % 2 == 1
            if traced:
                self.tracer.install()
            try:
                self.round(traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            rounds += 1

    def add_phase(self, phase: str, cpu_ns: int, wall_ns: int) -> None:
        self.phase_ns[phase][0] += cpu_ns
        self.phase_ns[phase][1] += wall_ns

    def samples(self) -> int:
        return len(self.latency_ns[False]) + len(self.latency_ns[True])

    def round(self, traced: bool) -> None:
        inp, C = self.inputs, self.C
        gc.collect()
        w0, t0 = perf_counter_ns(), clock()
        tree = C.preprocess(inp.dataset, C.PM_PROTOCOL, inp.params, inp.tree_seed)
        blob = C.serialize(tree)
        t1, w1 = clock(), perf_counter_ns()
        del tree
        self.setup_ns[traced].append(t1 - t0)
        if not traced:
            self.add_phase("build", t1 - t0, w1 - w0)
        self.attempted += 1
        if blob != self.blob:
            self.failed += 1
            self.problems.append("a rebuild gave other bytes")

        w0, t0 = perf_counter_ns(), clock()
        loaded = C.deserialize(blob, inp.dataset)
        t1, w1 = clock(), perf_counter_ns()
        self.load_ns[traced].append(t1 - t0)
        self.attempted += 1
        gc.collect()  # the load's garbage is not the queries' cost
        if not traced:
            self.add_phase("load", t1 - t0, w1 - w0)
            self.loaded_rss.append(resident_bytes())

        latency = self.latency_ns[traced]
        reports = []
        queries = inp.queries
        query = C.query
        wall0, phase0 = perf_counter_ns(), clock()
        for q in queries:
            t0 = clock()
            r = query(loaded, q)
            latency.append(clock() - t0)
            reports.append(r)
        if not traced:
            self.add_phase("query", clock() - phase0, perf_counter_ns() - wall0)

        for k, r in enumerate(reports):
            self.attempted += 1
            if not self.answer_ok(k, r):
                self.failed += 1
                self.problems.append(f"query {k}: the loaded tree gives a wrong answer")
            self.scanned += r.candidates_scanned
            self.matched += len(r.matches)
            self.leaves += r.leaves_visited
            self.bits += r.bits_walked

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict:
        lat = self.latency_ns[False]
        n_reports = self.samples()
        return {
            "setup_s": (statistics.median(self.setup_ns[False]) / 1e9, "s"),
            "load_s": (statistics.median(self.load_ns[False]) / 1e9, "s"),
            "tree_bytes": (len(self.blob), "bytes"),
            "peak_rss_mb": (max(self.loaded_rss) / 2**20, "MB"),
            "query_p50_us": (statistics.median(lat) / 1e3, "us"),
            "query_p99_us": (statistics.quantiles(lat, n=100)[98] / 1e3, "us"),
            "query_qps": (len(lat) / (self.phase_ns["query"][0] / 1e9), "1/s"),
            "scans_per_query": (self.scanned / n_reports, "count"),
        }

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        builds = [s for s in spans if s["root"] == "preprocess"]
        queries = [s for s in spans if s["root"] == "query"]

        def per_build(name, field):
            return statistics.median(s["layers"].get(name, (0, 0))[field] for s in builds)

        def per_query(name, field):
            return sum(s["layers"].get(name, (0, 0))[field] for s in queries) / len(queries)

        def root_s(name):
            return statistics.median(s["end_ns"] - s["start_ns"] for s in spans if s["root"] == name) / 1e9

        def overhead_pct(samples):
            return 100.0 * (statistics.median(samples[True]) / statistics.median(samples[False]) - 1.0)

        meta = self.meta
        n = self.samples()
        buckets = per_query("bucket_test", 0)
        return {
            "build.nodes": (meta.node_count, "count"),
            "build.leaves": (meta.leaf_count, "count"),
            "build.candidates_stored": (meta.candidate_total, "count"),
            "build.self_s": (statistics.median(s["self_ns"] for s in builds) / 1e9, "s"),
            "build.parity_vector_calls": (per_build("parity_vector", 0), "count"),
            "build.parity_vector_s": (per_build("parity_vector", 1) / 1e9, "s"),
            "build.unrank_subset_calls": (per_build("unrank_subset", 0), "count"),
            "build.unrank_subset_s": (per_build("unrank_subset", 1) / 1e9, "s"),
            "build.dist_calls": (per_build("dist", 0), "count"),
            "build.dist_s": (per_build("dist", 1) / 1e9, "s"),
            "serialize.s": (root_s("serialize"), "s"),
            "deserialize.s": (root_s("deserialize"), "s"),
            "serialize.bytes_per_node": (len(self.blob) / meta.node_count, "bytes"),
            "query.parity_vector_calls": (per_query("parity_vector", 0), "count"),
            "query.parity_vector_us": (per_query("parity_vector", 1) / 1e3, "us"),
            "query.unrank_subset_calls": (per_query("unrank_subset", 0), "count"),
            "query.unrank_subset_us": (per_query("unrank_subset", 1) / 1e3, "us"),
            "query.walk_self_us": (sum(s["self_ns"] for s in queries) / len(queries) / 1e3, "us"),
            "query.buckets_tested": (buckets, "count"),
            "query.leaves_visited": (self.leaves / n, "count"),
            "query.bucket_yield": (self.leaves / n / buckets if buckets else 0.0, "ratio"),
            "query.bits_walked": (self.bits / n, "bits"),
            "query.predicate_calls": (per_query("predicate", 0), "count"),
            "query.predicate_us": (per_query("predicate", 1) / 1e3, "us"),
            "query.match_yield": (self.matched / self.scanned if self.scanned else 0.0, "ratio"),
            "oracle.brute_us": (statistics.median(self.brute_ns) / 1e3, "us"),
            "trace.query_overhead_pct": (overhead_pct(self.latency_ns), "%"),
            "trace.build_overhead_pct": (overhead_pct(self.setup_ns), "%"),
        }

    def result(self) -> dict:
        metrics = self.per_layer() if self.tracer is not None else self.end_to_end()
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def execute(spec, seed: int, seconds: float, trace: bool) -> tuple[dict, Run]:
    """Runs one workload; returns the result object and the run's state."""
    import workloads

    run = Run(workloads.make(spec, seed), seconds, trace)
    run.prepare()
    run.measure()
    return run.result(), run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None, help="dataset size (default: the workload's)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pmtree" / "__init__.py").is_file():
        print(f"error: no pmtree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]
    if args.n is not None:
        spec = workloads.resized(spec, args.n)

    result, run = execute(spec, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{spec.name}-n{spec.n}-seed{args.seed}-trace{args.trace}"
    if run.tracer is not None:
        run.tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    line = json.dumps(result)
    (OUT_DIR / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
