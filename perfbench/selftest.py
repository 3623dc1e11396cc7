"""Self-test of the benchmark on scaled-down instances.

    python3 perfbench/selftest.py

Runs every workload at a small size, untraced and traced, and checks that the
result object carries exactly the metrics BENCHMARK.json lists. Then it
breaks the program's outputs on purpose, one way at a time, and checks that
the benchmark counts the failure and exits nonzero.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import unittest
from unittest import mock
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from pmtree import compiler, oracles  # noqa: E402

SMALL_N = {"pm-desk": 2048, "pm-wide": 1024, "pm-iter": 40}


def config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name: str) -> workloads.Spec:
    spec = workloads.resized(workloads.SPECS[name], SMALL_N[name])
    return dataclasses.replace(spec, queries=min(spec.queries, 12))


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self.min_samples = bench.MIN_QUERY_SAMPLES
        bench.MIN_QUERY_SAMPLES = 24

    def tearDown(self):
        bench.MIN_QUERY_SAMPLES = self.min_samples

    def execute(self, name: str, trace: bool = False) -> dict:
        result, _ = bench.execute(small(name), seed=3, seconds=0.1, trace=trace)
        return result

    def test_every_workload_is_listed_and_passes(self):
        self.assertEqual([w["name"] for w in config()["workloads"]], list(workloads.SPECS))
        wanted = {m["name"]: m["unit"] for m in config()["end_to_end"]}
        for name in workloads.SPECS:
            with self.subTest(workload=name):
                result = self.execute(name)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(got, wanted)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_reports_every_per_layer_metric(self):
        wanted = {m["name"]: m["unit"] for m in config()["per_layer"]}
        for name in workloads.SPECS:
            with self.subTest(workload=name):
                result = self.execute(name, trace=True)
                self.assertTrue(result["correct"])
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(got, wanted)

    def assert_caught(self, name: str, owner, attr, replacement) -> None:
        with mock.patch.object(owner, attr, replacement):
            result = self.execute(name)
        self.assertFalse(result["correct"])
        argv = ["--workload", name, "--seed", "3", "--seconds", "0.1", "--n", str(SMALL_N[name])]
        with mock.patch.object(owner, attr, replacement), redirect_stdout(io.StringIO()) as out, \
                redirect_stderr(io.StringIO()):
            code = bench.main(argv)
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(out.getvalue().splitlines()[-1])["correct"])

    def test_wrong_answer_is_caught(self):
        original = compiler.query

        def extra_match(tree, y):
            r = original(tree, y)
            wrong = next(i for i in range(tree.dataset.n) if i not in r.matches)
            return dataclasses.replace(r, matches=r.matches | {wrong})

        self.assert_caught("pm-wide", compiler, "query", extra_match)
        with mock.patch.object(compiler, "query", extra_match):
            result = self.execute("pm-iter")
        self.assertGreater(result["failed"], 0)

    def test_counters_that_do_not_add_up_are_caught(self):
        original = compiler.query

        def one_rejection_too_many(tree, y):
            r = original(tree, y)
            return dataclasses.replace(r, candidates_rejected=r.candidates_rejected + 1)

        self.assert_caught("pm-desk", compiler, "query", one_rejection_too_many)

    def test_a_rebuild_with_other_bytes_is_caught(self):
        original = compiler.serialize
        calls = []

        def drifting(tree):
            calls.append(1)
            return original(tree) + bytes(len(calls) % 2)  # consecutive calls differ

        self.assert_caught("pm-iter", compiler, "serialize", drifting)

    def test_an_oracle_disagreeing_with_the_raw_matcher_is_caught(self):
        self.assert_caught("pm-wide", oracles, "brute_force_pm", lambda dataset, y: set())


if __name__ == "__main__":
    unittest.main()
