"""tools/bench_row.py: paired runs of two commits become one BENCH row."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_row.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_row", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(path, setup_s, qps, correct=True):
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "query_qps": {"value": qps, "unit": "1/s"}}
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
              "metrics": metrics}
    path.write_text("warm-up chatter\n" + json.dumps(result) + "\n")


def test_paired_runs_become_medians_quartiles_and_wins(tmp_path):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "query_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]}))
    for side in ("parent", "change"):
        (tmp_path / "runs" / side).mkdir(parents=True)
    for seed in range(1, 6):
        name = f"pm-iter-seed{seed}.json"
        _write_run(tmp_path / "runs" / "parent" / name, 1.0 + seed / 10, 100.0)
        _write_run(tmp_path / "runs" / "change" / name, 0.5 + seed / 10, 100.0 + (seed > 1),
                   correct=seed != 3)
    out = tmp_path / "BENCH_1.json"
    assert _tool().main([str(tmp_path / "runs"), "--parent", "aaa", "--change", "bbb",
                         "--seconds", "25", "--out", str(out), "--benchmark", str(bench)]) == 0
    row = json.loads(out.read_text())
    assert (row["parent_sha"], row["change_sha"], row["run_seconds"]) == ("aaa", "bbb", 25.0)
    (name, workload), = row["workloads"].items()
    assert name == "pm-iter" and workload["seeds"] == [1, 2, 3, 4, 5]
    assert workload["change_checks"] == {"correct_runs": 4, "attempted": 50, "failed": 1}
    setup = workload["metrics"]["setup_s"]
    assert setup["parent"]["median"] == 1.3 and setup["change"]["median"] == 0.8
    assert setup["parent"]["q1"] < 1.3 < setup["parent"]["q3"]
    assert setup["change_wins"] == 5 and setup["pairs"] == 5
    assert workload["metrics"]["query_qps"]["change_wins"] == 4  # seed 1 ties


def test_unpaired_seeds_exit_1(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    _write_run(tmp_path / "parent" / "pm-desk-seed1.json", 1.0, 1.0)
    _write_run(tmp_path / "change" / "pm-desk-seed2.json", 1.0, 1.0)
    out = tmp_path / "row.json"
    assert _tool().main([str(tmp_path), "--parent", "a", "--change", "b", "--seconds", "1",
                         "--out", str(out)]) == 1
    assert "differ" in capsys.readouterr().err and not out.exists()
