import json
import os

import pytest

from pmtree import compiler
from pmtree.cli import main
from pmtree.bits import Dataset
from pmtree.compiler import Leaf, MerlinDeferred, ProtocolTree, load_tree, save_tree, serialize
from pmtree.reports import loglog_slope


def test_gen_build_query_round_trip(tmp_path, capsys, monkeypatch):
    inst = str(tmp_path / "inst")
    tree = str(tmp_path / "tree.bin")
    assert main(["gen", "--n", "64", "--d", "16", "--w", "4", "--n-queries", "6",
                 "--seed", "3", "--out", inst]) == 0
    # The build serializes the tree once (each serialize checks the params it
    # stores through _stored_params) and reports the size it wrote.
    stored, calls = compiler._stored_params, []
    monkeypatch.setattr(compiler, "_stored_params", lambda *a: calls.append(a) or stored(*a))
    capsys.readouterr()
    assert main(["build", "--dataset", inst + ".dataset", "--w", "4", "--seed", "1",
                 "--out", tree, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["bytes"] == os.path.getsize(tree)
    assert len(calls) == 1
    assert main(["query", "--tree", tree, "--dataset", inst + ".dataset",
                 "--queries", inst + ".queries"]) == 0
    # One line per query: "query <i>: <k> matches: <ids>"
    lines = capsys.readouterr().out.splitlines()
    answers = [[int(i) for i in line.split("matches:")[1].split()] for line in lines]
    with open(inst + ".truth.json") as fh:
        truth = json.load(fh)["truth"]
    assert answers == truth
    # Under --json each row carries its query's matches.
    assert main(["query", "--tree", tree, "--dataset", inst + ".dataset",
                 "--queries", inst + ".queries", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [[int(i) for i in r["matches"].split()] for r in rows] == truth


def test_input_errors_exit_1_without_traceback(tmp_path, capsys, monkeypatch):
    inst = str(tmp_path / "inst")
    dataset = inst + ".dataset"
    tree = tmp_path / "tree.bin"
    assert main(["gen", "--n", "64", "--d", "16", "--out", inst]) == 0

    # A build over the node ceiling.
    assert main(["build", "--dataset", dataset, "--w", "4", "--node-ceiling", "10",
                 "--out", str(tree)]) == 1
    assert "exceeds the ceiling" in capsys.readouterr().err

    # Params files that are not an object, name an unknown key or give a
    # value of the wrong type.
    bad = tmp_path / "bad.json"
    for content, named in (
        ([1, 2], "JSON object"),
        ({"preset": "derive", "w": 4, "colour": 1}, "'colour'"),
        ({"preset": "derive", "w": 4, "t_cap": "x"}, "'t_cap'"),
    ):
        bad.write_text(json.dumps(content))
        assert main(["build", "--dataset", dataset, "--params-file", str(bad),
                     "--out", str(tree)]) == 1
        assert named in capsys.readouterr().err
    assert not tree.exists()

    # Zero is a value, not "unset": a zero sample cap and a zero delta are refused.
    assert main(["build", "--dataset", dataset, "--w", "4", "--cap-t", "0",
                 "--out", str(tree)]) == 1
    assert "t_cap must be at least 1" in capsys.readouterr().err
    bad.write_text(json.dumps({"preset": "derive", "w": 4, "delta": 0}))
    assert main(["build", "--dataset", dataset, "--params-file", str(bad),
                 "--out", str(tree)]) == 1
    assert "0 < delta" in capsys.readouterr().err
    assert not tree.exists()

    # Dataset files with more point lines than the header gives, or a negative count.
    short = tmp_path / "short.dataset"
    for text, named in (("4 2\n0110\n1000\n0011\n", "holds more than the 2 points"),
                        ("4 -1\n", "header gives a negative point count -1")):
        short.write_text(text)
        assert main(["build", "--dataset", str(short), "--w", "2", "--out", str(tree)]) == 1
        assert f"error: dataset {named}" in capsys.readouterr().err
    assert not tree.exists()

    # Params the tree file cannot store: no file is written.
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"preset": "derive", "w": 8, "eps": 0.25, "delta": 0.05,
                                  "t_cap": 3, "base_factor": 1.0, "h_override": 1.0}))
    assert main(["build", "--dataset", dataset, "--protocol", "sq", "--params-file",
                 str(params), "--node-ceiling", "100000", "--out", str(tree)]) == 1
    assert "h_override" in capsys.readouterr().err
    assert not tree.exists()

    # A truncated tree file.
    assert main(["build", "--dataset", dataset, "--w", "4", "--out", str(tree)]) == 0
    tree.write_bytes(tree.read_bytes()[:-3])
    assert main(["query", "--tree", str(tree), "--dataset", dataset,
                 "--queries", inst + ".queries"]) == 1
    assert "truncated" in capsys.readouterr().err

    # A leaf candidate id outside the dataset.
    assert main(["build", "--dataset", dataset, "--w", "4", "--out", str(tree)]) == 0
    ds = Dataset.load(dataset)
    loaded = load_tree(tree, ds)
    leaf = loaded.root
    while not isinstance(leaf, Leaf):
        leaf = next(iter(leaf.children.values())) if hasattr(leaf, "children") else leaf.child
    leaf.candidates = leaf.candidates[:-1] + (ds.n,)
    save_tree(loaded, tree)
    assert main(["query", "--tree", str(tree), "--dataset", dataset,
                 "--queries", inst + ".queries"]) == 1
    assert "not a point" in capsys.readouterr().err

    # A valid header over 2 000 nested MerlinDeferred nodes (10 bytes each) and a leaf.
    blob = serialize(ProtocolTree(MerlinDeferred("pm", 4.0, Leaf(())), loaded.meta, ds))
    tree.write_bytes(blob[:-15] + blob[-15:-5] * 2000 + blob[-5:])
    assert main(["query", "--tree", str(tree), "--dataset", dataset,
                 "--queries", inst + ".queries"]) == 1
    assert "nest deeper" in capsys.readouterr().err

    # Dataset sizes, trial counts and parity rounds below 1, and a sweep that
    # cannot fit a slope; bench refuses them before it builds a tree.
    builds = []
    monkeypatch.setattr("pmtree.cli.preprocess", lambda *a, **k: builds.append(a))
    for argv, named in (
        (["sim", "--protocol", "sq", "--n", "0"], "n must be at least 1, not 0"),
        (["sim", "--protocol", "pm", "--n", "-3"], "n must be at least 1, not -3"),
        (["bench", "--sweep-n", "0"], "n must be at least 1, not 0"),
        (["bench", "--sweep-n", "64,0"], "n must be at least 1, not 0"),
        (["bench", "--sweep-n", "64,64"], "at least two distinct sizes"),
        (["bench", "--sweep-n", "64"], "at least two distinct sizes"),
        (["bench", "--queries", "0"], "queries must be at least 1, not 0"),
        (["bench", "--queries", "-2"], "queries must be at least 1, not -2"),
        (["fix-seed", "--trials", "0"], "trials must be at least 1"),
        (["sim", "--protocol", "base", "--t", "0"], "t must be at least 1"),
        (["sim", "--protocol", "base", "--t", "-1"], "t must be at least 1"),
        (["sim", "--protocol", "base", "--trials", "0"], "trials must be at least 1"),
        (["sim", "--protocol", "sq", "--trials", "0"], "trials must be at least 1"),
        (["sim", "--protocol", "pm", "--trials", "0"], "trials must be at least 1"),
    ):
        assert main(argv) == 1, argv
        assert named in capsys.readouterr().err
    assert builds == []


def test_sim_sq_runs_every_trial_and_sees_both_answers(capsys):
    # The default budget is w = d // 8 = 4: every drawn point and query fits it.
    assert main(["sim", "--protocol", "sq", "--trials", "200", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["positives"] > 0 and row["negatives"] > 0
    assert row["positives"] + row["negatives"] == 200
    assert row["false_neg"] == 0


def test_sim_pm_runs_every_trial_and_sees_both_answers(capsys):
    # Half the patterns are cut out of the drawn point, so they match it.
    assert main(["sim", "--protocol", "pm", "--trials", "200", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["positives"] > 0 and row["negatives"] > 0
    assert row["positives"] + row["negatives"] == 200
    assert row["false_neg"] == 0


def test_verify_one_criterion():
    assert main(["verify", "--only", "10", "--quick"]) == 0


@pytest.mark.parametrize("argv", [
    ["sim", "--protocol", "pm", "--trials", "5"],
    ["sim", "--protocol", "sq", "--trials", "5"],
    ["bench", "--sweep-n", "64,128", "--queries", "5"],
    ["verify", "--only", "10", "--quick"],
    ["verify", "--only", "8", "--quick"],
    ["bench", "--sweep-n", "64,128", "--queries", "5", "--csv", "{tmp}/bench.csv",
     "--json-out", "{tmp}/bench.json"],
    ["query", "--tree", "{tmp}/tree.bin", "--dataset", "{tmp}/inst.dataset",
     "--queries", "{tmp}/inst.queries", "--csv", "{tmp}/query.csv"],
])
def test_json_output_is_one_object(argv, tmp_path, capsys):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if argv[0] == "query":
        inst = str(tmp_path / "inst")
        assert main(["gen", "--n", "64", "--d", "16", "--w", "4", "--out", inst]) == 0
        assert main(["build", "--dataset", inst + ".dataset", "--w", "4",
                     "--out", str(tmp_path / "tree.bin")]) == 0
        capsys.readouterr()
    # sim runs without --w on the default budget max(2, d // 8).
    assert main(argv + ["--json"]) == 0
    assert isinstance(json.loads(capsys.readouterr().out), dict)
    # Files named beside --json are written too.
    for flag in ("--csv", "--json-out"):
        if flag in argv:
            assert os.path.getsize(argv[argv.index(flag) + 1]) > 0
    if "--json-out" in argv:
        with open(argv[argv.index("--json-out") + 1]) as fh:
            assert json.load(fh)["experiment"] == "bench"


def test_loglog_slope_needs_two_distinct_sizes():
    assert loglog_slope([64, 128], [1.0, 2.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="two distinct sizes"):
        loglog_slope([64, 64], [1.0, 2.0])
