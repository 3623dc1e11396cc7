import json

from pmtree.cli import main


def test_gen_build_query_round_trip(tmp_path, capsys):
    inst = str(tmp_path / "inst")
    tree = str(tmp_path / "tree.bin")
    assert main(["gen", "--n", "64", "--d", "16", "--w", "4", "--n-queries", "6",
                 "--seed", "3", "--out", inst]) == 0
    assert main(["build", "--dataset", inst + ".dataset", "--w", "4", "--seed", "1",
                 "--out", tree]) == 0
    capsys.readouterr()
    assert main(["query", "--tree", tree, "--dataset", inst + ".dataset",
                 "--queries", inst + ".queries"]) == 0
    # One line per query: "query <i>: <k> matches: <ids>"
    lines = capsys.readouterr().out.splitlines()
    answers = [[int(i) for i in line.split("matches:")[1].split()] for line in lines]
    with open(inst + ".truth.json") as fh:
        assert answers == json.load(fh)["truth"]


def test_input_errors_exit_1_without_traceback(tmp_path, capsys):
    inst = str(tmp_path / "inst")
    dataset = inst + ".dataset"
    tree = tmp_path / "tree.bin"
    assert main(["gen", "--n", "64", "--d", "16", "--out", inst]) == 0

    # A build over the node ceiling.
    assert main(["build", "--dataset", dataset, "--w", "4", "--node-ceiling", "10",
                 "--out", str(tree)]) == 1
    assert "exceeds the ceiling" in capsys.readouterr().err

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
