import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fusegraph
from fusegraph import normalize, retrieval
from fusegraph.cli import main
from fusegraph.io import parse_run_file
from fusegraph.model import ScoredRank

from helpers import (
    TOY_LAYOUT,
    TOY_QUERY,
    random_rank_index,
    synthetic_collection,
    write_config,
    write_runs,
)


@pytest.fixture
def toy_files(tmp_path):
    collection = write_runs(tmp_path, TOY_LAYOUT, "coll")
    queries = write_runs(tmp_path, TOY_QUERY, "query")
    return {
        "config": write_config(tmp_path, "config.json", collection),
        "queries": write_config(tmp_path, "queries.json", queries),
        "dir": tmp_path,
    }


def test_extract_and_search_reproduce_toy_ordering(toy_files, capsys):
    index_dir = toy_files["dir"] / "index"
    out_run = toy_files["dir"] / "fg.run"
    assert main(["extract", "--config", str(toy_files["config"]), "--out", str(index_dir)]) == 0
    assert (index_dir / "manifest.json").exists()
    assert (
        main(
            [
                "search",
                "--index", str(index_dir),
                "--queries", str(toy_files["queries"]),
                "--out", str(out_run),
            ]
        )
        == 0
    )
    runs = parse_run_file(out_run, "FG")
    assert runs["q"].items() == ("A", "B")
    scores = [entry.score for entry in runs["q"]]
    assert scores[0] == 1.0  # distance 0 to its twin A
    assert scores[1] == pytest.approx(0.05 / 6.15, abs=1e-9)


def test_extract_search_byte_identical_across_workers(toy_files):
    base = toy_files["dir"]
    outputs = []
    for label in ("first", "second"):
        index_dir = base / f"index_{label}"
        out_run = base / f"fg_{label}.run"
        assert main(["extract", "--config", str(toy_files["config"]), "--out", str(index_dir)]) == 0
        assert (
            main(
                [
                    "search",
                    "--index", str(index_dir),
                    "--queries", str(toy_files["queries"]),
                    "--out", str(out_run),
                ]
            )
            == 0
        )
        outputs.append(
            (
                (index_dir / "manifest.json").read_bytes(),
                (index_dir / "graphs.jsonl").read_bytes(),
                (index_dir / "collection_ranks.jsonl").read_bytes(),
                out_run.read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["extract", "search"])
def test_workers_flag_is_rejected(toy_files, command, capsys):
    args = {
        "extract": ["--config", str(toy_files["config"]), "--out", str(toy_files["dir"] / "i")],
        "search": ["--index", "i", "--queries", str(toy_files["queries"]), "--out", "o.run"],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *args, "--workers", "2"])
    assert exit_info.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])
    assert error["error"] == "UsageError"
    assert "unrecognized arguments: --workers 2" in error["message"]


def test_baseline_command(toy_files):
    out = toy_files["dir"] / "borda.run"
    assert (
        main(["baseline", "borda", "--config", str(toy_files["config"]), "--out", str(out)])
        == 0
    )
    runs = parse_run_file(out, "borda")
    assert set(runs) == {"A", "B", "C"}
    assert runs["A"].items()[0] == "A"


def test_eval_command_ndcg_fixture(tmp_path, capsys):
    run_path = tmp_path / "test.run"
    run_path.write_text(
        "q1 Q0 a 1 3.0 t\nq1 Q0 x 2 2.0 t\nq1 Q0 c 3 1.0 t\n", encoding="utf-8"
    )
    qrels_path = tmp_path / "test.qrels"
    qrels_path.write_text("q1 0 a 1\nq1 0 c 1\n", encoding="utf-8")
    per_query = tmp_path / "per_query.tsv"
    assert (
        main(
            [
                "eval",
                "--run", str(run_path),
                "--qrels", str(qrels_path),
                "--metric", "ndcg",
                "--k", "3",
                "--per-query", str(per_query),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "mean ndcg@3 0.919721" in out
    assert per_query.read_text().startswith("q1\t0.9197")


def test_eval_command_class_labels_ns(tmp_path, capsys):
    run_path = tmp_path / "test.run"
    run_path.write_text(
        "q1 Q0 a 1 4.0 t\nq1 Q0 b 2 3.0 t\nq1 Q0 c 3 2.0 t\nq1 Q0 d 4 1.0 t\n",
        encoding="utf-8",
    )
    labels = tmp_path / "labels.txt"
    labels.write_text("q1 c1\na c1\nb c1\nc c2\nd c1\n", encoding="utf-8")
    assert (
        main(
            [
                "eval",
                "--run", str(run_path),
                "--class-labels", str(labels),
                "--metric", "ns",
            ]
        )
        == 0
    )
    assert "mean ns 3.000000" in capsys.readouterr().out


def test_correlate_command(toy_files, capsys):
    assert (
        main(["correlate", "--config", str(toy_files["config"]), "--measure", "jaccard"])
        == 0
    )
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["ranker", "r1", "r2"]
    r1_row = lines[1].split("\t")
    assert r1_row[0] == "r1"
    assert float(r1_row[1]) == 1.0  # self-correlation diagonal


def test_select_command(tmp_path, capsys):
    eff = tmp_path / "eff.txt"
    eff.write_text("LAS 0.850533\nCCOM 0.726186\nLBP 0.652759\n", encoding="utf-8")
    corr = tmp_path / "corr.tsv"
    corr.write_text(
        "ranker\tLAS\tCCOM\tLBP\n"
        "LAS\t1.00\t0.38\t0.30\n"
        "CCOM\t0.38\t1.00\t0.25\n"
        "LBP\t0.30\t0.25\t1.00\n",
        encoding="utf-8",
    )
    assert main(["select", "--effectiveness", str(eff), "--strategy", "top-two"]) == 0
    assert set(capsys.readouterr().out.split()) == {"LAS", "CCOM"}
    assert (
        main(
            [
                "select",
                "--effectiveness", str(eff),
                "--correlations", str(corr),
                "--strategy", "best-pair",
            ]
        )
        == 0
    )
    assert set(capsys.readouterr().out.split()) == {"LAS", "LBP"}


def test_winners_command(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text(
        "d1 c1 m1 0.9\nd1 c1 m2 0.1\nd1 c2 m1 0.1\nd1 c2 m2 0.9\n", encoding="utf-8"
    )
    assert main(["winners", "--table", str(table)]) == 0
    out = capsys.readouterr().out
    assert "m1\t1" in out and "m2\t1" in out


def test_ttest_command(tmp_path, capsys):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    a.write_text("".join(f"q{i}\t{0.8}\n" for i in range(10)), encoding="utf-8")
    b.write_text("".join(f"q{i}\t{0.3}\n" for i in range(10)), encoding="utf-8")
    assert main(["ttest", "--a", str(a), "--b", str(b)]) == 0
    assert capsys.readouterr().out.startswith("ABetter")


def test_threads_env_var_is_ignored(toy_files, monkeypatch):
    base = toy_files["dir"]
    monkeypatch.setenv("FUSEGRAPH_THREADS", "4")
    index_dir = base / "index_env"
    assert main(["extract", "--config", str(toy_files["config"]), "--out", str(index_dir)]) == 0
    reference = base / "index_ref"
    monkeypatch.setenv("FUSEGRAPH_THREADS", "not-a-number")
    assert main(["extract", "--config", str(toy_files["config"]), "--out", str(reference)]) == 0
    assert (index_dir / "graphs.jsonl").read_bytes() == (reference / "graphs.jsonl").read_bytes()


def test_cli_reports_machine_readable_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["extract", "--config", str(missing), "--out", str(tmp_path / "i")])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip())
    assert payload["error"] == "ConfigError"


def test_cli_error_category_for_bad_run(tmp_path, capsys):
    run = tmp_path / "bad.run"
    run.write_text("q1 Q0 a 1 1.0 t\nq1 Q0 a 2 0.5 t\n", encoding="utf-8")
    config = write_config(tmp_path, "c.json", {"r1": run})
    code = main(["extract", "--config", str(config), "--out", str(tmp_path / "i")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "DuplicateDoc"


def run_cli_process(*args):
    """Run the CLI in a fresh interpreter that imports this checkout's package."""
    src = str(Path(fusegraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_cli_import_leaves_scipy_and_numpy_unloaded():
    probe = "import sys, fusegraph.cli; print(sorted({'scipy', 'numpy'} & set(sys.modules)))"
    result = run_cli_process("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_io_baselines_evaluation_leave_retrieval_unloaded():
    probe = (
        "import sys, fusegraph.io, fusegraph.baselines, fusegraph.evaluation; "
        "print('fusegraph.retrieval' in sys.modules)"
    )
    result = run_cli_process("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


INVALID_VALUE_COMMANDS = {
    "select_best_pair_without_correlations": [
        "select", "--effectiveness", "{eff}", "--strategy", "best-pair"
    ],
    "winners_cells_with_different_methods": ["winners", "--table", "{uneven}"],
    "eval_empty_run": ["eval", "--run", "{empty}", "--qrels", "{qrels}"],
    "eval_k_zero": ["eval", "--run", "{run}", "--qrels", "{qrels}", "--k", "0"],
    "baseline_rrf_k_zero": [
        "baseline", "rrf", "--config", "{config}", "--out", "{out}", "--rrf-k", "0"
    ],
    "baseline_rrf_k_nan": [
        "baseline", "rrf", "--config", "{config}", "--out", "{out}", "--rrf-k", "nan"
    ],
    "baseline_rrf_k_inf": [
        "baseline", "rrf", "--config", "{config}", "--out", "{out}", "--rrf-k", "inf"
    ],
    "baseline_kemeny_cap_above_ceiling": [
        "baseline", "kemeny", "--config", "{config}", "--out", "{out}", "--kemeny-cap", "10"
    ],
    "baseline_kemeny_cap_zero": [
        "baseline", "kemeny", "--config", "{config}", "--out", "{out}", "--kemeny-cap", "0"
    ],
    "ttest_alpha_nan": ["ttest", "--a", "{a}", "--b", "{b}", "--alpha", "nan"],
    "ttest_alpha_zero": ["ttest", "--a", "{a}", "--b", "{b}", "--alpha", "0"],
    "ttest_alpha_above_one": ["ttest", "--a", "{a}", "--b", "{b}", "--alpha", "1.5"],
}


@pytest.mark.parametrize("args", INVALID_VALUE_COMMANDS.values(), ids=INVALID_VALUE_COMMANDS)
def test_invalid_value_prints_one_json_line(toy_files, args):
    base = toy_files["dir"]
    paths = {"config": toy_files["config"], "out": base / "out.run"}
    inputs = {
        "eff": "LAS 0.85\nLBP 0.65\n",
        "uneven": "d1 c1 m1 0.9\nd1 c2 m2 0.5\n",
        "empty": "",
        "run": "q1 Q0 a 1 3.0 t\n",
        "qrels": "q1 0 a 1\n",
        "a": "q1\t0.8\nq2\t0.7\nq3\t0.9\n",
        "b": "q1\t0.3\nq2\t0.5\nq3\t0.2\n",
    }
    for name, text in inputs.items():
        paths[name] = base / name
        paths[name].write_text(text, encoding="utf-8")
    result = run_cli_process("-m", "fusegraph.cli", *(arg.format(**paths) for arg in args))
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0])["error"] == "ValueError"
    assert not paths["out"].exists()


def test_ttest_on_different_query_sets_prints_one_json_line(tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    a.write_text("q1\t0.8\nq2\t0.7\n", encoding="utf-8")
    b.write_text("q1\t0.3\nq3\t0.2\n", encoding="utf-8")
    result = run_cli_process("-m", "fusegraph.cli", "ttest", "--a", str(a), "--b", str(b))
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0]) == {
        "error": "QuerySetMismatch",
        "message": "metric files cover different queries",
    }


def edit_manifest(edit):
    """An index edit that applies ``edit`` to the manifest's JSON object."""

    def apply(index_dir):
        path = index_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        edit(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")

    return apply


def replace_first(name, old, new):
    """A same-size index edit: the first ``old`` in data file ``name`` becomes ``new``.

    The file keeps its byte size, so the manifest's size check passes it.
    """

    def apply(index_dir):
        path = index_dir / name
        text = path.read_text(encoding="utf-8")
        assert old in text and len(old) == len(new)
        path.write_text(text.replace(old, new, 1), encoding="utf-8")

    return apply


def search_error_after_edit(toy_files, edit):
    """Extract the toy index, let ``edit`` change it, search it in a fresh process.

    Returns the one JSON error line the search must print to stderr.
    """
    index_dir = toy_files["dir"] / "index"
    assert main(["extract", "--config", str(toy_files["config"]), "--out", str(index_dir)]) == 0
    edit(index_dir)
    result = run_cli_process(
        "-m", "fusegraph.cli", "search",
        "--index", str(index_dir),
        "--queries", str(toy_files["queries"]),
        "--out", str(toy_files["dir"] / "fg.run"),
    )
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    return json.loads(lines[0])


def test_search_with_malformed_manifest_prints_one_json_line(toy_files):
    error = search_error_after_edit(toy_files, edit_manifest(lambda m: m.pop("L")))
    assert error["error"] == "MalformedGraphRecord"


def test_search_on_v1_index_prints_one_json_line(toy_files):
    """Indexes of formats 1 to 3 are all rejected by name."""
    for version in (1, 2, 3):
        error = search_error_after_edit(toy_files, edit_manifest(lambda m: m.update({"v": version})))
        assert error["error"] == "MalformedGraphRecord"
        assert "predates index format 4" in error["message"]
        assert "re-extracted" in error["message"]


SAME_SIZE_CORRUPTIONS = {
    "graph_query_not_a_string": ("graphs.jsonl", '"query":"B"', '"query":555', "non-string query"),
    "rank_ranker_not_in_manifest": (
        "collection_ranks.jsonl", '"ranker":"r1"', '"ranker":"r9"', "'r9' is not in the manifest"
    ),
    # no record check decodes edges at load: the file's sha256 catches this one
    "graph_edge_weight_changed": (
        "graphs.jsonl", '"edge_weights":"AAAA', '"edge_weights":"AAAB',
        "'graphs.jsonl' does not match its sha256",
    ),
}


@pytest.mark.parametrize("case", SAME_SIZE_CORRUPTIONS.values(), ids=SAME_SIZE_CORRUPTIONS)
def test_search_on_same_size_corruption_prints_one_json_line(toy_files, case):
    name, old, new, message = case
    error = search_error_after_edit(toy_files, replace_first(name, old, new))
    assert error["error"] == "MalformedGraphRecord"
    assert message in error["message"]


def test_search_rejects_bad_rank_it_never_reads(tmp_path):
    """A rank record that repeats an item fails load_index, even when search would not read it."""
    layout = {ranker: {**per_query, "Z": ["Z", "X"]} for ranker, per_query in TOY_LAYOUT.items()}
    config = write_config(tmp_path, "config.json", write_runs(tmp_path, layout, "coll"))
    queries = write_config(tmp_path, "queries.json", write_runs(tmp_path, TOY_QUERY, "query"))
    index_dir = tmp_path / "index"
    assert main(["extract", "--config", str(config), "--out", str(index_dir)]) == 0
    # Z's rank under r1 (line 4) repeats Z; the search of q reads only the ranks of A, B and C
    replace_first("collection_ranks.jsonl", '"items":["Z","X"]', '"items":["Z","Z"]')(index_dir)
    digest = hashlib.sha256((index_dir / "collection_ranks.jsonl").read_bytes()).hexdigest()
    edit_manifest(lambda m: m["sha256"].update({"ranks": digest}))(index_dir)
    out = tmp_path / "fg.run"
    result = run_cli_process(
        "-m", "fusegraph.cli", "search",
        "--index", str(index_dir), "--queries", str(queries), "--out", str(out),
    )
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0]) == {
        "error": "MalformedGraphRecord",
        "message": "bad rank record at line 4: query and item ids must be non-empty and items distinct",
    }
    assert not out.exists()


def test_correlate_with_one_ranker_prints_one_json_line(toy_files):
    run = next(toy_files["dir"].glob("r1.coll.run"))
    config = write_config(toy_files["dir"], "one.json", {"r1": run})
    result = run_cli_process("-m", "fusegraph.cli", "correlate", "--config", str(config))
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0]) == {
        "error": "NotEnoughRankers",
        "message": "need at least two rankers to correlate",
    }


def test_config_string_for_bool_prints_one_json_line(toy_files):
    config = json.loads(toy_files["config"].read_text(encoding="utf-8"))
    config["strict"] = "false"
    toy_files["config"].write_text(json.dumps(config), encoding="utf-8")
    out = toy_files["dir"] / "index"
    result = run_cli_process("-m", "fusegraph.cli", "extract", "--config", str(toy_files["config"]),
                             "--out", str(out))
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0]) == {
        "error": "ConfigError",
        "message": "config field 'strict' must be true or false, got 'false'",
    }
    assert not out.exists()


def one_query_files(tmp_path):
    """A 40-item collection in run files, and one out-of-collection query "zq" over it.

    Returns the collection layout and the two config files.
    """
    collection = random_rank_index(random.Random(8), n_items=40, n_rankers=3, depth=4, cluster_size=4)
    layout = {
        ranker: {q: list(collection.get(ranker, q).items()) for q in collection.queries(ranker)}
        for ranker in collection.rankers
    }
    query_ranks = {"r1": {"zq": ["d004", "d005"]}, "r2": {"zq": ["d005", "d006", "d007"]},
                   "r3": {"zq": ["d007"]}}
    config = write_config(tmp_path, "config.json", write_runs(tmp_path, layout, "coll"), depth=4)
    queries = write_config(tmp_path, "queries.json", write_runs(tmp_path, query_ranks, "q"), depth=4)
    return layout, config, queries


def test_one_query_search_normalizes_only_ranks_it_reads(tmp_path, monkeypatch):
    _, config, queries = one_query_files(tmp_path)
    index_dir = tmp_path / "index"
    assert main(["extract", "--config", str(config), "--out", str(index_dir)]) == 0
    normalized = []
    normalize_rank = normalize.normalize_rank

    def counting(rank, index, params):
        normalized.append((rank.ranker, rank.query))
        return normalize_rank(rank, index, params)

    monkeypatch.setattr(normalize, "normalize_rank", counting)
    out = tmp_path / "fg.run"
    assert main(["search", "--index", str(index_dir), "--queries", str(queries), "--out", str(out)]) == 0
    # the index stores every collection rank's normalized order: only the
    # query's own m ranks are normalized
    assert sorted(normalized) == [("r1", "zq"), ("r2", "zq"), ("r3", "zq")]


def test_rank_checks_run_once_per_rank_read_from_a_run_file(tmp_path, monkeypatch):
    """ScoredRank's checks run on the ranks parsed from run files, and on no rank built from them."""
    layout, config, queries = one_query_files(tmp_path)
    index_dir = tmp_path / "index"
    checked = []
    post_init = ScoredRank.__post_init__

    def counting(rank):
        checked.append((rank.ranker, rank.query))
        post_init(rank)

    monkeypatch.setattr(ScoredRank, "__post_init__", counting)
    assert main(["extract", "--config", str(config), "--out", str(index_dir)]) == 0
    assert sorted(checked) == sorted((r, q) for r in layout for q in layout[r])  # n * m
    checked.clear()
    out = tmp_path / "fg.run"
    assert main(["search", "--index", str(index_dir), "--queries", str(queries), "--out", str(out)]) == 0
    assert sorted(checked) == [("r1", "zq"), ("r2", "zq"), ("r3", "zq")]


def test_eval_k_not_an_int_prints_one_json_line(tmp_path):
    result = run_cli_process(
        "-m", "fusegraph.cli", "eval", "--run", str(tmp_path / "x.run"),
        "--qrels", str(tmp_path / "y.qrels"), "--k", "notanint",
    )
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0]) == {
        "error": "UsageError",
        "message": "fusegraph eval: argument --k: invalid int value: 'notanint'",
    }


def test_one_query_search_decodes_few_graphs(tmp_path, monkeypatch):
    depth = 5
    collection = random_rank_index(
        random.Random(3), n_items=120, n_rankers=3, depth=depth, cluster_size=40
    )
    layout = {
        ranker: {q: list(collection.get(ranker, q).items()) for q in collection.queries(ranker)}
        for ranker in collection.rankers
    }
    query_ranks = {
        ranker: {"zq": list(collection.get(ranker, item).items())}
        for ranker, item in (("r1", "d041"), ("r2", "d050"), ("r3", "d066"))
    }
    index_dir = tmp_path / "index"
    config = write_config(tmp_path, "config.json", write_runs(tmp_path, layout, "coll"), depth=depth)
    queries = write_config(tmp_path, "queries.json", write_runs(tmp_path, query_ranks, "q"), depth=depth)
    assert main(["extract", "--config", str(config), "--out", str(index_dir)]) == 0
    decoded = []
    deserialize = retrieval.deserialize_graph

    def counting(record):
        graph = deserialize(record)
        decoded.append(graph.query)
        return graph

    monkeypatch.setattr(retrieval, "deserialize_graph", counting)
    out = tmp_path / "fg.run"
    assert main(["search", "--index", str(index_dir), "--queries", str(queries), "--out", str(out)]) == 0
    # the query shares a vertex with all 40 items of its cluster; pruning
    # decodes only the graphs it scores exactly, each once
    assert len(parse_run_file(out, "FG")["zq"]) == depth
    assert 0 < len(decoded) <= 3 * depth
    assert len(decoded) == len(set(decoded))


def test_tracer_finds_every_traced_name(toy_files):
    """perfbench/tracer.py wraps functions by name; none of them may be missing."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    base = toy_files["dir"]
    index_dir = base / "index"
    commands = {
        "extract": ["extract", "--config", str(toy_files["config"]), "--out", str(index_dir)],
        "search": ["search", "--index", str(index_dir), "--queries", str(toy_files["queries"]),
                   "--out", str(base / "fg.run")],
    }
    for name, args in commands.items():
        spans = base / f"spans-{name}.json"
        result = run_cli_process(str(tracer), str(spans), *args)
        assert result.returncode == 0, result.stderr
        trace = json.loads(spans.read_text(encoding="utf-8"))
        assert trace["missing"] == [], name
        assert trace["spans"]


# sha256 of the index files `extract` writes for PINNED_COLLECTION, recorded
# with the per-occurrence graph builder that tests/helpers keeps as the spec
PINNED_INDEX = {
    "graphs.jsonl": "212ebbbfed670181059b97194044dec6a889bccf92bd5e01a1a8eef5a294c70a",
    "collection_ranks.jsonl": "2ff8fdb7da5378982a06c516c95ca7b456437f3bae5fc6b56273d92354958db1",
}


def test_extract_index_bytes_are_pinned(tmp_path):
    collection, _ = synthetic_collection(17, n_items=60, n_classes=12, depth=10)
    layout = {
        ranker: {q: list(collection.get(ranker, q).items()) for q in collection.queries(ranker)}
        for ranker in collection.rankers
    }
    # lenient mode: two items lack one ranker's rank, one item lacks two
    for ranker, item in (("r3", "s00_0"), ("r1", "s05_2"), ("r2", "s05_2"), ("r2", "s11_4")):
        del layout[ranker][item]
    config = write_config(tmp_path, "config.json", write_runs(tmp_path, layout, "coll"), depth=10)
    index_dir = tmp_path / "index"
    result = run_cli_process("-m", "fusegraph.cli", "extract", "--config", str(config),
                             "--out", str(index_dir))
    assert result.returncode == 0, result.stderr
    digests = {
        name: hashlib.sha256((index_dir / name).read_bytes()).hexdigest() for name in PINNED_INDEX
    }
    assert digests == PINNED_INDEX
