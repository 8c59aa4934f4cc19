import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fusegraph
from fusegraph import baselines, cli, normalize, retrieval
from fusegraph.cli import main
from fusegraph.io import parse_run_file
from fusegraph.model import ScoredRank

from helpers import (
    INDEX_DATA_FILES,
    LOAD_FAULTS,
    TOY_LAYOUT,
    TOY_QUERY,
    edit_manifest,
    edit_rank_record,
    edit_toc,
    index_files,
    live_graphs,
    random_rank_index,
    reverse_graph_items,
    rewrite_record,
    seal_toc,
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
        outputs.append((index_files(index_dir), out_run.read_bytes()))
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


def test_eval_reads_the_order_of_negative_similarity_scores(tmp_path, capsys):
    run_path = tmp_path / "neg.run"
    run_path.write_text(  # log-probabilities: the order of test_eval_command_class_labels_ns
        "q1 Q0 a 1 -0.5 t\nq1 Q0 b 2 -1.5 t\nq1 Q0 c 3 -2.5 t\nq1 Q0 d 4 -3.5 t\n", encoding="utf-8"
    )
    labels = tmp_path / "labels.txt"
    labels.write_text("q1 c1\na c1\nb c1\nc c2\nd c1\n", encoding="utf-8")
    assert main(["eval", "--run", str(run_path), "--class-labels", str(labels), "--metric", "ns"]) == 0
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


def test_correlate_prints_what_it_writes(toy_files, capsys):
    out = toy_files["dir"] / "corr.tsv"
    assert main(["correlate", "--config", str(toy_files["config"]), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["correlate", "--config", str(toy_files["config"])]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


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
    assert index_files(index_dir) == index_files(reference)


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


def run_cli_process(*args, **env):
    """Run the CLI in a fresh interpreter that imports this checkout's package, with ``env`` added to its own."""
    src = str(Path(fusegraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""), **env}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


# Modules that no command loads: scipy and numpy, and statistics with the decimal and fractions it loads.
WATCHED_MODULES = ("scipy", "numpy", "statistics", "decimal", "fractions", "dataclasses", "inspect")
# the modules are listed before json is imported to print them
LOADED_MODULES = "import sys; loaded = sorted(sys.modules); import json; print(json.dumps(loaded))"


def modules_after(*args):
    """Every module loaded once the CLI has run ``args`` that a bare interpreter does not load."""
    probe = f"from fusegraph.cli import main; code = main(sys.argv[1:]); {LOADED_MODULES}; sys.exit(code)"
    result = run_cli_process("-c", f"import sys; {probe}", *map(str, args))
    assert result.returncode == 0, result.stderr
    bare = run_cli_process("-c", LOADED_MODULES)
    return set(json.loads(result.stdout.splitlines()[-1])) - set(json.loads(bare.stdout))


@pytest.fixture(scope="module")
def command_files(tmp_path_factory):
    """Tiny inputs for every command: a synthetic collection, its index and its fused run."""
    base = tmp_path_factory.mktemp("commands")
    config, items = synthetic_files(base, n_items=12)
    files = {"config": config, "index": base / "index", "run": base / "fg.run"}
    assert main(["extract", "--config", str(config), "--out", str(files["index"])]) == 0
    assert main(["search", "--index", str(files["index"]), "--queries", str(config),
                 "--out", str(files["run"])]) == 0
    texts = {**REPORT_FILES, "labels": "".join(f"{item} {item.split('_')[0]}\n" for item in items)}
    for name, text in texts.items():
        files[name] = base / name
        files[name].write_text(text, encoding="utf-8")
    return files


# command line -> the fusegraph modules it loads besides fusegraph, .cli and .errors
INDEX_MODULES = {"retrieval", "graph", "normalize", "similarity", "model"}
COMMAND_MODULES = {
    "extract": (["extract", "--config", "{config}", "--out", "{out}"], {"io", "config", *INDEX_MODULES}),
    "search": (["search", "--index", "{index}", "--queries", "{config}", "--out", "{out}"],
               {"io", "config", *INDEX_MODULES}),
    "verify": (["verify", "--index", "{index}"], INDEX_MODULES),
    "baseline": (["baseline", "borda", "--config", "{config}", "--out", "{out}"],
                 {"io", "config", "model", "baselines"}),
    "baseline_combmed": (["baseline", "combmed", "--config", "{config}", "--out", "{out}"],
                         {"io", "config", "model", "baselines"}),
    "eval": (["eval", "--run", "{run}", "--class-labels", "{labels}"], {"io", "model", "evaluation"}),
    # the per-query file is the format ttest reads
    "eval_per_query": (["eval", "--run", "{run}", "--class-labels", "{labels}", "--per-query", "{out}"],
                       {"io", "model", "evaluation", "analysis"}),
    "correlate": (["correlate", "--config", "{config}"], {"io", "config", "model", "analysis"}),
    "select": (["select", "--effectiveness", "{eff}", "--correlations", "{corr}", "--strategy", "best-pair"],
               {"io", "model", "analysis"}),
    "winners": (["winners", "--table", "{table}"], {"io", "model", "analysis"}),
    # equal per-query values: the verdict needs no t distribution
    "ttest": (["ttest", "--a", "{a}", "--b", "{a}"], {"io", "model", "analysis"}),
    # differences that vary: the p-value decides the verdict
    "ttest_varying_differences": (["ttest", "--a", "{a}", "--b", "{b}"], {"io", "model", "analysis"}),
}
# commands that read no JSON file: json would only be loaded to print an error line
JSON_FREE_COMMANDS = ("eval", "select", "winners", "ttest")


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_the_modules_it_runs(command_files, tmp_path, command):
    """A command loads only its own fusegraph modules, and beyond those only the standard library."""
    args, modules = COMMAND_MODULES[command]
    paths = {**command_files, "out": tmp_path / "out"}
    loaded = modules_after(*(arg.format(**paths) for arg in args))
    packages = {name.split(".")[0] for name in loaded}
    assert {name for name in loaded if name.split(".")[0] == "fusegraph"} == {
        "fusegraph", *(f"fusegraph.{m}" for m in {"cli", "errors", *modules})
    }
    assert not packages & set(WATCHED_MODULES)
    assert packages - {"fusegraph"} <= sys.stdlib_module_names
    if command.partition("_")[0] in JSON_FREE_COMMANDS:
        assert "json" not in packages


PUBLIC_HOMES = {
    "errors": ["FusionError"],
    "graph": ["FusionGraph", "build_fusion_graph"],
    "model": ["CollectionRankIndex", "ItemId", "RankSet", "ScoredEntry", "ScoredRank", "assemble_rank_set"],
    "normalize": ["normalize_rank_set"],
    "retrieval": ["FusionGraphIndex", "fuse_query", "index_collection"],
    "similarity": ["dist_mcs", "dist_wgu", "graph_size", "mcs"],
}


def test_package_names_resolve_on_first_access_to_their_home_modules():
    names = sorted(name for names in PUBLIC_HOMES.values() for name in names)
    assert fusegraph.__all__ == [*names, "__version__"]
    for module, names in PUBLIC_HOMES.items():
        home = importlib.import_module(f"fusegraph.{module}")
        for name in names:
            assert getattr(fusegraph, name) is getattr(home, name)
    star = {}
    exec("from fusegraph import *", star)
    assert set(star) - {"__builtins__"} == set(fusegraph.__all__)
    assert set(fusegraph.__all__) <= set(dir(fusegraph))
    with pytest.raises(AttributeError) as missing:
        fusegraph.no_such_name
    assert str(missing.value) == "module 'fusegraph' has no attribute 'no_such_name'"
    probe = "import sys, fusegraph; print(sorted(m for m in sys.modules if m.startswith('fusegraph')))"
    result = run_cli_process("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['fusegraph']"


def test_stdlib_flow_passes_without_site_packages():
    """The flow CI runs on a bare install, here under ``python -S``: numpy, scipy and pytest are out of reach."""
    src = str(Path(fusegraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    bare = [sys.executable, "-S"]
    probe = "import importlib.util, sys; sys.exit(any(map(importlib.util.find_spec, ('numpy', 'scipy', 'pytest'))))"
    assert subprocess.run([*bare, "-c", probe], env=env, timeout=60).returncode == 0
    flow = Path(__file__).with_name("stdlib_flow.py")
    result = subprocess.run(
        [*bare, str(flow), *bare, "-m", "fusegraph.cli"], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "stdlib flow passed\n"


def test_io_baselines_evaluation_leave_retrieval_unloaded():
    probe = (
        "import sys, fusegraph.io, fusegraph.config, fusegraph.baselines, "
        "fusegraph.evaluation, fusegraph.analysis; "
        "print('fusegraph.retrieval' in sys.modules)"
    )
    result = run_cli_process("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_io_reaches_the_config_names_by_their_old_home():
    """load_config and rank_sets_from_runs moved to config; fusegraph.io still names them, loading config on first access."""
    from fusegraph import config, io

    assert io.load_config is config.load_config
    assert io.rank_sets_from_runs is config.rank_sets_from_runs
    with pytest.raises(AttributeError) as missing:
        io.load_runs
    assert str(missing.value) == "module 'fusegraph.io' has no attribute 'load_runs'"
    result = run_cli_process("-c", "import sys, fusegraph.io; print('fusegraph.config' in sys.modules)")
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
    # both values are checked whatever the method reads
    "baseline_borda_rrf_k_nan_kemeny_cap_huge": [
        "baseline", "borda", "--config", "{config}", "--out", "{out}",
        "--rrf-k", "nan", "--kemeny-cap", "1000000",
    ],
    "baseline_condorcet_rrf_k_zero": [
        "baseline", "condorcet", "--config", "{config}", "--out", "{out}", "--rrf-k", "0"
    ],
    "baseline_rrf_kemeny_cap_huge": [
        "baseline", "rrf", "--config", "{config}", "--out", "{out}", "--kemeny-cap", "1000000"
    ],
    "eval_ns_k_zero": ["eval", "--run", "{run}", "--qrels", "{qrels}", "--metric", "ns", "--k", "0"],
    "eval_ns_k_negative": [
        "eval", "--run", "{run}", "--qrels", "{qrels}", "--metric", "ns", "--k", "-5"
    ],
    "eval_ns_k_not_four": [
        "eval", "--run", "{run}", "--qrels", "{qrels}", "--metric", "ns", "--k", "10"
    ],
    "eval_ndcg_k_negative": ["eval", "--run", "{run}", "--qrels", "{qrels}", "--k", "-5"],
    "ttest_alpha_nan": ["ttest", "--a", "{a}", "--b", "{b}", "--alpha", "nan"],
    "ttest_alpha_zero": ["ttest", "--a", "{a}", "--b", "{b}", "--alpha", "0"],
    "ttest_alpha_above_one": ["ttest", "--a", "{a}", "--b", "{b}", "--alpha", "1.5"],
    # a run line is six whitespace-separated fields, the tag the last; the index need not exist
    "search_tag_empty": ["search", "--index", "{out}.index", "--queries", "{config}", "--out", "{out}", "--tag", ""],
    "search_tag_space": ["search", "--index", "{out}.index", "--queries", "{config}", "--out", "{out}", "--tag", "a b"],
    "search_tag_tab": ["search", "--index", "{out}.index", "--queries", "{config}", "--out", "{out}", "--tag", "a\tb"],
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


# command line -> the path it cannot open, under {missing}, a directory that does not exist
OS_ERROR_COMMANDS = {
    "eval_run_missing": (["eval", "--run", "{missing}/fg.run", "--class-labels", "{labels}"], "{missing}/fg.run"),
    "search_out_in_missing_directory": (
        ["search", "--index", "{index}", "--queries", "{config}", "--out", "{missing}/out.run"], "{missing}/out.run"
    ),
}


@pytest.mark.parametrize("case", OS_ERROR_COMMANDS.values(), ids=OS_ERROR_COMMANDS)
def test_os_error_prints_one_json_line(command_files, tmp_path, case):
    args, path = case
    paths = {**command_files, "missing": tmp_path / "missing"}
    result = run_cli_process("-m", "fusegraph.cli", *(arg.format(**paths) for arg in args))
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    message = f"[Errno 2] No such file or directory: {path.format(**paths)!r}"
    assert json.loads(lines[0]) == {"error": "IOError", "message": message}


REPORT_FILES = {
    "eff": "LAS 0.85\nCCOM 0.72\nLBP 0.65\n",
    "corr": "ranker\tLAS\tCCOM\tLBP\nLAS\t1.0\t0.38\t0.3\nCCOM\t0.38\t1.0\t0.25\nLBP\t0.3\t0.25\t1.0\n",
    "table": "d1 c1 m1 0.9\nd1 c1 m2 0.1\n",
    "a": "q1\t0.8\nq2\t0.7\nq3\t0.9\n",
    "b": "q1\t0.3\nq2\t0.5\nq3\t0.2\n",
}
# command, the one file that differs from REPORT_FILES, its text, the error message
BAD_REPORT_VALUES = {
    "ttest_nan": (["ttest", "--a", "{a}", "--b", "{b}"], "a", "q1\t0.8\nq2\tnan\nq3\t0.9\n",
                  "{a}:2: value must be finite, got nan"),
    "select_top_two_nan": (["select", "--effectiveness", "{eff}", "--strategy", "top-two"], "eff",
                           "LAS 0.85\nCCOM nan\n", "{eff}:2: value must be finite, got nan"),
    "select_best_pair_nan": (
        ["select", "--effectiveness", "{eff}", "--correlations", "{corr}", "--strategy", "best-pair"], "corr",
        "ranker\tLAS\tLBP\nLAS\t1.0\tnan\nLBP\tnan\t1.0\n", "{corr}:2: matrix value nan for 'LBP' is not in [0, 1]",
    ),
    "select_best_pair_minus_one": (
        ["select", "--effectiveness", "{eff}", "--correlations", "{corr}", "--strategy", "best-pair"], "corr",
        "ranker\tLAS\tLBP\nLAS\t1.0\t-1\nLBP\t-1\t1.0\n", "{corr}:2: matrix value -1.0 for 'LBP' is not in [0, 1]",
    ),
    # the row of a column is missing: reported at the header line, not at select time
    "select_best_pair_missing_row": (
        ["select", "--effectiveness", "{eff}", "--correlations", "{corr}", "--strategy", "best-pair"], "corr",
        "\nranker\tLAS\tLBP\nLBP\t0.3\t1.0\n", "{corr}:2: matrix row 'LAS' is missing",
    ),
    # a row that is not a column: the pair (CCOM, LAS) must not be read from it
    "select_best_pair_row_not_a_column": (
        ["select", "--effectiveness", "{eff}", "--correlations", "{corr}", "--strategy", "best-pair"], "corr",
        "ranker\tLAS\tLBP\nLAS\t1.0\t0.3\nLBP\t0.3\t1.0\nCCOM\t0.1\t0.1\n",
        "{corr}:4: matrix row 'CCOM' is not one of its columns",
    ),
    "winners_inf": (["winners", "--table", "{table}"], "table", "d1 c1 m1 inf\nd1 c1 m2 0.1\n",
                    "{table}:1: value must be finite, got inf"),
}


@pytest.mark.parametrize("case", BAD_REPORT_VALUES.values(), ids=BAD_REPORT_VALUES)
def test_bad_report_value_prints_one_json_line(tmp_path, case):
    """A value that is not finite, or a correlation outside [0, 1], is refused at its line."""
    args, name, text, message = case
    paths = {key: tmp_path / key for key in REPORT_FILES}
    for key, path in paths.items():
        path.write_text(text if key == name else REPORT_FILES[key], encoding="utf-8")
    result = run_cli_process("-m", "fusegraph.cli", *(arg.format(**paths) for arg in args))
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0]) == {"error": "ParseError", "message": message.format(**paths)}


NOT_UTF8_INPUTS = {
    "extract_config": (["extract", "--config", "{bad}", "--out", "{out}"], b'{"rankers": []}\xff', "ConfigError",
                       "cannot read config {bad}: 'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
    "eval_run": (["eval", "--run", "{bad}", "--class-labels", "{labels}"], b"q1 Q0 a\xff 1 3.0 t\n", "ParseError",
                 "{bad}:0: not UTF-8 text (invalid start byte)"),
}


@pytest.mark.parametrize("case", NOT_UTF8_INPUTS.values(), ids=NOT_UTF8_INPUTS)
def test_input_that_is_not_utf8_prints_one_json_line(command_files, tmp_path, case):
    """A config, or a file of lines, that is not UTF-8 is refused naming the file, not as a UnicodeDecodeError."""
    args, data, category, message = case
    paths = {**command_files, "bad": tmp_path / "bad", "out": tmp_path / "out"}
    paths["bad"].write_bytes(data)
    result = run_cli_process("-m", "fusegraph.cli", *(arg.format(**paths) for arg in args))
    assert (result.returncode, result.stdout) == (1, "")
    assert [json.loads(line) for line in result.stderr.splitlines()] == [
        {"error": category, "message": message.format(**paths)}
    ]


@pytest.mark.parametrize(
    "args, report",
    [
        (["--metric", "ns"], "mean ns 1.000000 over 1 queries\n"),
        (["--metric", "ns", "--k", "4"], "mean ns 1.000000 over 1 queries\n"),
        ([], "mean ndcg@10 1.000000 over 1 queries\n"),
        (["--k", "1"], "mean ndcg@1 1.000000 over 1 queries\n"),
    ],
)
def test_eval_k_default_and_the_ns_cutoff(tmp_path, args, report):
    run, qrels = tmp_path / "x.run", tmp_path / "y.qrels"
    run.write_text("q1 Q0 a 1 3.0 t\n", encoding="utf-8")
    qrels.write_text("q1 0 a 1\n", encoding="utf-8")
    result = run_cli_process(
        "-m", "fusegraph.cli", "eval", "--run", str(run), "--qrels", str(qrels), *args
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == report


def test_baseline_default_values_pass_their_checks(toy_files):
    for method in ("borda", "condorcet", "rrf", "kemeny"):
        out = toy_files["dir"] / f"{method}.run"
        result = run_cli_process(
            "-m", "fusegraph.cli", "baseline", method, "--config", str(toy_files["config"]),
            "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert out.exists()


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


def test_repeated_qrels_line_prints_one_json_line(tmp_path):
    """Either order of two judgments of one pair is refused, not scored by the last."""
    run, qrels = tmp_path / "x.run", tmp_path / "y.qrels"
    run.write_text("q1 Q0 d1 1 3.0 t\n", encoding="utf-8")
    for lines in (("q1 0 d1 1", "q1 0 d1 0"), ("q1 0 d1 0", "q1 0 d1 1")):
        qrels.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = run_cli_process("-m", "fusegraph.cli", "eval", "--run", str(run), "--qrels", str(qrels))
        assert result.returncode == 1
        assert result.stdout == ""
        errors = result.stderr.splitlines()
        assert len(errors) == 1, result.stderr
        assert json.loads(errors[0]) == {
            "error": "ParseError",
            "message": f"{qrels}:2: duplicate judgment of 'd1' for 'q1'",
        }


def test_bad_baseline_method_lists_every_method(toy_files):
    result = run_cli_process("-m", "fusegraph.cli", "baseline", "nosuch", "--config", str(toy_files["config"]),
                             "--out", str(toy_files["dir"] / "out.run"))
    assert result.returncode == 2
    error = json.loads(result.stderr)
    assert error["error"] == "UsageError"
    listed = re.fullmatch(r"fusegraph baseline: argument method: invalid choice: .*\(choose from (.*)\)",
                          error["message"]).group(1)
    assert [choice.strip("'") for choice in listed.split(", ")] == sorted(baselines.METHODS)


def replace_first(name, old, new):
    """A same-size index edit: the first ``old`` in data file ``name`` becomes ``new``.

    The file keeps its byte size, so the check of its size against its records' lengths passes it.
    """

    def apply(index_dir):
        path = index_dir / name
        data = path.read_bytes()
        assert old in data and len(old) == len(new)
        path.write_bytes(data.replace(old, new, 1))

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
    error = search_error_after_edit(toy_files, lambda index_dir: edit_manifest(index_dir, lambda m: m.pop("sha256")))
    assert error["error"] == "MalformedGraphRecord"


@pytest.mark.parametrize("command", ["search", "verify"])
def test_graph_items_out_of_order_print_one_json_line(toy_files, command):
    """Posting slots name items by their place in the table of contents, so it must list them in order."""
    index_dir = toy_files["dir"] / "index"
    assert main(["extract", "--config", str(toy_files["config"]), "--out", str(index_dir)]) == 0
    reverse_graph_items(index_dir)
    args = ["--index", str(index_dir)]
    if command == "search":
        args += ["--queries", str(toy_files["queries"]), "--out", str(toy_files["dir"] / "fg.run")]
    result = run_cli_process("-m", "fusegraph.cli", command, *args)
    assert result.returncode == 1
    assert result.stdout == ""
    assert [json.loads(line) for line in result.stderr.splitlines()] == [
        {
            "error": "MalformedGraphRecord",
            "message": "bad table of contents 'toc.json': graph items are not in ascending order",
        }
    ]


def test_search_on_v1_index_prints_one_json_line(toy_files):
    """Indexes of formats 1 to 8 are all rejected by name."""
    for version in range(1, 9):
        error = search_error_after_edit(
            toy_files, lambda index_dir: edit_manifest(index_dir, lambda m: m.update({"v": version}))
        )
        assert error["error"] == "MalformedGraphRecord"
        assert "predates index format 9" in error["message"]
        assert "re-extracted" in error["message"]


# every record a search reads is checked against its digest before any
# record check, so the digest catches each of these
SAME_SIZE_CORRUPTIONS = {
    "graph_query_not_a_string": (
        "graphs.bin", b'"query":"B"', b'"query":555', "graph record of 'B' in 'graphs.bin'"
    ),
    "rank_ranker_not_in_manifest": (
        "collection_ranks.jsonl", b'"r1":{', b'"r9":{', "rank record of 'A' in 'collection_ranks.jsonl'"
    ),
    # the first edge weight of A's graph, 1.0, becomes 1.0000000000000002
    "graph_edge_weight_changed": (
        "graphs.bin", b"\x00" * 6 + b"\xf0\x3f" + b"\x00" * 6 + b"\xf0\x3f",
        b"\x01" + b"\x00" * 5 + b"\xf0\x3f" + b"\x00" * 6 + b"\xf0\x3f",
        "graph record of 'A' in 'graphs.bin'",
    ),
}


@pytest.mark.parametrize("case", SAME_SIZE_CORRUPTIONS.values(), ids=SAME_SIZE_CORRUPTIONS)
def test_search_on_same_size_corruption_prints_one_json_line(toy_files, case):
    name, old, new, message = case
    error = search_error_after_edit(toy_files, replace_first(name, old, new))
    assert error["error"] == "MalformedGraphRecord"
    assert error["message"] == f"{message} does not match its digest"


@pytest.mark.parametrize("command", ["search", "verify"])
@pytest.mark.parametrize("role", sorted(INDEX_DATA_FILES))
def test_record_past_the_end_of_its_file_prints_one_json_line(toy_files, role, command):
    """A table-of-contents entry reaching past its file is rejected before any byte of it is read."""
    index_dir = toy_files["dir"] / "index"
    assert main(["extract", "--config", str(toy_files["config"]), "--out", str(index_dir)]) == 0

    def move(toc):  # every record of the role moves to offset 2**44; the lengths still sum to the file's size
        for entry in toc[role].values():
            entry[0] = 2**44

    edit_toc(index_dir, move)
    args = ["--index", str(index_dir)]
    if command == "search":
        args += ["--queries", str(toy_files["queries"]), "--out", str(toy_files["dir"] / "fg.run")]
    result = run_cli_process("-m", "fusegraph.cli", command, *args)
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    error = json.loads(lines[0])
    name = INDEX_DATA_FILES[role]
    assert error["error"] == "MalformedGraphRecord"
    assert error["message"].endswith(f" ends past the {(index_dir / name).stat().st_size} bytes of {name!r}")


def _retype(field):
    return lambda manifest: manifest.update({field: [manifest[field]]})


# every manifest field deleted or retyped, L and the comparator changed in the
# table of contents without resealing it, and the faults load_index rejects
INDEX_FAULTS = {
    **{
        f"manifest {field} {fault}": (
            lambda d, field=field, fault=fault: edit_manifest(
                d, _retype(field) if fault == "retyped" else lambda m: m.pop(field)
            ),
            "unknown index manifest version" if field == "v" else f"field {field!r} is missing or ill-typed",
        )
        for field in ("v", "files", "sha256")
        for fault in ("missing", "retyped")
    },
    "toc params unsealed": (
        lambda d: edit_toc(d, lambda toc: toc.update({"L": 3, "comparator": "MCS"}), reseal=False),
        "index file 'toc.json' does not match its sha256 in the manifest",
    ),
    **LOAD_FAULTS,
}


@pytest.mark.parametrize("command", ["search", "verify"])
@pytest.mark.parametrize("case", INDEX_FAULTS)
def test_a_faulty_manifest_or_toc_prints_one_json_line(toy_files, case, command):
    edit, message = INDEX_FAULTS[case]
    index_dir = toy_files["dir"] / "index"
    assert main(["extract", "--config", str(toy_files["config"]), "--out", str(index_dir)]) == 0
    edit(index_dir)
    args = ["--index", str(index_dir)]
    if command == "search":
        args += ["--queries", str(toy_files["queries"]), "--out", str(toy_files["dir"] / "fg.run")]
    code, stdout, stderr = _run_main([command, *args])
    assert (code, stdout) == (1, "")
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    error = json.loads(lines[0])
    assert error["error"] == "MalformedGraphRecord"
    assert message in error["message"]


def z_index(tmp_path):
    """The toy index plus an item Z whose ranks hold Z and X only, and the toy query.

    The search of q reads the graphs and ranks of A, B and C, never Z's.
    Returns the index directory, the query config and the search's run.
    """
    layout = {ranker: {**per_query, "Z": ["Z", "X"]} for ranker, per_query in TOY_LAYOUT.items()}
    config = write_config(tmp_path, "config.json", write_runs(tmp_path, layout, "coll"))
    queries = write_config(tmp_path, "queries.json", write_runs(tmp_path, TOY_QUERY, "query"))
    index_dir = tmp_path / "index"
    assert main(["extract", "--config", str(config), "--out", str(index_dir)]) == 0
    expected = tmp_path / "expected.run"
    assert main(["search", "--index", str(index_dir), "--queries", str(queries), "--out", str(expected)]) == 0
    return index_dir, queries, expected.read_bytes()


def assert_search_unchanged_and_verify_fails(tmp_path, index_dir, queries, expected, message):
    out = tmp_path / "fg.run"
    result = run_cli_process(
        "-m", "fusegraph.cli", "search",
        "--index", str(index_dir), "--queries", str(queries), "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert out.read_bytes() == expected
    result = run_cli_process("-m", "fusegraph.cli", "verify", "--index", str(index_dir))
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0]) == {"error": "MalformedGraphRecord", "message": message}


def test_verify_rejects_bad_rank_search_never_reads(tmp_path):
    """A sealed rank record that repeats an item cannot change a search that never reads it."""
    index_dir, queries, expected = z_index(tmp_path)
    edit_rank_record(index_dir, "r1", "Z", lambda record: record.update({"items": ["Z", "Z"]}))
    assert_search_unchanged_and_verify_fails(
        tmp_path, index_dir, queries, expected,
        "bad rank record of 'Z' under 'r1': item ids must be non-empty and distinct",
    )


def test_search_ignores_flipped_byte_in_graph_it_never_reads(tmp_path):
    index_dir, queries, expected = z_index(tmp_path)
    toc = json.loads((index_dir / "toc.json").read_bytes())
    offset, length = toc["graphs"]["Z"][:2]
    path = index_dir / "graphs.bin"
    data = bytearray(path.read_bytes())
    data[offset + length - 1] ^= 0x40
    path.write_bytes(bytes(data))
    assert_search_unchanged_and_verify_fails(
        tmp_path, index_dir, queries, expected,
        "graph record of 'Z' in 'graphs.bin' does not match its digest",
    )


# nested deeper than the interpreter's recursion limit: json.loads raises RecursionError
DEEP_JSON = b"[" * 200000 + b"]" * 200000

DEEP_JSON_CASES = {
    "extract_config": ("ConfigError", lambda files, index_dir: files["config"].write_bytes(DEEP_JSON), "extract"),
    "search_queries": ("ConfigError", lambda files, index_dir: files["queries"].write_bytes(DEEP_JSON), "search"),
    "baseline_config": ("ConfigError", lambda files, index_dir: files["config"].write_bytes(DEEP_JSON), "baseline"),
    "manifest": (
        "MalformedGraphRecord", lambda files, index_dir: (index_dir / "manifest.json").write_bytes(DEEP_JSON), "search"
    ),
    "toc": ("MalformedGraphRecord", lambda files, index_dir: seal_toc(index_dir, DEEP_JSON), "verify"),
    "rank_record": (
        "MalformedGraphRecord",
        lambda files, index_dir: rewrite_record(index_dir, "ranks", "A", lambda record: DEEP_JSON + b"\n"),
        "verify",
    ),
    "graph_header": (
        "MalformedGraphRecord",
        lambda files, index_dir: rewrite_record(
            index_dir, "graphs", "A", lambda record: DEEP_JSON + b"\n" + record.partition(b"\n")[2]
        ),
        "verify",
    ),
}


@pytest.mark.parametrize("case", DEEP_JSON_CASES.values(), ids=DEEP_JSON_CASES)
def test_deeply_nested_json_prints_one_json_line(toy_files, case):
    """A config, manifest, table of contents, rank record or graph header nested too deep is one error line."""
    error, edit, command = case
    index_dir, out = toy_files["dir"] / "index", toy_files["dir"] / "out"
    assert main(["extract", "--config", str(toy_files["config"]), "--out", str(index_dir)]) == 0
    edit(toy_files, index_dir)
    args = {
        "extract": ["extract", "--config", str(toy_files["config"]), "--out", str(out)],
        "search": ["search", "--index", str(index_dir), "--queries", str(toy_files["queries"]), "--out", str(out)],
        "baseline": ["baseline", "borda", "--config", str(toy_files["config"]), "--out", str(out)],
        "verify": ["verify", "--index", str(index_dir)],
    }[command]
    result = run_cli_process("-m", "fusegraph.cli", *args)
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0])["error"] == error


def test_huge_depth_costs_memory_by_the_ranks_not_by_l(tmp_path):
    """extract at L = 10**9, and search on that index, run in a 2 GiB address space."""
    limited = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "from fusegraph.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    layout = {ranker: {"A": ["A", "B"], "B": ["B", "A"]} for ranker in ("r1", "r2")}
    runs = write_runs(tmp_path, layout, "coll")
    config = write_config(tmp_path, "config.json", runs, depth=10**9)
    index_dir = tmp_path / "big"
    result = run_cli_process("-c", limited, "extract", "--config", str(config), "--out", str(index_dir))
    assert (result.returncode, result.stderr) == (0, "")
    out = tmp_path / "fg.run"
    result = run_cli_process(
        "-c", limited, "search", "--index", str(index_dir), "--queries", str(config), "--out", str(out)
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert [line.split()[:3] for line in out.read_text().splitlines()] == [
        ["A", "Q0", "A"], ["A", "Q0", "B"], ["B", "Q0", "B"], ["B", "Q0", "A"]
    ]


def _run_main(args):
    """(exit code, stdout, stderr) of one in-process CLI call; an exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def sound_z_index(tmp_path_factory):
    """The files of z_index's index, its query config, and the clean search and verify outputs.

    The verify output is given without the index path it ends with.
    """
    base = tmp_path_factory.mktemp("z")
    index_dir, queries, run = z_index(base)
    code, verified, _ = _run_main(["verify", "--index", str(index_dir)])
    assert code == 0
    return index_files(index_dir), queries, run, verified.rsplit(" in ", 1)[0]


INDEX_FILE_NAMES = ["collection_ranks.jsonl", "graphs.bin", "manifest.json", "postings.bin", "toc.json"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    name=st.sampled_from(INDEX_FILE_NAMES),
    kind=st.sampled_from(["flip", "truncate", "append line"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    mask=st.integers(1, 255),
)
@example(name="toc.json", kind="flip", where=0.005859375, mask=1)  # "L":2 becomes "L":3
def test_every_index_fault_gives_the_same_run_or_one_json_line(sound_z_index, name, kind, where, mask):
    """Under search and verify, a faulty index file gives the clean result or one JSON error line.

    A fault is a single-byte flip, a truncation, or a copy of the file's last
    line appended. Search may only succeed with the byte-identical run;
    verify fails on any fault in a data file or the table of contents.
    """
    files, queries, expected_run, verified = sound_z_index
    with tempfile.TemporaryDirectory() as directory:
        index_dir = Path(directory) / "index"
        index_dir.mkdir()
        for file_name, data in files.items():
            (index_dir / file_name).write_bytes(data)
        data = files[name]
        at = int(where * len(data))
        if kind == "flip":
            data = data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :]
        elif kind == "truncate":
            data = data[:at]
        else:
            data += data.rstrip(b"\n").rsplit(b"\n", 1)[-1] + b"\n"
        (index_dir / name).write_bytes(data)
        out = Path(directory) / "fg.run"
        results = {
            "search": _run_main(["search", "--index", str(index_dir), "--queries", str(queries), "--out", str(out)]),
            "verify": _run_main(["verify", "--index", str(index_dir)]),
        }
        for command, (code, stdout, stderr) in results.items():
            if code == 0 and command == "search":
                assert stderr == "" and out.read_bytes() == expected_run
            elif code == 0:
                assert name == "manifest.json" and stdout.rsplit(" in ", 1)[0] == verified
            else:
                assert code == 1 and stdout == ""
                lines = stderr.splitlines()
                assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
                assert command == "verify" or not out.exists()


def test_verify_command_checks_a_sound_index(toy_files):
    index_dir = toy_files["dir"] / "index"
    assert main(["extract", "--config", str(toy_files["config"]), "--out", str(index_dir)]) == 0
    result = run_cli_process("-m", "fusegraph.cli", "verify", "--index", str(index_dir))
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"verified 3 graphs, 5 posting lists and 6 ranks in {index_dir}\n"


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


def test_config_setting_exclude_self_prints_one_json_line(toy_files):
    """exclude_self is not a config field; search --exclude-self is the one switch."""
    config = json.loads(toy_files["queries"].read_text(encoding="utf-8"))
    config["exclude_self"] = True
    toy_files["queries"].write_text(json.dumps(config), encoding="utf-8")
    index_dir, out = toy_files["dir"] / "index", toy_files["dir"] / "fg.run"
    assert main(["extract", "--config", str(toy_files["config"]), "--out", str(index_dir)]) == 0
    result = run_cli_process("-m", "fusegraph.cli", "search", "--index", str(index_dir),
                             "--queries", str(toy_files["queries"]), "--out", str(out), "--exclude-self")
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0]) == {"error": "ConfigError", "message": "config field 'exclude_self' is unknown"}
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

    def counting(rank, index, depth):
        normalized.append((rank.ranker, rank.query))
        return normalize_rank(rank, index, depth)

    monkeypatch.setattr(normalize, "normalize_rank", counting)
    out = tmp_path / "fg.run"
    assert main(["search", "--index", str(index_dir), "--queries", str(queries), "--out", str(out)]) == 0
    # the index stores every collection rank's normalized order: only the
    # query's own m ranks are normalized
    assert sorted(normalized) == [("r1", "zq"), ("r2", "zq"), ("r3", "zq")]


def test_rank_checks_run_on_no_rank_read_from_a_run_file(tmp_path, monkeypatch):
    """ScoredRank's checks run on no rank parsed from a run file, whose line checks cover them, nor built from one."""
    _, config, queries = one_query_files(tmp_path)
    index_dir = tmp_path / "index"
    checked = []
    init = ScoredRank.__init__

    def counting(rank, query, ranker, *args, **kwargs):
        checked.append((ranker, query))
        init(rank, query, ranker, *args, **kwargs)

    monkeypatch.setattr(ScoredRank, "__init__", counting)
    assert main(["extract", "--config", str(config), "--out", str(index_dir)]) == 0
    out = tmp_path / "fg.run"
    assert main(["search", "--index", str(index_dir), "--queries", str(queries), "--out", str(out)]) == 0
    assert checked == []


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


# every command with each of its path-valued options, all naming real inputs or new outputs
PATH_OPTION_COMMANDS = {
    "extract": ["extract", "--config", "{config}", "--out", "{out}"],
    "search": ["search", "--index", "{index}", "--queries", "{config}", "--out", "{out}"],
    "verify": ["verify", "--index", "{index}"],
    "baseline": ["baseline", "borda", "--config", "{config}", "--out", "{out}"],
    "eval_qrels": ["eval", "--run", "{run}", "--qrels", "{qrels}"],
    "eval_class_labels": ["eval", "--run", "{run}", "--class-labels", "{labels}", "--per-query", "{out}"],
    "correlate": ["correlate", "--config", "{config}", "--out", "{out}"],
    "select": ["select", "--effectiveness", "{eff}", "--correlations", "{corr}", "--strategy", "best-pair"],
    "winners": ["winners", "--table", "{table}"],
    "ttest": ["ttest", "--a", "{a}", "--b", "{b}"],
}
# (command line, position of the value set to "")
EMPTY_PATH_CASES = {
    f"{name}{args[at - 1]}": (args, at)
    for name, args in PATH_OPTION_COMMANDS.items()
    for at in range(2, len(args))
    if args[at].startswith("{")
}


@pytest.mark.parametrize("case", EMPTY_PATH_CASES.values(), ids=EMPTY_PATH_CASES)
def test_an_empty_path_is_a_usage_error(command_files, tmp_path, monkeypatch, capsys, case):
    """An empty path names no file, not the working directory or an absent option: nothing is read or written."""
    args, at = case
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "qrels").write_text("s00_0 0 s00_1 1\n", encoding="utf-8")
    paths = {**command_files, "qrels": inputs / "qrels", "out": inputs / "out"}
    argv = [arg.format(**paths) for arg in args]
    argv[at] = ""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [{
        "error": "UsageError",
        "message": f"fusegraph {args[0]}: argument {args[at - 1]}: expected a path, got an empty string",
    }]
    assert list(cwd.iterdir()) == [] and not paths["out"].exists()


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

    def counting(record, size):
        graph = deserialize(record, size=size)
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
    """perfbench/tracer.py wraps functions by name; none of them may be missing, and its counts must hold."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    base = toy_files["dir"]
    built = built_graph_counts(toy_files["config"])
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
        if name == "extract":  # the per-layer graph counts are those of the graphs extract builds
            assert {key: trace["counters"][key] for key in built} == built


def built_graph_counts(config_path) -> dict:
    """The tracer's graph counters for ``extract`` of a config, taken in-process from the graphs it builds."""
    from fusegraph.config import load_config, load_runs
    from fusegraph.graph import BuildStats
    from fusegraph.model import CollectionRankIndex
    from fusegraph.retrieval import index_collection

    config, stats = load_config(config_path), BuildStats()
    fg_index = index_collection(
        CollectionRankIndex(load_runs(config)), config.ranker_names, config.depth, config.comparator, config.strict, stats
    )
    graphs = [fg_index.graphs[item] for item in sorted(fg_index.graphs)]
    return {
        "graph.graphs": len(graphs),
        "graph.vertices": sum(len(graph.vertices) for graph in graphs),
        "graph.edges": sum(len(graph.edges) for graph in graphs),
        "graph.entry_visits": stats.entry_visits,
    }


# sha256 of the index files `extract` writes for PINNED_COLLECTION, recorded
# with the per-occurrence graph builder that tests/helpers keeps as the spec.
# The format-6 files were recorded from an index whose every graph decodes
# bit for bit to that of the format-5 index pinned before it, with the same
# sizes; the posting and rank files are unchanged from format 5. Format 7
# left the data files as they were and re-pinned the manifest and the table
# of contents, which differs from format 6's only by its L, comparator and
# rankers. Format 8 re-pinned the rank file, the table of contents and the
# manifest from an index whose graph and posting files, and the toc entries
# of both, are format 7's byte for byte, and whose per-item rank records
# hold format 7's raw and normalized orders, every one of them. Format 9
# re-pinned the posting file, the table of contents and the manifest: its
# graph and rank files are format 8's byte for byte, and its table of
# contents differs from format 8's only in the posting lists' offsets and
# digests.
PINNED_INDEX = {
    "graphs.bin": "dcfe3bfbcc9d657a30cd224047076ec42e1bab0777c6cb5621257a8fa70db9d0",
    "postings.bin": "0c6f95b214ef64420ede6996a0cb7dfb7a995bd323e80e68ede0e089a5f5b2fd",
    "collection_ranks.jsonl": "014bbe91dd8527c72da49ba35ea7bf767442ee0d70b6dd96140a8fcd0da85fcb",
    "toc.json": "38457293c8e3625f366a33e0ad4b7c0e107f31261d15ef458fb1086c103242d1",
    "manifest.json": "ed458618a0a11c6d39066d13636185729e946e49708391773719d53ca25f83f4",
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


# sha256 of the index files `extract` writes for a strict MCS collection at
# L=20, recorded before the graph builder summed two-part edges with `+`,
# and re-recorded for formats 6, 7, 8 and 9 as PINNED_INDEX was.
PINNED_STRICT_INDEX = {
    "graphs.bin": "640a22cca1e671b42de4838041f8c6b62c3e46a5f0f7d7019dcd171a85554140",
    "postings.bin": "8ae6969b9b7cce8256a71a6e7ebe6257a6656316a71bc6509b11b4b2807d05a0",
    "collection_ranks.jsonl": "5c3c657275d6dfea33d87e061932a5207f6eb13b1240378798a6e7f9f4e33d34",
    "toc.json": "a04f18dc942997e507fe8bb62263ab2b56551c2f51e76a1e0d9c5d95df065a30",
    "manifest.json": "1a6819bd9afad0aaacb0bcb440c6adad2ddfeab092276864d5264baff6f7d239",
}


def test_extract_strict_mcs_index_bytes_are_pinned(tmp_path):
    collection, _ = synthetic_collection(23, n_items=48, n_classes=6, depth=20)
    # edges of one, two and three or more parts all occur: an item occurs in
    # two of some query's ranks and in all three of another's
    ranks = [
        [collection.get(ranker, query).items() for ranker in collection.rankers]
        for query in collection.collection_items()
    ]
    occurrences = {sum(item in rank for rank in rs) for rs in ranks for item in set().union(*rs)}
    assert {1, 2, 3} <= occurrences
    runs = {}
    for ranker in collection.rankers:
        runs[ranker] = tmp_path / f"{ranker}.run"
        runs[ranker].write_text("".join(
            f"{q} Q0 {item} {pos} {score!r} coll\n"
            for q in collection.queries(ranker)
            for pos, (item, score) in enumerate(collection.get(ranker, q), start=1)
        ), encoding="utf-8")
    config = write_config(tmp_path, "config.json", runs, depth=20, comparator="MCS", strict=True)
    index_dir = tmp_path / "index"
    result = run_cli_process("-m", "fusegraph.cli", "extract", "--config", str(config),
                             "--out", str(index_dir))
    assert result.returncode == 0, result.stderr
    digests = {
        name: hashlib.sha256((index_dir / name).read_bytes()).hexdigest() for name in PINNED_STRICT_INDEX
    }
    assert digests == PINNED_STRICT_INDEX


def synthetic_files(tmp_path, n_items=36):
    """The run files and config of a synthetic collection; returns (config path, collection items)."""
    collection, _ = synthetic_collection(5, n_items=n_items, n_classes=6, depth=10)
    layout = {
        ranker: {q: list(collection.get(ranker, q).items()) for q in collection.queries(ranker)}
        for ranker in collection.rankers
    }
    config = write_config(tmp_path, "config.json", write_runs(tmp_path, layout, "coll"), depth=10)
    return config, collection.collection_items()


def test_index_and_runs_do_not_depend_on_the_hash_seed(tmp_path):
    config, _ = synthetic_files(tmp_path)
    outputs = []
    for seed in ("0", "12345"):
        out = tmp_path / f"seed-{seed}"
        for args in (
            ["extract", "--config", config, "--out", out / "index"],
            ["search", "--index", out / "index", "--queries", config, "--out", out / "fg.run", "--exclude-self"],
            ["baseline", "condorcet", "--config", config, "--out", out / "condorcet.run"],
        ):
            result = run_cli_process("-m", "fusegraph.cli", *map(str, args), PYTHONHASHSEED=seed)
            assert result.returncode == 0, result.stderr
        outputs.append((index_files(out / "index"), *((out / run).read_bytes() for run in ("fg.run", "condorcet.run"))))
    assert outputs[0] == outputs[1]


def test_extract_holds_at_most_two_graphs(tmp_path):
    config, _ = synthetic_files(tmp_path)
    with live_graphs() as live:
        assert main(["extract", "--config", str(config), "--out", str(tmp_path / "index")]) == 0
    assert 1 <= live["peak"] <= 2


def test_verify_holds_at_most_two_graphs(tmp_path, capsys):
    config, items = synthetic_files(tmp_path)
    index_dir = tmp_path / "index"
    assert main(["extract", "--config", str(config), "--out", str(index_dir)]) == 0
    with live_graphs() as live:
        assert main(["verify", "--index", str(index_dir)]) == 0
    assert 1 <= live["peak"] <= 2
    assert f"verified {len(items)} graphs" in capsys.readouterr().out


def test_extract_builds_each_graph_once(tmp_path, monkeypatch):
    config, items = synthetic_files(tmp_path)
    built = []
    build = retrieval.build_fusion_graph

    def counted(rs, *args, **kwargs):
        built.append(rs.query)
        return build(rs, *args, **kwargs)

    monkeypatch.setattr(retrieval, "build_fusion_graph", counted)
    assert main(["extract", "--config", str(config), "--out", str(tmp_path / "index")]) == 0
    assert built == list(items)  # once each, in item order


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("outcome", ["exit 0", "library error", "usage error"])
def test_main_leaves_the_collector_as_it_found_it(toy_files, monkeypatch, capsys, enabled, outcome):
    """main runs a command with the cyclic collector off and restores the state it found, however it ends."""
    seen, command = [], cli._cmd_extract

    def extract(args):
        seen.append(gc.isenabled())
        return command(args)

    monkeypatch.setattr(cli, "_cmd_extract", extract)
    config = toy_files["config"] if outcome == "exit 0" else toy_files["dir"] / "missing.json"
    argv = ["extract", "--config", str(config), "--out", str(toy_files["dir"] / "index")]
    if outcome == "usage error":
        del argv[3:]  # no --out
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "usage error":
            with pytest.raises(SystemExit) as caught:
                main(argv)
            assert caught.value.code == 2
        else:
            assert main(argv) == (0 if outcome == "exit 0" else 1)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([] if outcome == "usage error" else [False])
    assert (len(capsys.readouterr().err.splitlines()) == 1) is (outcome != "exit 0")


# extract, then search every item, with the collector off: the unreachable objects each command leaves
GARBAGE_PROBE = """
import gc, sys
from fusegraph.cli import main
config, index, run = sys.argv[1:]
gc.collect()
gc.disable()
counts = []
for argv in (["extract", "--config", config, "--out", index],
             ["search", "--index", index, "--queries", config, "--out", run, "--exclude-self"]):
    assert main(argv) == 0
    counts.append(gc.collect())
print(*counts)
"""


def test_the_garbage_a_command_leaves_does_not_grow_with_its_input(tmp_path):
    """The CLI runs without the cyclic collector, so no reference cycle may be made per item or per query."""
    counts = []
    for n_items in (24, 96):
        base = tmp_path / f"n{n_items}"
        base.mkdir()
        config, _ = synthetic_files(base, n_items=n_items)
        result = run_cli_process("-c", GARBAGE_PROBE, str(config), str(base / "index"), str(base / "fg.run"))
        assert result.returncode == 0, result.stderr
        counts.append(result.stdout.splitlines()[-1])
    assert counts[0] == counts[1]
