"""The command sequence of a standard-library-only install, run end to end through a given CLI.

Usage::

    python3 tests/stdlib_flow.py COMMAND...

COMMAND starts the CLI: ``fusegraph`` from an install with no extras, or
``python3 -S -m fusegraph.cli`` with ``PYTHONPATH=src``. This script imports
the standard library only, so it runs under such an interpreter too. In a
temporary directory it:

- runs a ttest whose p-value is computed (the differences vary);
- extracts, verifies and searches a 4-item collection under 2 rankers;
- searches the collection's orders scored otherwise, whose run must be
  byte-identical (each query reads its item's stored graph), and a held-out
  query, whose graph is built from its ranks, and checks its run;
- checks that a copy of its index marked format 10, one whose table of
  contents says L=5 without being resealed, and one with a byte appended to
  its graph file, each fail verify with one JSON error line and nothing on
  stdout;
- fuses the collection by borda;
- correlates the two rankers and r3, a copy of r1, by Kendall's tau; picks
  the best pair by that matrix, where r3's correlation of 1 with r1 makes it
  r1 and r2 rather than the more effective r1 and r3; and counts winning
  numbers over an effectiveness table;
- scores both runs by N-S against two classes of two items, given as class
  labels and as the equal grades, so both judgment parsers run;
- scores a run of negative similarity scores by its order.

A command that must succeed must also print nothing to stderr. It exits
non-zero with a message at the first check that fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# each ranker's rank of each item, the item itself first
RANKS = {
    "r1": {"a": "abcd", "b": "badc", "c": "cdab", "d": "dcba"},
    "r2": {"a": "acbd", "b": "bdac", "c": "cadb", "d": "dbca"},
}
NS_REPORT = "mean ns 2.000000 over 4 queries"
# the ranks of a query "e" held out of the collection, and the first four fields of its fused run
HELD_OUT = {"r1": "bacd", "r2": "bcad"}
HELD_OUT_RUN = [["e", "Q0", item, str(pos)] for pos, item in enumerate("bacd", start=1)]
# the Kendall matrix of r1, r2 and r3, a copy of r1: r1 and r2 order one pair of each query's four items apart
KENDALL_MATRIX = ("ranker\tr1\tr2\tr3\nr1\t1.000000\t0.833333\t1.000000\n"
                  "r2\t0.833333\t1.000000\t0.833333\nr3\t1.000000\t0.833333\t1.000000\n")
# a method's wins over two configurations: fg beats both rivals on c1, borda both on c2
WINNERS_TABLE = "d1 c1 fg 0.9\nd1 c1 borda 0.8\nd1 c1 r1 0.7\nd1 c2 fg 0.6\nd1 c2 borda 0.8\nd1 c2 r1 0.5\n"


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"stdlib flow: {message}")


def run(command: list[str], *args: object) -> subprocess.CompletedProcess:
    return subprocess.run([*command, *map(str, args)], capture_output=True, text=True, timeout=120)


def succeeds(command: list[str], *args: object) -> str:
    """The stdout of the CLI run on ``args``, which must exit 0 and print nothing to stderr."""
    result = run(command, *args)
    check(result.returncode == 0, f"{args[0]} exited {result.returncode}: {result.stderr}")
    check(result.stderr == "", f"{args[0]} printed to stderr: {result.stderr}")
    return result.stdout


def fails_verify(command: list[str], index: Path, expected: str) -> None:
    """verify of ``index`` must exit 1 with one JSON error line whose message holds ``expected``."""
    result = run(command, "verify", "--index", index)
    check(result.returncode == 1, f"verify of {index.name} exited {result.returncode}")
    check(result.stdout == "", f"verify of {index.name} printed {result.stdout!r}")
    lines = result.stderr.splitlines()
    check(len(lines) == 1, f"verify of {index.name} printed {len(lines)} error lines")
    check(expected in json.loads(lines[0])["message"], f"verify of {index.name}: {lines[0]}")


def edited_copy(index: Path, name: str, file: str, old: str, new: str) -> Path:
    """A copy of ``index`` with ``old`` replaced by ``new``, which must occur in its ``file`` once."""
    copy = index.with_name(name)
    shutil.copytree(index, copy)
    path = copy / file
    text = path.read_text(encoding="utf-8")
    check(text.count(old) == 1, f"{file} holds {old!r} {text.count(old)} times")
    path.write_text(text.replace(old, new), encoding="utf-8")
    return copy


def write_queries(work: Path, name: str, ranks: dict) -> Path:
    """A query config whose rankers' runs hold ``ranks``: ranker -> query -> (item order, score of the first).

    Scores fall by 1 per position from the first one given.
    """
    rankers = []
    for ranker, per_query in ranks.items():
        lines = (f"{q} Q0 {item} {pos} {top - pos + 1} {ranker}\n" for q, (items, top) in per_query.items()
                 for pos, item in enumerate(items, start=1))
        (work / f"{ranker}.{name}.run").write_text("".join(lines), encoding="utf-8")
        rankers.append({"name": ranker, "run": f"{ranker}.{name}.run"})
    config = work / f"{name}.json"
    config.write_text(json.dumps({"rankers": rankers, "depth": 4}) + "\n", encoding="utf-8")
    return config


def line_count(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def flow(command: list[str], work: Path) -> None:
    (work / "a.tsv").write_text("q1\t0.8\nq2\t0.7\nq3\t0.9\n", encoding="utf-8")
    (work / "b.tsv").write_text("q1\t0.3\nq2\t0.5\nq3\t0.2\n", encoding="utf-8")
    succeeds(command, "ttest", "--a", work / "a.tsv", "--b", work / "b.tsv")

    for ranker, per_query in RANKS.items():
        lines = (f"{q} Q0 {item} {pos} {5 - pos} {ranker}\n" for q, items in per_query.items()
                 for pos, item in enumerate(items, start=1))
        (work / f"{ranker}.run").write_text("".join(lines), encoding="utf-8")
    config = work / "collection.json"
    rankers = [{"name": ranker, "run": f"{ranker}.run"} for ranker in RANKS]
    config.write_text(json.dumps({"rankers": rankers, "depth": 4}) + "\n", encoding="utf-8")
    index = work / "index"
    succeeds(command, "extract", "--config", config, "--out", index)
    succeeds(command, "verify", "--index", index)
    fails_verify(command, edited_copy(index, "index10", "manifest.json", '"v": 11\n', '"v": 10\n'),
                 "version 10, which predates index format 11")
    fails_verify(command, edited_copy(index, "index-l5", "toc.json", '"L":4,', '"L":5,'), "sha256")
    longer = index.with_name("index-longer")
    shutil.copytree(index, longer)
    with open(longer / "graphs.bin", "ab") as graphs:
        graphs.write(b"\0")
    fails_verify(command, longer, "'graphs.bin' holds")

    succeeds(command, "search", "--index", index, "--queries", config, "--out", work / "fg.run")
    check(line_count(work / "fg.run") == 16, "the fused run does not hold 16 lines")
    # the same orders scored otherwise: each query is an indexed item that reads its stored graph
    rescored = {ranker: {q: (items, 1.0) for q, items in per_query.items()} for ranker, per_query in RANKS.items()}
    rescored = write_queries(work, "rescored", rescored)
    succeeds(command, "search", "--index", index, "--queries", rescored, "--out", work / "rescored.run")
    check((work / "rescored.run").read_bytes() == (work / "fg.run").read_bytes(), "rescored.run differs from fg.run")
    # a held-out query, whose graph is built from its ranks
    held_out = write_queries(work, "held", {r: {"e": (items, 5.0)} for r, items in HELD_OUT.items()})
    succeeds(command, "search", "--index", index, "--queries", held_out, "--out", work / "held.run")
    run_lines = [line.split() for line in (work / "held.run").read_text(encoding="utf-8").splitlines()]
    check([fields[:4] for fields in run_lines] == HELD_OUT_RUN, f"held.run holds {run_lines}")
    succeeds(command, "baseline", "borda", "--config", config, "--out", work / "borda.run")
    check(line_count(work / "borda.run") == 16, "the borda run does not hold 16 lines")

    (work / "r3.run").write_text((work / "r1.run").read_text(encoding="utf-8").replace(" r1\n", " r3\n"),
                                 encoding="utf-8")
    three = work / "three.json"
    three.write_text(json.dumps({"rankers": [*rankers, {"name": "r3", "run": "r3.run"}], "depth": 4}) + "\n",
                     encoding="utf-8")
    succeeds(command, "correlate", "--config", three, "--measure", "kendall", "--out", work / "kendall.tsv")
    matrix = (work / "kendall.tsv").read_text(encoding="utf-8")
    check(matrix == KENDALL_MATRIX, f"kendall.tsv holds {matrix!r}")
    # r1 and r3 are the most effective pair, but (1 + 0.6 * 0.5) / (1 + 0.833333) beats (1 + 0.6 * 0.6) / (1 + 1)
    (work / "eff").write_text("r1 0.6\nr2 0.5\nr3 0.6\n", encoding="utf-8")
    chosen = succeeds(command, "select", "--effectiveness", work / "eff", "--correlations", work / "kendall.tsv",
                      "--strategy", "best-pair")
    check(chosen == "r1 r2\n", f"best-pair chose {chosen!r}")
    (work / "table").write_text(WINNERS_TABLE, encoding="utf-8")
    wins = succeeds(command, "winners", "--table", work / "table")
    check(wins == "borda\t3\nfg\t3\nr1\t0\n", f"winners printed {wins!r}")

    (work / "labels").write_text("a x\nb x\nc y\nd y\n", encoding="utf-8")
    grades = "".join(f"{q} 0 {item} 1\n" for q, item in ("aa", "ab", "ba", "bb", "cc", "cd", "dc", "dd"))
    (work / "grades").write_text(grades, encoding="utf-8")
    negative = "".join(
        " ".join([*fields[:4], str(int(fields[4]) - 5), fields[5]]) + "\n"
        for fields in map(str.split, (work / "r1.run").read_text(encoding="utf-8").splitlines())
    )
    (work / "neg.run").write_text(negative, encoding="utf-8")
    for name, judgments in (("fg", "--class-labels"), ("fg", "--qrels"), ("borda", "--class-labels"),
                            ("borda", "--qrels"), ("neg", "--class-labels")):
        judged = work / ("labels" if judgments == "--class-labels" else "grades")
        report = succeeds(command, "eval", "--run", work / f"{name}.run", judgments, judged, "--metric", "ns")
        check(report.splitlines() == [NS_REPORT], f"eval of {name}.run {judgments}: {report!r}")


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as work:
        flow(argv, Path(work))
    print("stdlib flow passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
