import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fusegraph.errors import (
    ConfigError,
    DuplicateDoc,
    MissingRank,
    ParseError,
    RankGap,
    UnknownQuery,
)
from fusegraph.io import (
    PipelineConfig,
    RankerSpec,
    load_config,
    parse_class_labels,
    parse_correlation_matrix,
    parse_effectiveness_table,
    parse_per_query_metrics,
    parse_qrels,
    parse_ranker_effectiveness,
    parse_run_file,
    rank_sets_from_runs,
    write_correlation_matrix,
    write_run_file,
)
from fusegraph import baselines
from fusegraph.model import RankSet, ScoredEntry, ScoredRank, assemble_rank_set
from fusegraph.retrieval import fuse_query, index_collection, load_index, save_index

from helpers import mkrank, synthetic_collection


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_run_basic(tmp_path):
    path = write(tmp_path, "a.run", "q1 Q0 doc7 1 14.89 bm25\nq1 Q0 doc3 2 11.2 bm25\n")
    runs = parse_run_file(path, "bm25")
    rank = runs["q1"]
    assert rank.entries[0].item == "doc7"
    assert rank.entries[0].score == 14.89
    assert rank.items() == ("doc7", "doc3")
    assert rank.ranker == "bm25"


def test_parse_run_orders_by_rank_column(tmp_path):
    path = write(tmp_path, "a.run", "q1 Q0 b 2 1.0 t\nq1 Q0 a 1 2.0 t\n")
    assert parse_run_file(path, "r").get("q1").items() == ("a", "b")


def test_parse_run_duplicate_doc(tmp_path):
    path = write(tmp_path, "a.run", "q1 Q0 d 1 2.0 t\nq1 Q0 d 2 1.0 t\n")
    with pytest.raises(DuplicateDoc):
        parse_run_file(path, "r")


def test_parse_run_rank_gap(tmp_path):
    path = write(tmp_path, "a.run", "q1 Q0 a 1 2.0 t\nq1 Q0 b 3 1.0 t\n")
    with pytest.raises(RankGap):
        parse_run_file(path, "r")


def test_parse_run_malformed_line(tmp_path):
    path = write(tmp_path, "a.run", "q1 Q0 a 1 2.0 t\nbroken line\n")
    with pytest.raises(ParseError) as excinfo:
        parse_run_file(path, "r")
    assert excinfo.value.line_no == 2


def test_parse_run_bad_score(tmp_path):
    path = write(tmp_path, "a.run", "q1 Q0 a 1 -2.0 t\n")
    assert parse_run_file(path, "r")["q1"].entries[0].score == -2.0  # a similarity may be negative
    with pytest.raises(ParseError, match="distance score must be >= 0"):
        parse_run_file(path, "r", polarity="distance")
    for name, bad in (("b.run", "nope"), ("c.run", "nan"), ("d.run", "-inf")):
        path = write(tmp_path, name, f"q1 Q0 a 1 {bad} t\n")
        for polarity in ("similarity", "distance"):
            with pytest.raises(ParseError):
                parse_run_file(path, "r", polarity=polarity)


def test_parse_run_distance_polarity(tmp_path):
    path = write(tmp_path, "a.run", "q1 Q0 a 1 0.0 t\nq1 Q0 b 2 1.0 t\n")
    runs = parse_run_file(path, "r", polarity="distance")
    assert runs["q1"].entries[0].score == 1.0  # 1 / (1 + 0)
    assert runs["q1"].entries[1].score == 0.5


def test_parse_run_depth_truncation(tmp_path):
    lines = "".join(f"q1 Q0 d{i} {i} {10 - i}.0 t\n" for i in range(1, 6))
    path = write(tmp_path, "a.run", lines)
    runs = parse_run_file(path, "r", depth=3)
    assert len(runs["q1"]) == 3
    assert runs["q1"].depth == 3


@pytest.mark.parametrize("text", ["", "q1 Q0 a 1 2.0 t\n"], ids=["empty", "one line"])
def test_parse_run_rejects_depth_below_one_before_any_line(tmp_path, text):
    path = write(tmp_path, "a.run", text)
    with pytest.raises(ValueError, match=r"^depth must be >= 1, got 0$"):
        parse_run_file(path, "r", depth=0)


RUN_IDS = st.text(alphabet="abqz019_é日", min_size=1, max_size=3)
RUN_SCORES = st.one_of(
    st.floats(min_value=0.0, max_value=1e300).map(repr),
    st.integers(0, 10**6).map(str),
    st.sampled_from(["0", "-0.0", "1e-320", "3.", ".5", "1E+2", "1_000"]),
)


@st.composite
def run_files(draw):
    """A valid run file's lines, in a drawn order: (qid, docid, rank, score text), positions 1..k per query."""
    queries = draw(st.lists(RUN_IDS, min_size=1, max_size=4, unique=True))
    rows = [
        (qid, docid, pos, draw(RUN_SCORES))
        for qid in queries
        for pos, docid in enumerate(draw(st.lists(RUN_IDS, min_size=1, max_size=6, unique=True)), start=1)
    ]
    return draw(st.permutations(rows))


def run_lines(rows, seps=(" ",)) -> str:
    return "".join(
        seps[n % len(seps)].join([qid, "Q0", docid, str(pos), score, "tag"]) + "\n"
        for n, (qid, docid, pos, score) in enumerate(rows)
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=run_files(),
    polarity=st.sampled_from(["similarity", "distance"]),
    depth=st.one_of(st.none(), st.integers(1, 7)),
    seps=st.lists(st.sampled_from([" ", "\t", "  ", " \t "]), min_size=1, max_size=3),
)
def test_parsed_ranks_are_those_the_checked_constructor_builds(tmp_path, rows, polarity, depth, seps):
    path = write(tmp_path, "a.run", run_lines(rows, seps))
    runs = parse_run_file(path, "r", polarity, depth)
    expected = {}
    for qid, docid, pos, score in sorted(rows, key=lambda row: (row[0], row[2])):
        value = float(score)
        expected.setdefault(qid, []).append((docid, 1.0 / (1.0 + value) if polarity == "distance" else value))
    assert runs == {
        qid: ScoredRank(qid, "r", tuple(entries[:depth]), len(entries) if depth is None else depth)
        for qid, entries in expected.items()
    }
    for rank in runs.values():
        assert all(type(entry) is ScoredEntry and type(entry.score) is float for entry in rank)
        assert [entry.score.hex() for entry in rank] == [score.hex() for _, score in expected[rank.query][:depth]]


RUN_FAULTS = ["fields", "bad rank", "rank < 1", "bad score", "nan", "inf", "negative", "duplicate", "gap", "depth"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=run_files(), fault=st.sampled_from(RUN_FAULTS), at=st.integers(0, 10**6), data=st.data())
def test_run_file_rejections_keep_their_class_line_and_message(tmp_path, rows, fault, at, data):
    """One fault per file: the parser names it as the checked constructor's callers always saw it."""
    rows = list(rows)
    at %= len(rows)
    qid, docid, pos, score = rows[at]
    line = f"{tmp_path / 'a.run'}:{at + 1}: "
    depth = polarity = None
    if fault == "fields":
        rows[at] = (qid, docid, pos, score + " extra")
        error, message = ParseError, line + "expected 6 fields, got 7"
    elif fault in ("bad rank", "rank < 1"):
        bad = data.draw(st.sampled_from(["x", "1.0", "2a"] if fault == "bad rank" else ["0", "-3"]))
        rows[at] = (qid, docid, bad, score)
        error = ParseError
        message = line + (f"bad rank {bad!r}" if fault == "bad rank" else f"rank must be >= 1, got {bad}")
    elif fault in ("bad score", "nan", "inf", "negative"):
        bad = data.draw(st.sampled_from({
            "bad score": ["x", "1,5", "0x1p3"], "nan": ["nan", "NaN", "-nan"], "inf": ["inf", "-Infinity", "1e400"],
            "negative": ["-1", "-0.5", "-1e-300"],
        }[fault]))
        rows[at] = (qid, docid, pos, bad)
        if fault == "negative":  # only a distance must be >= 0
            polarity, message = "distance", f"distance score must be >= 0, got {bad}"
        else:
            message = f"bad score {bad!r}" if fault == "bad score" else f"score must be finite, got {bad}"
        error, message = ParseError, line + message
    elif fault == "duplicate":
        earlier = [row[1] for row in rows[:at] if row[0] == qid]
        if not earlier:
            return
        rows[at] = (qid, earlier[0], pos, score)
        error, message = DuplicateDoc, f"duplicate document {earlier[0]!r} for query {qid!r}"
    elif fault == "gap":
        rows[at] = (qid, docid, pos + 100, score)
        positions = sorted(row[2] for row in rows if row[0] == qid)
        error = RankGap
        message = f"rank positions for query {qid!r} are not contiguous from 1 (positions {positions[:8]}...)"
    else:
        depth = data.draw(st.integers(-2, 0))
        error, message = ValueError, f"depth must be >= 1, got {depth}"
    path = write(tmp_path, "a.run", run_lines(rows))
    if polarity is None:
        polarity = data.draw(st.sampled_from(["similarity", "distance"]))
    with pytest.raises(error) as excinfo:
        parse_run_file(path, "r", polarity, depth)
    assert type(excinfo.value) is error and str(excinfo.value) == message
    if error is ParseError:
        assert excinfo.value.line_no == at + 1
    if fault == "negative":  # the same line is a valid similarity
        assert parse_run_file(path, "r")[qid].entries[pos - 1].score == float(bad)


def test_run_round_trip_semantics(tmp_path):
    original = write(
        tmp_path,
        "orig.run",
        "q1 Q0 a 1 0.75 t\nq1 Q0 b 2 0.5 t\nq2 Q0 c 1 1.25 t\n",
    )
    runs = parse_run_file(original, "r")
    out = tmp_path / "copy.run"
    write_run_file(out, runs, "r")
    reparsed = parse_run_file(out, "r")
    assert set(reparsed) == set(runs)
    for qid in runs:
        assert reparsed[qid].items() == runs[qid].items()
        for a, b in zip(reparsed[qid], runs[qid]):
            assert a.score == b.score


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fused_ranks_round_trip_bit_for_bit(tmp_path, seed):
    """A fused rank of fusegraph or of any baseline but kemeny is read back with the very scores it holds."""
    collection, _ = synthetic_collection(seed, n_items=24, n_classes=6)
    rankers = collection.rankers
    rank_sets = {q: assemble_rank_set(q, collection, rankers) for q in collection.collection_items()}
    fg_index = index_collection(collection, rankers, 10)
    searched = {q: fuse_query(rs, fg_index) for q, rs in rank_sets.items()}
    save_index(tmp_path / "index", fg_index)
    loaded = load_index(tmp_path / "index")
    fused = {
        "fusegraph": searched,
        "fusegraph-loaded": {q: fuse_query(rs, loaded) for q, rs in rank_sets.items()},
        **{
            method: {q: baselines.aggregate(method, rs, depth=10) for q, rs in rank_sets.items()}
            for method in baselines.METHODS
            if method != "kemeny"
        },
    }
    for name, runs in fused.items():
        write_run_file(tmp_path / f"{name}.run", runs, name)
        reread = parse_run_file(tmp_path / f"{name}.run", name)
        assert reread.keys() == runs.keys()
        for qid, rank in runs.items():
            assert [(item, score.hex()) for item, score in reread[qid].entries] == [
                (item, score.hex()) for item, score in rank.entries
            ], (name, qid)


def test_write_fused_rank_distances_become_descending_scores(tmp_path):
    fused = ScoredRank("q", "fusegraph", (("a", 1.0 - 0.0), ("b", 1.0 - 0.25)), 2)
    out = tmp_path / "fg.run"
    write_run_file(out, {"q": fused}, "FG")
    lines = out.read_text().splitlines()
    assert lines[0].split() == ["q", "Q0", "a", "1", "1.0", "FG"]
    assert lines[1].split() == ["q", "Q0", "b", "2", "0.75", "FG"]


def test_rank_sets_from_runs_groups_strictly_or_leniently():
    # r2 lacks q1 and q3; only r1 ranks q3; nothing ranks q4 under the chosen rankers
    runs = {
        "r1": {q: mkrank(q, "r1", ["A"]) for q in ("q3", "q2", "q1")},
        "r2": {q: mkrank(q, "r2", ["B"]) for q in ("q2",)},
        "r3": {"q4": mkrank("q4", "r3", ["C"])},
    }
    lenient = rank_sets_from_runs(runs, ("r2", "r1"), strict=False)
    assert list(lenient) == ["q1", "q2", "q3"]
    assert [lenient[q].ranker_names for q in lenient] == [("r1",), ("r2", "r1"), ("r1",)]
    assert all(rs.query == q for q, rs in lenient.items())
    assert rank_sets_from_runs(runs, ("r2",), strict=False) == {"q2": RankSet("q2", (runs["r2"]["q2"],))}
    assert rank_sets_from_runs(runs, ("r4",), strict=False) == {}
    with pytest.raises(MissingRank) as excinfo:
        rank_sets_from_runs(runs, ("r1", "r2"))  # strict is the default
    assert (excinfo.value.ranker, excinfo.value.query) == ("r2", "q1")
    with pytest.raises(MissingRank) as excinfo:
        rank_sets_from_runs(runs, ("r4", "r1"), strict=True)
    assert (excinfo.value.ranker, excinfo.value.query) == ("r4", "q1")
    both = {"r1": runs["r1"], "r2": {q: mkrank(q, "r2", ["B"]) for q in ("q1", "q2", "q3")}}
    strict = rank_sets_from_runs(both, ("r2", "r1"), strict=True)
    assert list(strict) == ["q1", "q2", "q3"]
    assert all(rs.ranker_names == ("r2", "r1") for rs in strict.values())


def test_parse_qrels(tmp_path):
    path = write(tmp_path, "q.qrels", "q1 0 a 1\nq1 0 b 0\nq2 0 a 2\n")
    qrels = parse_qrels(path)
    assert qrels.relevance("q1", "a") == 1
    assert qrels.relevance("q1", "b") == 0
    assert qrels.relevance("q2", "a") == 2
    with pytest.raises(UnknownQuery):
        qrels.relevance("zz", "a")


def test_parse_qrels_errors(tmp_path):
    with pytest.raises(ParseError):
        parse_qrels(write(tmp_path, "bad.qrels", "q1 0 a\n"))
    with pytest.raises(ParseError):
        parse_qrels(write(tmp_path, "neg.qrels", "q1 0 a -1\n"))


def test_parse_class_labels(tmp_path):
    path = write(tmp_path, "labels.txt", "a c1\nb c1\nc c2\n")
    qrels = parse_class_labels(path)
    assert qrels.relevance("a", "b") == 1
    assert qrels.relevance("a", "c") == 0
    assert qrels.relevance("a", "a") == 1
    with pytest.raises(ParseError):
        parse_class_labels(write(tmp_path, "dup.txt", "a c1\na c2\n"))


# parser, two valid records, field count, [(bad record, message)], empty-file message
LINE_PARSERS = [
    pytest.param(
        lambda path: parse_run_file(path, "r"),
        ("q1 Q0 a 1 2.0 t", "q1 Q0 b 2 -1.0 t"),  # a similarity may be negative
        6,
        [
            ("q1 Q0 a x 2.0 t", "bad rank 'x'"),
            ("q1 Q0 a 0 2.0 t", "rank must be >= 1, got 0"),
            ("q1 Q0 a 1 x t", "bad score 'x'"),
            ("q1 Q0 a 1 nan t", "score must be finite, got nan"),
            ("q1 Q0 a 1 inf t", "score must be finite, got inf"),
        ],
        None,
        id="run",
    ),
    pytest.param(
        lambda path: parse_run_file(path, "r", polarity="distance"),
        ("q1 Q0 a 1 2.0 t", "q1 Q0 b 2 3.0 t"),
        6,
        [
            ("q1 Q0 a 1 -2.0 t", "distance score must be >= 0, got -2.0"),
            ("q1 Q0 a 1 -inf t", "score must be finite, got -inf"),
        ],
        None,
        id="run_distance",
    ),
    pytest.param(
        parse_qrels,
        ("q1 0 a 1", "q1 0 b 0"),
        4,
        [("q1 0 a x", "bad relevance 'x'"), ("q1 0 a -1", "negative relevance -1")],
        "qrels file is empty",
        id="qrels",
    ),
    pytest.param(
        parse_class_labels, ("a c1", "b c1"), 2, [], "class-label file is empty", id="class_labels"
    ),
    pytest.param(
        parse_per_query_metrics,
        ("q1 0.5", "q2 0.25"),
        2,
        [
            ("q1 x", "bad value 'x'"),
            ("q2 nan", "value must be finite, got nan"),
            ("q2 -inf", "value must be finite, got -inf"),
        ],
        "per-query metric file is empty",
        id="per_query_metrics",
    ),
    pytest.param(
        parse_ranker_effectiveness,
        ("r1 0.5", "r2 0.25"),
        2,
        [("r1 x", "bad value 'x'"), ("r2 NaN", "value must be finite, got NaN")],
        "effectiveness file is empty",
        id="ranker_effectiveness",
    ),
    pytest.param(
        parse_effectiveness_table,
        ("d c m1 0.5", "d c m2 0.25"),
        4,
        [("d c m1 x", "bad value 'x'"), ("d c m2 inf", "value must be finite, got inf")],
        "effectiveness table is empty",
        id="effectiveness_table",
    ),
]


def _parse_error(parse, path):
    with pytest.raises(ParseError) as excinfo:
        parse(path)
    return excinfo.value.line_no, str(excinfo.value)


def _comparable(parsed):
    return vars(parsed) if hasattr(parsed, "relevance") else parsed


@pytest.mark.parametrize("parse, records, count, bad_numbers, empty_message", LINE_PARSERS)
def test_line_parser_errors_pinned(tmp_path, parse, records, count, bad_numbers, empty_message):
    first, second = records
    path = write(tmp_path, "long.txt", f"{first}\n\n{second} extra\n")
    assert _parse_error(parse, path) == (3, f"{path}:3: expected {count} fields, got {count + 1}")
    path = write(tmp_path, "short.txt", f"{first}\nlonely\n")
    assert _parse_error(parse, path) == (2, f"{path}:2: expected {count} fields, got 1")
    for number, (bad, message) in enumerate(bad_numbers):
        path = write(tmp_path, f"bad{number}.txt", f"{first}\n  \n{bad}\n")
        assert _parse_error(parse, path) == (3, f"{path}:3: {message}")
    for name, text in (("empty.txt", ""), ("blank.txt", "\n  \n\t\n")):
        path = write(tmp_path, name, text)
        if empty_message is None:
            assert parse(path) == {}
        else:
            assert _parse_error(parse, path) == (0, f"{path}:0: {empty_message}")
    spaced = parse(write(tmp_path, "spaced.txt", f"\n{first}\n\n \t\n{second}\n\n"))
    dense = parse(write(tmp_path, "dense.txt", f"{first}\n{second}\n"))
    assert _comparable(spaced) == _comparable(dense)


REPEATED_KEYS = [
    pytest.param(parse_qrels, "q1 0 d1 1\n\nq1 0 d1 0\n", 3, "duplicate judgment of 'd1' for 'q1'", id="qrels"),
    pytest.param(parse_per_query_metrics, "q1 0.5\n\nq1 0.25\n", 3, "duplicate entry for 'q1'", id="per_query"),
    pytest.param(parse_ranker_effectiveness, "r1 0.5\n\nr1 0.5\n", 3, "duplicate entry for 'r1'", id="ranker_eff"),
    pytest.param(
        parse_effectiveness_table,
        "d c m1 0.5\nd c m2 0.5\nd c m1 0.25\n",
        3,
        "duplicate entry for 'd c m1'",
        id="effectiveness_table",
    ),
    pytest.param(
        parse_correlation_matrix,
        "ranker\ta\tb\na\t1.0\t0.5\na\t0.5\t1.0\n",
        3,
        "duplicate matrix row 'a'",
        id="matrix_row",
    ),
    pytest.param(
        parse_correlation_matrix, "ranker\ta\ta\na\t1.0\t1.0\n", 1, "duplicate matrix column 'a'", id="matrix_column"
    ),
]


@pytest.mark.parametrize("parse, text, line_no, message", REPEATED_KEYS)
def test_keyed_parsers_reject_repeated_key(tmp_path, parse, text, line_no, message):
    """A repeated key is an error at its line, not a silent win of the last line."""
    path = write(tmp_path, "keyed.txt", text)
    assert _parse_error(parse, path) == (line_no, f"{path}:{line_no}: {message}")


def test_parse_ranker_effectiveness(tmp_path):
    path = write(tmp_path, "eff.txt", "r1 0.5\nr2 0.25\n")
    assert parse_ranker_effectiveness(path) == {"r1": 0.5, "r2": 0.25}


def test_per_query_metrics_round_trip(tmp_path):
    from fusegraph.evaluation import EvalReport
    from fusegraph.io import write_per_query_metrics

    report = EvalReport("ndcg@10", {"q1": 0.5, "q2": 0.75}, 0.625)
    path = tmp_path / "metrics.tsv"
    write_per_query_metrics(path, report)
    assert parse_per_query_metrics(path) == {"q1": 0.5, "q2": 0.75}


def test_effectiveness_table_parsing(tmp_path):
    path = write(tmp_path, "table.txt", "d1 c1 m1 0.9\nd1 c1 m2 0.5\nd1 c2 m1 0.1\nd1 c2 m2 0.9\n")
    table = parse_effectiveness_table(path)
    assert table[("d1", "c1")] == {"m1": 0.9, "m2": 0.5}


def test_correlation_matrix_errors_count_blank_lines(tmp_path):
    path = write(tmp_path, "m.tsv", "ranker\ta\n\na\t1.0\nb\tx\n")
    assert _parse_error(parse_correlation_matrix, path) == (4, f"{path}:4: bad matrix value")
    path = write(tmp_path, "lead.tsv", "\n\nranker\ta\ta\n")
    assert _parse_error(parse_correlation_matrix, path) == (3, f"{path}:3: duplicate matrix column 'a'")
    path = write(tmp_path, "short.tsv", "ranker\ta\tb\n\na\t1.0\n")
    assert _parse_error(parse_correlation_matrix, path) == (3, f"{path}:3: expected 3 fields, got 2")
    path = write(tmp_path, "bare.tsv", "\nranker\n")
    message = "matrix header needs at least one ranker column"
    assert _parse_error(parse_correlation_matrix, path) == (2, f"{path}:2: {message}")
    path = write(tmp_path, "rows.tsv", "\nranker\ta\tb\tc\nc\t0.5\t0.5\t1.0\n\nb\t0.5\t1.0\t0.5\n")
    assert _parse_error(parse_correlation_matrix, path) == (2, f"{path}:2: matrix row 'a' is missing")
    path = write(tmp_path, "blank.tsv", "\n \n")
    assert _parse_error(parse_correlation_matrix, path) == (0, f"{path}:0: correlation matrix is empty")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-0.5", "1.5"])
def test_correlation_matrix_values_lie_in_the_unit_interval(tmp_path, value):
    path = write(tmp_path, "m.tsv", f"ranker\ta\tb\na\t1.0\t{value}\n")
    message = f"matrix value {float(value)!r} for 'b' is not in [0, 1]"
    assert _parse_error(parse_correlation_matrix, path) == (2, f"{path}:2: {message}")


def test_correlation_matrix_round_trip(tmp_path):
    names = ["r1", "r2"]
    matrix = {"r1": {"r1": 1.0, "r2": 0.25}, "r2": {"r1": 0.25, "r2": 1.0}}
    path = tmp_path / "corr.tsv"
    write_correlation_matrix(path, names, matrix)
    assert parse_correlation_matrix(path) == matrix


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig(rankers=())
    with pytest.raises(ConfigError):
        PipelineConfig(rankers=(RankerSpec("a", "x"),), depth=0)
    with pytest.raises(ConfigError):
        PipelineConfig(rankers=(RankerSpec("a", "x"),), comparator="XYZ")
    with pytest.raises(ConfigError):
        PipelineConfig(rankers=(RankerSpec("a", "x"), RankerSpec("a", "y")))
    with pytest.raises(ConfigError):
        RankerSpec("a", "x", polarity="weird")
    with pytest.raises(ConfigError, match="ranker name must be non-empty"):
        RankerSpec("", "x")
    with pytest.raises(ConfigError, match="unknown polarity 'weird'"):  # before the file is opened
        parse_run_file(tmp_path / "absent.run", "r", polarity="weird")


def test_load_config_resolves_relative_paths(tmp_path):
    config_path = write(
        tmp_path,
        "config.json",
        '{"rankers": [{"name": "r1", "run": "runs/a.run"}], "depth": 5}',
    )
    config = load_config(config_path)
    assert config.rankers[0].run == str(tmp_path / "runs" / "a.run")
    assert config.depth == 5
    assert config.comparator == "WGU"


def test_load_config_rejects_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "bad.json", "{broken"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "no_rankers.json", "{}"))
    with pytest.raises(ConfigError, match="config root must be a JSON object"):
        load_config(write(tmp_path, "list.json", "[]"))
    with pytest.raises(ConfigError, match="each ranker needs 'name' and 'run' fields"):
        load_config(write(tmp_path, "no_run.json", '{"rankers": [{"name": "r1"}]}'))


def ranker_entry(**fields):
    return {"name": "r1", "run": "a.run", **fields}


BAD_CONFIG_VALUES = {
    "strict as a string": ({"strict": "false"}, "'strict' must be true or false, got 'false'"),
    # exclude_self is not a field: search --exclude-self is the one switch
    "exclude_self as a number": ({"exclude_self": 1}, "'exclude_self' is unknown"),
    "exclude_self as a bool": ({"exclude_self": False}, "'exclude_self' is unknown"),
    "misspelt root field": ({"comparater": "MCS"}, "'comparater' is unknown"),
    "misspelt ranker field": ({"rankers": [ranker_entry(polarty="distance")]}, "'polarty' of a ranker is unknown"),
    "fractional depth": ({"depth": 10.7}, "'depth' must be an integer, got 10.7"),
    "depth as a bool": ({"depth": True}, "'depth' must be an integer, got True"),
    "depth as a string": ({"depth": "10"}, "'depth' must be an integer, got '10'"),
    "numeric run": ({"rankers": [ranker_entry(run=5)]}, "'run' must be a string, got 5"),
    "numeric name": ({"rankers": [ranker_entry(name=3)]}, "'name' must be a string, got 3"),
    "null polarity": ({"rankers": [ranker_entry(polarity=None)]}, "'polarity' must be a string, got None"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_load_config_checks_value_types(tmp_path, case):
    fields, message = BAD_CONFIG_VALUES[case]
    config = {"rankers": [ranker_entry()], **fields}
    with pytest.raises(ConfigError, match=f"config field {message}"):
        load_config(write(tmp_path, "config.json", json.dumps(config)))


def test_load_config_reads_json_booleans_and_integers(tmp_path):
    config = {"rankers": [ranker_entry()], "depth": 7, "strict": True}
    loaded = load_config(write(tmp_path, "config.json", json.dumps(config)))
    assert (loaded.depth, loaded.strict) == (7, True)
