"""Run-file and qrels ingestion, pipeline configuration, report formats.

Run files are standard TREC format, one result per line::

    qid Q0 docid rank score tag

Per query, the rank column must be 1..k without gaps and docids must be
unique. Each ranker declares its score polarity: distance scores d are
converted to similarities 1 / (1 + d) at parse time, so "most similar" sorts
first everywhere downstream.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from .errors import ConfigError, DuplicateDoc, ParseError, RankGap
from .model import CollectionRankIndex, ItemId, RankSet, ScoredRank, assemble_rank_set, unchecked_rank

if TYPE_CHECKING:  # the judgment parsers import Qrels: the commands without judgments load no evaluation
    from .evaluation import EvalReport, Qrels

POLARITY_SIMILARITY = "similarity"
POLARITY_DISTANCE = "distance"
POLARITIES = (POLARITY_SIMILARITY, POLARITY_DISTANCE)

def _fields(path: Path, count: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each non-blank whitespace-separated line.

    Raises ParseError on a line that does not hold exactly ``count`` fields.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != count:
                raise ParseError(str(path), line_no, f"expected {count} fields, got {len(fields)}")
            yield line_no, fields


def _number(kind: Callable[[str], float], text: str, path: Path, line_no: int, what: str) -> float:
    """``kind(text)``, or ParseError ``bad <what> <text>`` when it is not a number."""
    try:
        return kind(text)
    except ValueError:
        raise ParseError(str(path), line_no, f"bad {what} {text!r}") from None


def _keyed_values(path: str | Path, count: int, empty: str) -> dict[tuple[str, ...], float]:
    """Leading fields -> value for each line whose last of ``count`` fields is a finite float.

    Raises ParseError at a line whose leading fields repeat an earlier line's.
    """
    path = Path(path)
    values: dict[tuple[str, ...], float] = {}
    for line_no, fields in _fields(path, count):
        value, key = _number(float, fields[-1], path, line_no, "value"), tuple(fields[:-1])
        if not math.isfinite(value):
            raise ParseError(str(path), line_no, f"value must be finite, got {fields[-1]}")
        if key in values:
            raise ParseError(str(path), line_no, f"duplicate entry for {' '.join(key)!r}")
        values[key] = value
    if not values:
        raise ParseError(str(path), 0, empty)
    return values


def parse_run_file(
    path: str | Path,
    ranker: str,
    polarity: str = POLARITY_SIMILARITY,
    depth: int | None = None,
) -> dict[ItemId, ScoredRank]:
    """Parse one ranker's TREC run file into per-query ScoredRanks.

    Entries are ordered by the rank column and cut to ``depth`` when given.
    Scores must be finite, and a ``distance`` d, read as 1 / (1 + d), not
    negative. The line checks make every ScoredRank check but that of
    ``depth``, so the ranks are built without running them again.
    """
    path = Path(path)
    if polarity not in POLARITIES:
        raise ConfigError(f"unknown polarity {polarity!r}, expected one of {POLARITIES}")
    if depth is not None and depth < 1:  # the one ScoredRank check the line checks do not make
        raise ValueError(f"depth must be >= 1, got {depth}")
    rows: dict[ItemId, list[tuple[int, ItemId, float]]] = {}
    seen: dict[ItemId, set[ItemId]] = {}
    for line_no, (qid, _q0, docid, rank_str, score_str, _tag) in _fields(path, 6):
        rank_pos = _number(int, rank_str, path, line_no, "rank")
        if rank_pos < 1:
            raise ParseError(str(path), line_no, f"rank must be >= 1, got {rank_pos}")
        score = _number(float, score_str, path, line_no, "score")
        if not math.isfinite(score):
            raise ParseError(str(path), line_no, f"score must be finite, got {score_str}")
        if polarity == POLARITY_DISTANCE:
            if score < 0:
                raise ParseError(str(path), line_no, f"distance score must be >= 0, got {score_str}")
            score = 1.0 / (1.0 + score)
        if docid in seen.setdefault(qid, set()):
            raise DuplicateDoc(qid, docid)
        seen[qid].add(docid)
        rows.setdefault(qid, []).append((rank_pos, docid, score))

    runs: dict[ItemId, ScoredRank] = {}
    for qid, entries in rows.items():
        entries.sort(key=itemgetter(0))
        positions = [row[0] for row in entries]
        if positions != list(range(1, len(entries) + 1)):
            raise RankGap(qid, f"positions {positions[:8]}...")
        kept = map(itemgetter(1, 2), entries[:depth])
        runs[qid] = unchecked_rank(qid, ranker, kept, len(entries) if depth is None else depth)
    return runs


def write_run_file(path: str | Path, runs: Mapping[ItemId, ScoredRank], tag: str) -> None:
    """Write runs as TREC lines, sorted by query then rank position.

    Scores are written in full-precision decimal, so parse_run_file reads
    each back bit for bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(runs):
            for pos, (docid, score) in enumerate(runs[qid].entries, start=1):
                fh.write(f"{qid} Q0 {docid} {pos} {score!r} {tag}\n")


def check_run_tag(tag: str) -> None:
    """ValueError unless ``tag`` is one run-file field: non-empty, with no whitespace."""
    if tag.split() != [tag]:
        raise ValueError(f"run tag must be non-empty and hold no whitespace, got {tag!r}")


def parse_qrels(path: str | Path) -> Qrels:
    """Parse whitespace-separated ``qid 0 docid rel`` judgment lines."""
    from .evaluation import Qrels
    path = Path(path)
    grades: dict[ItemId, dict[ItemId, int]] = {}
    for line_no, (qid, _iter, docid, rel_str) in _fields(path, 4):
        rel = _number(int, rel_str, path, line_no, "relevance")
        if rel < 0:
            raise ParseError(str(path), line_no, f"negative relevance {rel}")
        judged = grades.setdefault(qid, {})
        if docid in judged:
            raise ParseError(str(path), line_no, f"duplicate judgment of {docid!r} for {qid!r}")
        judged[docid] = rel
    if not grades:
        raise ParseError(str(path), 0, "qrels file is empty")
    return Qrels(grades)


def parse_class_labels(path: str | Path) -> Qrels:
    """Parse ``docid classlabel`` lines; relevance is same-class membership."""
    from .evaluation import Qrels
    path = Path(path)
    labels: dict[ItemId, str] = {}
    for line_no, (docid, label) in _fields(path, 2):
        if docid in labels:
            raise ParseError(str(path), line_no, f"duplicate label for {docid!r}")
        labels[docid] = label
    if not labels:
        raise ParseError(str(path), 0, "class-label file is empty")
    return Qrels.from_class_labels(labels)


def write_per_query_metrics(path: str | Path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(report.per_query):
            fh.write(f"{qid}\t{report.per_query[qid]!r}\n")


def parse_per_query_metrics(path: str | Path) -> dict[ItemId, float]:
    """Parse ``qid value`` lines as written by the eval command."""
    rows = _keyed_values(path, 2, "per-query metric file is empty")
    return {qid: value for (qid,), value in rows.items()}


def parse_effectiveness_table(
    path: str | Path,
) -> dict[tuple[str, str], dict[str, float]]:
    """Parse ``dataset config method value`` lines into the winners table."""
    table: dict[tuple[str, str], dict[str, float]] = {}
    for (dataset, config, method), value in _keyed_values(path, 4, "effectiveness table is empty").items():
        table.setdefault((dataset, config), {})[method] = value
    return table


def parse_ranker_effectiveness(path: str | Path) -> dict[str, float]:
    """Parse ``ranker value`` lines (per-ranker effectiveness for selection)."""
    rows = _keyed_values(path, 2, "effectiveness file is empty")
    return {ranker: value for (ranker,), value in rows.items()}


def format_correlation_matrix(names: list[str], matrix: Mapping[str, Mapping[str, float]]) -> str:
    """The TSV matrix the correlate command prints or writes: a header line, then one line per ranker."""
    rows = [[name, *(f"{matrix[name][col]:.6f}" for col in names)] for name in names]
    return "".join("\t".join(fields) + "\n" for fields in [["ranker", *names], *rows])


def write_correlation_matrix(
    path: str | Path, names: list[str], matrix: Mapping[str, Mapping[str, float]]
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_correlation_matrix(names, matrix))


def parse_correlation_matrix(path: str | Path) -> dict[str, dict[str, float]]:
    """Parse the TSV matrix the correlate command writes: a row per column, values in [0, 1]; blank lines skipped."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = [(line_no, line.rstrip("\n")) for line_no, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise ParseError(str(path), 0, "correlation matrix is empty")
    header_no, header = lines[0][0], lines[0][1].split("\t")
    if len(header) < 2:
        raise ParseError(str(path), header_no, "matrix header needs at least one ranker column")
    names = header[1:]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParseError(str(path), header_no, f"duplicate matrix column {name!r}")
    matrix: dict[str, dict[str, float]] = {}
    for line_no, line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != len(names) + 1:
            raise ParseError(
                str(path), line_no, f"expected {len(names) + 1} fields, got {len(fields)}"
            )
        row = fields[0]
        if row in matrix:
            raise ParseError(str(path), line_no, f"duplicate matrix row {row!r}")
        try:
            matrix[row] = {col: float(v) for col, v in zip(names, fields[1:])}
        except ValueError:
            raise ParseError(str(path), line_no, "bad matrix value") from None
        for col, value in matrix[row].items():
            if not 0.0 <= value <= 1.0:  # false for NaN too
                raise ParseError(str(path), line_no, f"matrix value {value!r} for {col!r} is not in [0, 1]")
    for name in names:
        if name not in matrix:
            raise ParseError(str(path), header_no, f"matrix row {name!r} is missing")
    return matrix


class RankerSpec:
    __slots__ = ("name", "run", "polarity")  # the config keys of a ranker

    def __init__(self, name: str, run: str, polarity: str = POLARITY_SIMILARITY):
        if not name:
            raise ConfigError("ranker name must be non-empty")
        if polarity not in POLARITIES:
            raise ConfigError(f"ranker {name!r}: polarity must be one of {POLARITIES}, got {polarity!r}")
        self.name, self.run, self.polarity = name, run, polarity


class PipelineConfig:
    """Everything the pipeline commands need; loaded from a JSON file.

    Schema (see README for the full description)::

        {
          "rankers": [{"name": ..., "run": ..., "polarity": "similarity"}, ...],
          "depth": 10,
          "comparator": "WGU",
          "strict": false
        }

    A field outside this schema is a ConfigError.
    """

    __slots__ = ("rankers", "depth", "comparator", "strict")  # the config keys

    def __init__(self, rankers: tuple[RankerSpec, ...], depth: int = 10, comparator: str = "WGU", strict: bool = False):
        if not rankers:
            raise ConfigError("config must declare at least one ranker")
        if depth < 1:
            raise ConfigError(f"depth must be >= 1, got {depth}")
        if comparator not in ("MCS", "WGU"):
            raise ConfigError(f"comparator must be MCS or WGU, got {comparator!r}")
        names = [spec.name for spec in rankers]
        if len(set(names)) != len(names):
            raise ConfigError("ranker names must be unique")
        self.rankers, self.depth, self.comparator, self.strict = rankers, depth, comparator, strict

    @property
    def ranker_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.rankers)


def _typed(data: dict, key: str, default: object, kind: type, what: str):
    """``data[key]``, or ``default`` when absent; ConfigError unless its type is exactly ``kind``."""
    value = data.get(key, default)
    if type(value) is not kind:
        raise ConfigError(f"config field {key!r} must be {what}, got {value!r}")
    return value


def _known_fields(data: dict, spec: type, where: str = "") -> None:
    """ConfigError naming the first key of ``data`` that is not one of the ``__slots__`` of ``spec``."""
    unknown = sorted(data.keys() - set(spec.__slots__))
    if unknown:
        raise ConfigError(f"config field {unknown[0]!r}{where} is unknown")


def load_config(path: str | Path) -> PipelineConfig:
    """Read a pipeline config, checking every field's name and JSON type; nothing is coerced."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, RecursionError, json.JSONDecodeError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _known_fields(data, PipelineConfig)
    raw_rankers = data.get("rankers")
    if not isinstance(raw_rankers, list):
        raise ConfigError("config needs a 'rankers' list")
    rankers = []
    base = path.parent
    for entry in raw_rankers:
        if not isinstance(entry, dict) or "name" not in entry or "run" not in entry:
            raise ConfigError("each ranker needs 'name' and 'run' fields")
        _known_fields(entry, RankerSpec, " of a ranker")
        run_path = _typed(entry, "run", None, str, "a string")
        if not Path(run_path).is_absolute():
            run_path = str(base / run_path)
        rankers.append(
            RankerSpec(
                name=_typed(entry, "name", None, str, "a string"),
                run=run_path,
                polarity=_typed(entry, "polarity", POLARITY_SIMILARITY, str, "a string"),
            )
        )
    return PipelineConfig(
        rankers=tuple(rankers),
        depth=_typed(data, "depth", 10, int, "an integer"),
        comparator=data.get("comparator", "WGU"),
        strict=_typed(data, "strict", False, bool, "true or false"),
    )


def load_runs(config: PipelineConfig, depth: int | None = None) -> dict[str, dict[ItemId, ScoredRank]]:
    """Parse every ranker's run file at ``depth``, by default the configured depth."""
    return {
        spec.name: parse_run_file(spec.run, spec.name, spec.polarity, config.depth if depth is None else depth)
        for spec in config.rankers
    }


def rank_sets_from_runs(
    runs: Mapping[str, Mapping[ItemId, ScoredRank]],
    ranker_names: tuple[str, ...],
    strict: bool = True,
) -> dict[ItemId, RankSet]:
    """Group per-ranker runs into one RankSet per query, by assemble_rank_set, in query order.

    In strict mode every ranker must cover every query; in lenient mode a
    query's rank set holds whichever ranks exist (queries with none are
    dropped).
    """
    index = CollectionRankIndex({name: runs.get(name, {}) for name in ranker_names})
    rank_sets = (assemble_rank_set(qid, index, ranker_names, strict) for qid in index.collection_items())
    return {rs.query: rs for rs in rank_sets if rs}
