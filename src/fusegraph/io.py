"""The line formats of run files and judgments.

Run files are standard TREC format, one result per line::

    qid Q0 docid rank score tag

Per query, the rank column must be 1..k without gaps and docids must be
unique. Each ranker declares its score polarity: distance scores d are
converted to similarities 1 / (1 + d) at parse time, so "most similar" sorts
first everywhere downstream.
"""

from __future__ import annotations

import importlib
import math
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from .errors import ConfigError, DuplicateDoc, ParseError, RankGap
from .model import ItemId, ScoredRank, unchecked_rank

if TYPE_CHECKING:  # the judgment parsers import Qrels: the commands without judgments load no evaluation
    from .evaluation import Qrels

POLARITY_SIMILARITY = "similarity"
POLARITY_DISTANCE = "distance"
POLARITIES = (POLARITY_SIMILARITY, POLARITY_DISTANCE)

# Names that live in .config and are also looked up here; config is imported on the first such lookup, not with io.
_HOMES = {"load_config": "config", "rank_sets_from_runs": "config"}


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__package__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fields(path: Path, count: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each non-blank whitespace-separated line.

    Raises ParseError on a line that does not hold exactly ``count`` fields, and on a file that is not UTF-8.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                fields = line.split()
                if not fields:
                    continue
                if len(fields) != count:
                    raise ParseError(str(path), line_no, f"expected {count} fields, got {len(fields)}")
                yield line_no, fields
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> ParseError:
    """The error for a file that is not UTF-8 text, at line 0: the decoder reads ahead of the line it yields."""
    return ParseError(str(path), 0, f"not UTF-8 text ({exc.reason})")


def _number(kind: Callable[[str], float], text: str, path: Path, line_no: int, what: str) -> float:
    """``kind(text)``, or ParseError ``bad <what> <text>`` when it is not a number."""
    try:
        return kind(text)
    except ValueError:
        raise ParseError(str(path), line_no, f"bad {what} {text!r}") from None


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
