"""Exception types shared across the package.

Every error raised by the library derives from :class:`FusionError`, so the
CLI can map any failure to a machine-readable category (the class name).
"""

from __future__ import annotations


class FusionError(Exception):
    """Base class for all library errors."""


class MissingRank(FusionError):
    """A required rank is absent from the collection index."""

    def __init__(self, ranker: str, query: str):
        super().__init__(f"no rank stored for query {query!r} under ranker {ranker!r}")
        self.ranker = ranker
        self.query = query


class InvalidRankSet(FusionError):
    """A rank set violates its structural invariants (e.g. zero rankers)."""


class EmptyRank(FusionError):
    """A rank with no entries reached an operation that needs at least one."""


class EmptyGraph(FusionError):
    """A fusion graph with no vertices reached an operation that forbids it."""


class MalformedGraphRecord(FusionError):
    """A serialized fusion-graph record could not be parsed."""


class BothEmpty(FusionError):
    """Both graphs in a distance computation are empty (0/0)."""


class RankerMismatch(FusionError):
    """Query rank set disagrees with the index on rankers or depth."""


class TooManyItems(FusionError):
    """Exact Kemeny aggregation received more items than its cap allows."""


class NotEnoughRankers(FusionError):
    """A ranker-selection strategy needs more rankers than were provided."""


class UnknownQuery(FusionError):
    """Relevance judgments do not cover the requested query."""

    def __init__(self, query: str):
        super().__init__(f"no relevance judgments for query {query!r}")
        self.query = query


class QuerySetMismatch(FusionError):
    """Two per-query collections do not cover the same query set."""


class LengthMismatch(FusionError):
    """Paired lists passed to a statistical test differ in length."""


class ParseError(FusionError):
    """A run/qrels/config file line could not be parsed."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class DuplicateDoc(FusionError):
    """A run file lists the same document twice for one query."""

    def __init__(self, qid: str, docid: str):
        super().__init__(f"duplicate document {docid!r} for query {qid!r}")
        self.qid = qid
        self.docid = docid


class RankGap(FusionError):
    """A run file's rank column is not 1..k without gaps for some query."""

    def __init__(self, qid: str, detail: str = ""):
        msg = f"rank positions for query {qid!r} are not contiguous from 1"
        super().__init__(f"{msg} ({detail})" if detail else msg)
        self.qid = qid


class ConfigError(FusionError):
    """Pipeline configuration file is invalid."""
