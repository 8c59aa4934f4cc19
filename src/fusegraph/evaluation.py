"""Retrieval effectiveness: relevance judgments, NDCG@k and the N-S score of a run.

NDCG uses raw relevance grades with a log2(p + 1) discount (for the binary
grades produced by class labels this matches the exponential gain variant).
The N-S score counts relevant items among the first four results, the
convention used with fixed four-item classes.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

from .errors import UnknownQuery
from .model import ItemId, ScoredRank


class Qrels:
    """Relevance judgments: query -> item -> non-negative integer grade; an unlisted item has grade 0."""

    def __init__(self, grades: Mapping[ItemId, Mapping[ItemId, int]]):
        self._grades = {q: dict(docs) for q, docs in grades.items()}
        for q, docs in self._grades.items():
            for doc, grade in docs.items():
                if grade < 0:
                    raise ValueError(f"negative relevance grade for ({q!r}, {doc!r})")

    @classmethod
    def from_class_labels(cls, labels: Mapping[ItemId, str]) -> "Qrels":
        """Grade 1 for every item that shares a query's label, the query's own included.

        The queries of a class share its one map, so memory is linear in the items."""
        classes: dict[str, dict[ItemId, int]] = {}
        for item, label in labels.items():
            classes.setdefault(label, {})[item] = 1
        qrels = cls({})
        qrels._grades = {item: classes[label] for item, label in labels.items()}
        return qrels

    def _judged(self, query: ItemId) -> Mapping[ItemId, int]:
        judged = self._grades.get(query)
        if judged is None:
            raise UnknownQuery(query)
        return judged

    def relevance(self, query: ItemId, item: ItemId) -> int:
        return self._judged(query).get(item, 0)

    def ideal_gains(self, query: ItemId) -> list[int]:
        """All positive grades for the query, sorted descending."""
        return sorted((g for g in self._judged(query).values() if g > 0), reverse=True)


def _dcg(gains: Iterable[int]) -> float:
    return math.fsum(g / math.log2(p + 1) for p, g in enumerate(gains, start=1))


def ndcg_at_k(rank, qrels: Qrels, k: int = 10) -> float:
    """Normalized discounted cumulative gain at cutoff k; 0 when the query
    has no relevant items at all."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not isinstance(rank, ScoredRank):
        raise TypeError("ndcg_at_k needs a ScoredRank (query id required)")
    query, items = rank.query, rank.items()
    gains = [qrels.relevance(query, item) for item in items[:k]]
    ideal = qrels.ideal_gains(query)[:k]
    idcg = _dcg(ideal)
    if idcg == 0:
        return 0.0
    return _dcg(gains) / idcg


def ns_score(rank, qrels: Qrels) -> float:
    """Count of relevant items among the first four results of one query.

    Ranks shorter than four count what exists. The dataset-level N-S score is
    the mean of this over all queries.
    """
    if not isinstance(rank, ScoredRank):
        raise TypeError("ns_score needs a ScoredRank (query id required)")
    return float(
        sum(1 for item in rank.items()[:4] if qrels.relevance(rank.query, item) > 0)
    )


class EvalReport(NamedTuple):
    """Per-query and aggregate effectiveness for one run under one metric."""

    metric: str
    per_query: dict[ItemId, float]
    mean: float


def evaluate_runs(
    runs: Mapping[ItemId, ScoredRank],
    qrels: Qrels,
    metric: str = "ndcg",
    k: int | None = None,
) -> EvalReport:
    """Score every query in ``runs`` with NDCG@k or the N-S score.

    ``k`` defaults to 10 for NDCG; N-S always counts the first 4 results, so
    for it ``k`` must be None or 4. A ``k`` below 1 is a ValueError.
    """
    metric = metric.lower()
    if metric not in ("ndcg", "ns"):
        raise ValueError(f"unknown metric {metric!r}; expected 'ndcg' or 'ns'")
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if metric == "ns" and k not in (None, 4):
        raise ValueError(f"the N-S score counts the first 4 results; k must be 4 or unset, got {k}")
    k = 10 if k is None else k
    per_query = {
        qid: ndcg_at_k(runs[qid], qrels, k) if metric == "ndcg" else ns_score(runs[qid], qrels) for qid in sorted(runs)
    }
    if not per_query:
        raise ValueError("no queries to evaluate")
    label = f"ndcg@{k}" if metric == "ndcg" else "ns"
    return EvalReport(label, per_query, math.fsum(per_query.values()) / len(per_query))
