"""Rank normalization: neighborhood-aware repositioning plus score rescaling.

Repositioning sorts a rank's entries by a distance that rewards items ranking
each other back (mutual plus reciprocal neighborhood). Rescaling then replaces
raw scores with a uniform grid from 1.0 (top) down to 0.1 (position L), which
is what the fusion-graph builder consumes. The grid depends on L alone, so a
normalized rank is an item order, and gridded_rank is the one place that
builds it.

Positions are always read from the original, pre-repositioning index; the
output rank never feeds back into the distance computation, so repeated
normalization with the same index is idempotent in item order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyRank, InvalidRankSet
from .model import (
    CollectionRankIndex,
    ItemId,
    RankLookup,
    RankSet,
    ScoredEntry,
    ScoredRank,
)


@dataclass(frozen=True)
class NormalizationParams:
    """The method's one parameter, the cut-off depth L.

    An item absent from a rank (or whose own rank is missing) has no position;
    the sentinel L + 1 stands in for it, penalizing absence minimally and
    uniformly.
    """

    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")

    @property
    def missing_position_sentinel(self) -> int:
        return self.depth + 1


def delta(
    i: ItemId,
    j: ItemId,
    index: RankLookup,
    ranker: str,
    params: NormalizationParams,
) -> int:
    """Neighborhood-aware distance between items i and j under one ranker.

    Sums the position of j in i's rank and the position of i in j's rank
    (mutual neighborhood), plus the maximum of the two (reciprocal
    neighborhood). Undefined positions use the sentinel. Symmetric whenever
    both positions exist.

    Raises MissingRank if no rank is stored for i; a missing rank for j only
    triggers the sentinel.
    """
    sentinel = params.missing_position_sentinel
    p_ij = index.require(ranker, i).positions.get(j, sentinel)
    rank_j = index.get(ranker, j)
    p_ji = sentinel if rank_j is None else rank_j.positions.get(i, sentinel)
    return p_ij + p_ji + max(p_ij, p_ji)


def grid_score(pos: int, depth: int) -> float:
    """The rescaled score of position ``pos``: 1 - 0.9 * (pos - 1) / (L - 1).

    The endpoints are pinned, so position 1 is exactly 1.0 and position L
    exactly 0.1.
    """
    if pos == 1:
        return 1.0
    if pos == depth:
        return 0.1
    return 1.0 - 0.9 * (pos - 1) / (depth - 1)


@functools.cache
def _grid(depth: int) -> tuple[float, ...]:
    """grid_score of positions 1 to L: the scores every normalized rank of depth L shares."""
    return tuple(grid_score(pos, depth) for pos in range(1, depth + 1))


def gridded_rank(query: ItemId, ranker: str, items: Iterable[ItemId], depth: int) -> ScoredRank:
    """The normalized rank of ``items`` in that order: position p scores grid_score(p, L).

    The grid depends on L, not on the actual length, so a truncated rank
    never reaches 0.1. The ids always come from a checked rank or a checked
    index record, at most L of them, so the constructor's checks are skipped.
    """
    rank = object.__new__(ScoredRank)
    rank.__dict__.update(
        query=query,
        ranker=ranker,
        entries=tuple(map(ScoredEntry, items, _grid(depth))),
        depth=depth,
    )
    return rank


def normalize_rank(
    rank: ScoredRank, index: RankLookup, params: NormalizationParams
) -> ScoredRank:
    """Reposition then rescale one rank.

    The rank is cut to its top-L items, which are stable-sorted by ascending
    delta (ties keep their original order) and given the grid's scores.
    """
    if not rank.entries:
        raise EmptyRank(f"cannot rescale empty rank for query {rank.query!r}")
    kept = rank.items()[: params.depth]
    deltas = {item: delta(rank.query, item, index, rank.ranker, params) for item in kept}
    reordered = sorted(kept, key=deltas.__getitem__)
    return gridded_rank(rank.query, rank.ranker, reordered, params.depth)


def normalize_rank_set(
    rs: RankSet, index: RankLookup, params: NormalizationParams
) -> RankSet:
    """Normalize every rank in the set; the result feeds the graph builder."""
    if len(rs) == 0:
        raise InvalidRankSet(f"rank set for {rs.query!r} has no ranks")
    return RankSet(rs.query, tuple(normalize_rank(rank, index, params) for rank in rs))


def normalize_collection(
    index: CollectionRankIndex,
    rankers: tuple[str, ...] | list[str],
    params: NormalizationParams,
) -> CollectionRankIndex:
    """Normalize every stored rank of the chosen rankers against ``index``.

    Every rank is repositioned against the same original index, so the result
    does not depend on processing order.
    """
    normalized: dict[str, dict[ItemId, ScoredRank]] = {}
    for ranker in rankers:
        bucket: dict[ItemId, ScoredRank] = {}
        for query in index.queries(ranker):
            rank = index.get(ranker, query)
            assert rank is not None
            bucket[query] = normalize_rank(rank, index, params)
        normalized[ranker] = bucket
    return CollectionRankIndex(normalized)

