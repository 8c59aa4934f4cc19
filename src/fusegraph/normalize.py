"""Rank normalization: neighborhood-aware repositioning plus score rescaling.

Repositioning sorts a rank's entries by a distance that rewards items ranking
each other back (mutual plus reciprocal neighborhood). Rescaling then replaces
raw scores with a uniform grid from 1.0 (top) down to 0.1 (position L), which
is what the fusion-graph builder consumes. L, the method's one parameter, is
passed as the int ``depth``. The grid depends on L alone, so a normalized rank
is an item order, and gridded_rank is the one place that builds it.

Positions are always read from the original, pre-repositioning index; the
output rank never feeds back into the distance computation, so repeated
normalization with the same index is idempotent in item order.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .errors import EmptyRank, InvalidRankSet
from .model import CollectionRankIndex, ItemId, RankLookup, RankSet, ScoredRank, unchecked_rank


def delta(i: ItemId, j: ItemId, index: RankLookup, ranker: str, depth: int) -> int:
    """Neighborhood-aware distance between items i and j under one ranker, at cut-off depth L.

    Sums the position of j in i's rank and the position of i in j's rank
    (mutual neighborhood), plus the maximum of the two (reciprocal
    neighborhood). An undefined position (an item absent from a rank, or
    whose own rank is missing) counts as the sentinel L + 1, which penalizes
    absence minimally and uniformly. Symmetric whenever both positions exist.

    Raises MissingRank if no rank is stored for i; a missing rank for j only
    triggers the sentinel.
    """
    sentinel = depth + 1
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
def _grid(depth: int, length: int) -> tuple[float, ...]:
    """grid_score of positions 1 to ``length`` at depth L, so a short rank at a huge L costs little."""
    return tuple(grid_score(pos, depth) for pos in range(1, length + 1))


def gridded_rank(query: ItemId, ranker: str, items: Sequence[ItemId], depth: int) -> ScoredRank:
    """The normalized rank of ``items`` in that order: position p scores grid_score(p, L).

    The grid depends on L, not on the actual length, so a truncated rank
    never reaches 0.1; only its own positions' scores are built. The ids
    always come from a checked rank or a checked index record, at most L of
    them, so the constructor's checks are skipped.
    """
    return unchecked_rank(query, ranker, zip(items, _grid(depth, len(items))), depth)


def normalize_rank(rank: ScoredRank, index: RankLookup, depth: int) -> ScoredRank:
    """Reposition then rescale one rank at cut-off depth L, which must be at least 1.

    The rank is cut to its top-L items, which are stable-sorted by ascending
    delta (ties keep their original order) and given the grid's scores.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not rank.entries:
        raise EmptyRank(f"cannot rescale empty rank for query {rank.query!r}")
    kept = rank.items()[:depth]
    deltas = {item: delta(rank.query, item, index, rank.ranker, depth) for item in kept}
    reordered = sorted(kept, key=deltas.__getitem__)
    return gridded_rank(rank.query, rank.ranker, reordered, depth)


def normalize_rank_set(rs: RankSet, index: RankLookup, depth: int) -> RankSet:
    """Normalize every rank in the set; the result feeds the graph builder."""
    if len(rs) == 0:
        raise InvalidRankSet(f"rank set for {rs.query!r} has no ranks")
    return RankSet(rs.query, tuple(normalize_rank(rank, index, depth) for rank in rs))


def normalize_collection(
    index: CollectionRankIndex, rankers: tuple[str, ...] | list[str], depth: int
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
            bucket[query] = normalize_rank(rank, index, depth)
        normalized[ranker] = bucket
    return CollectionRankIndex(normalized)
