"""Rank normalization: neighborhood-aware repositioning plus score rescaling.

Repositioning sorts a rank's entries by a distance that rewards items ranking
each other back (mutual plus reciprocal neighborhood). Rescaling then replaces
raw scores with a uniform grid from 1.0 (top) down to 0.1 (position L), which
is what the fusion-graph builder consumes. L, the method's one parameter, is
passed as the int ``depth``. The grid depends on L alone, so a normalized rank
is an item order, and gridded_rank is the one place that builds it.

A rank is repositioned by its own positions and its items' ranks in the
index, which need not hold a rank of its query, so a held-out query's ranks
normalize as they are. A rank is read as given: normalizing a normalized rank
again may reorder it.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .errors import EmptyRank, InvalidRankSet
from .model import CollectionRankIndex, ItemId, RankSet, ScoredRank, unchecked_rank


def delta(rank: ScoredRank, j: ItemId, index: CollectionRankIndex, depth: int) -> int:
    """Neighborhood-aware distance between i, the query of ``rank``, and item j, at cut-off depth L.

    Sums the position of j in i's rank, ``rank`` itself, and the position of
    i in j's rank, read from ``index`` unless j is i (mutual neighborhood),
    plus the maximum of the two (reciprocal neighborhood). An undefined
    position (an item absent from a rank, or whose own rank is missing)
    counts as the sentinel L + 1, which penalizes absence minimally and
    uniformly. Symmetric whenever both positions exist.
    """
    sentinel = depth + 1
    p_ij = rank.positions.get(j, sentinel)
    rank_j = rank if j == rank.query else index.get(rank.ranker, j)
    p_ji = sentinel if rank_j is None else rank_j.positions.get(rank.query, sentinel)
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


def normalize_rank(rank: ScoredRank, index: CollectionRankIndex, depth: int) -> ScoredRank:
    """Reposition then rescale one rank at cut-off depth L, which must be at least 1.

    The rank is cut to its top-L items, which are stable-sorted by ascending
    delta (ties keep their original order) and given the grid's scores.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not rank.entries:
        raise EmptyRank(f"cannot rescale empty rank for query {rank.query!r}")
    kept = rank.items()[:depth]
    deltas = {item: delta(rank, item, index, depth) for item in kept}
    reordered = sorted(kept, key=deltas.__getitem__)
    return gridded_rank(rank.query, rank.ranker, reordered, depth)


def normalize_rank_set(rs: RankSet, index: CollectionRankIndex, depth: int) -> RankSet:
    """Normalize every rank in the set against ``index``, which need not hold them; the result feeds the graph builder."""
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
    return CollectionRankIndex({
        ranker: {query: normalize_rank(index.require(ranker, query), index, depth) for query in index.queries(ranker)}
        for ranker in rankers
    })
