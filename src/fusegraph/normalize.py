"""Rank normalization: neighborhood-aware repositioning plus score rescaling.

Repositioning sorts a rank's entries by a distance that rewards items ranking
each other back (mutual plus reciprocal neighborhood). Rescaling then replaces
raw scores with a uniform grid from 1.0 (top) down to 0.1 (position L), which
is what the fusion-graph builder consumes.

Positions are always read from the original, pre-repositioning index; the
output rank never feeds back into the distance computation, so repeated
normalization with the same index is idempotent in item order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyRank, InvalidRankSet
from .model import (
    CollectionRankIndex,
    ItemId,
    RankLookup,
    RankSet,
    ScoredEntry,
    ScoredRank,
    position_of,
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


def _position_or_sentinel(
    rank: ScoredRank | None, item: ItemId, params: NormalizationParams
) -> int:
    if rank is None:
        return params.missing_position_sentinel
    pos = position_of(rank, item)
    return params.missing_position_sentinel if pos is None else pos


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
    rank_i = index.require(ranker, i)
    p_ij = _position_or_sentinel(rank_i, j, params)
    p_ji = _position_or_sentinel(index.get(ranker, j), i, params)
    return p_ij + p_ji + max(p_ij, p_ji)


def reposition_rank(
    rank: ScoredRank, index: RankLookup, params: NormalizationParams
) -> ScoredRank:
    """Stable-sort the top-L entries of ``rank`` by ascending delta.

    The rank is first cut to the top-L positions, then reordered; ties keep
    their original relative order. Scores are carried along unchanged (they
    are superseded by rescale_scores immediately after).
    """
    kept = rank.entries[: params.depth]
    deltas = {
        entry.item: delta(rank.query, entry.item, index, rank.ranker, params)
        for entry in kept
    }
    reordered = sorted(kept, key=lambda entry: deltas[entry.item])
    return ScoredRank(rank.query, rank.ranker, tuple(reordered), params.depth)


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


def rescale_scores(rank: ScoredRank, params: NormalizationParams) -> ScoredRank:
    """Replace scores with the uniform grid 1.0 down to 0.1 over L positions.

    Position p gets grid_score(p, L). The grid depends on L, not on the
    actual kept length, so a truncated rank never reaches 0.1.
    """
    if not rank.entries:
        raise EmptyRank(f"cannot rescale empty rank for query {rank.query!r}")
    rescaled = tuple(
        ScoredEntry(entry.item, grid_score(pos, params.depth))
        for pos, entry in enumerate(rank.entries, start=1)
    )
    return ScoredRank(rank.query, rank.ranker, rescaled, params.depth)


def normalize_rank(
    rank: ScoredRank, index: RankLookup, params: NormalizationParams
) -> ScoredRank:
    """Reposition then rescale one rank."""
    return rescale_scores(reposition_rank(rank, index, params), params)


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

