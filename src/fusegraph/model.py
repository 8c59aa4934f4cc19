"""Core domain types: scored ranks, rank sets, and the collection rank index.

A ScoredRank is every rank in the package: a ranker's input rank, a
normalized rank, and the fused rank that fuse_query or a baseline returns.
Items are identified by opaque non-empty strings. Positions are 1-indexed
everywhere. After construction nothing in the package changes these objects'
fields; ``ScoredRank.positions`` is derived from them on first read, and kept.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import InvalidRankSet, MissingRank

ItemId = str


class ScoredEntry(NamedTuple):
    item: ItemId
    score: float


class ScoredRank:
    """An ordered list of (item, score) pairs for one query under one ranker.

    ``depth`` is the cut-off the rank was built with; a rank may be shorter
    than its depth (real run files truncate), never longer.
    """

    def __init__(self, query: ItemId, ranker: str, entries: Iterable[tuple[ItemId, float]], depth: int):
        if not query:
            raise ValueError("query id must be non-empty")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        entries = tuple(ScoredEntry(item, float(score)) for item, score in entries)
        if len(entries) > depth:
            raise ValueError(f"rank for {query!r} has {len(entries)} entries, depth is {depth}")
        seen = set()
        for entry in entries:
            if not entry.item:
                raise ValueError("item id must be non-empty")
            if entry.item in seen:
                raise ValueError(f"duplicate item {entry.item!r} in rank for {query!r}")
            seen.add(entry.item)
            if not math.isfinite(entry.score):
                raise ValueError(f"score for {entry.item!r} must be finite, got {entry.score}")
        self.query, self.ranker, self.entries, self.depth = query, ranker, entries, depth

    def __eq__(self, other):
        if type(other) is not ScoredRank:
            return NotImplemented
        return (self.query, self.ranker, self.entries, self.depth) == (
            other.query, other.ranker, other.entries, other.depth
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ScoredEntry]:
        return iter(self.entries)

    @cached_property
    def positions(self) -> Mapping[ItemId, int]:
        """Item -> 1-indexed position, for O(1) lookups."""
        return {entry.item: pos for pos, entry in enumerate(self.entries, start=1)}

    def items(self) -> tuple[ItemId, ...]:
        return tuple(entry.item for entry in self.entries)


def unchecked_rank(query: ItemId, ranker: str, entries: Iterable[tuple[ItemId, float]], depth: int) -> ScoredRank:
    """A ScoredRank of (item, float score) ``entries`` built without its checks, which the caller vouches for."""
    rank = object.__new__(ScoredRank)
    entries = tuple(map(tuple.__new__, itertools.repeat(ScoredEntry), entries))
    rank.__dict__.update(query=query, ranker=ranker, entries=entries, depth=depth)
    return rank


class RankSet:
    """The m ranks produced for one query, one per ranker."""

    def __init__(self, query: ItemId, ranks: Iterable[ScoredRank]):
        self.query, self.ranks = query, tuple(ranks)
        names = set()
        for rank in self.ranks:
            if rank.query != query:
                raise InvalidRankSet(f"rank for query {rank.query!r} placed in rank set for {query!r}")
            if rank.ranker in names:
                raise InvalidRankSet(f"duplicate ranker {rank.ranker!r} in rank set")
            names.add(rank.ranker)

    def __eq__(self, other):
        if type(other) is not RankSet:
            return NotImplemented
        return (self.query, self.ranks) == (other.query, other.ranks)

    def __len__(self) -> int:
        return len(self.ranks)

    def __iter__(self) -> Iterator[ScoredRank]:
        return iter(self.ranks)

    @property
    def ranker_names(self) -> tuple[str, ...]:
        return tuple(rank.ranker for rank in self.ranks)


class CollectionRankIndex:
    """Per ranker, the precomputed rank of every collection item as a query.

    Built once and then read-only; the offline stage iterates it, and the
    online stage reads every rank from it but the query's own, which travel
    with the query.
    """

    def __init__(self, ranks_by_ranker: Mapping[str, Mapping[ItemId, ScoredRank]]):
        store: dict[str, dict[ItemId, ScoredRank]] = {}
        for ranker, per_query in ranks_by_ranker.items():
            bucket: dict[ItemId, ScoredRank] = {}
            for query, rank in per_query.items():
                if rank.query != query:
                    raise ValueError(
                        f"rank stored under query {query!r} has query {rank.query!r}"
                    )
                if rank.ranker != ranker:
                    raise ValueError(
                        f"rank stored under ranker {ranker!r} has ranker {rank.ranker!r}"
                    )
                bucket[query] = rank
            store[ranker] = bucket
        self._ranks = store

    @property
    def rankers(self) -> tuple[str, ...]:
        return tuple(self._ranks)

    def queries(self, ranker: str) -> tuple[ItemId, ...]:
        return tuple(self._ranks.get(ranker, ()))

    def collection_items(self) -> tuple[ItemId, ...]:
        """Sorted union of all query ids across rankers."""
        items: set[ItemId] = set()
        for per_query in self._ranks.values():
            items.update(per_query)
        return tuple(sorted(items))

    def get(self, ranker: str, query: ItemId) -> Optional[ScoredRank]:
        per_query = self._ranks.get(ranker)
        return None if per_query is None else per_query.get(query)

    def require(self, ranker: str, query: ItemId) -> ScoredRank:
        rank = self.get(ranker, query)
        if rank is None:
            raise MissingRank(ranker, query)
        return rank


def assemble_rank_set(
    query: ItemId, index: CollectionRankIndex, rankers: Iterable[str], strict: bool = True
) -> RankSet:
    """Collect the stored ranks of ``query`` into a RankSet, in ranker order.

    In strict mode, raises MissingRank for the first requested ranker that
    lacks a rank for the query; in lenient mode that ranker is skipped, so
    the set may be empty.
    """
    lookup = index.require if strict else index.get
    ranks = (lookup(ranker, query) for ranker in rankers)
    return RankSet(query, tuple(rank for rank in ranks if rank is not None))
