"""Core domain types: scored and fused ranks, rank sets, and the collection
rank index.

Items are identified by opaque non-empty strings. Positions are 1-indexed
everywhere. All types are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import InvalidRankSet, MissingRank

ItemId = str


class ScoredEntry(NamedTuple):
    item: ItemId
    score: float


@dataclass(frozen=True)
class ScoredRank:
    """An ordered list of (item, score) pairs for one query under one ranker.

    ``depth`` is the cut-off the rank was built with; a rank may be shorter
    than its depth (real run files truncate), never longer.
    """

    query: ItemId
    ranker: str
    entries: tuple[ScoredEntry, ...]
    depth: int

    def __post_init__(self):
        if not self.query:
            raise ValueError("query id must be non-empty")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        entries = tuple(ScoredEntry(item, float(score)) for item, score in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) > self.depth:
            raise ValueError(
                f"rank for {self.query!r} has {len(entries)} entries, depth is {self.depth}"
            )
        seen = set()
        for entry in entries:
            if not entry.item:
                raise ValueError("item id must be non-empty")
            if entry.item in seen:
                raise ValueError(f"duplicate item {entry.item!r} in rank for {self.query!r}")
            seen.add(entry.item)
            if not math.isfinite(entry.score) or entry.score < 0:
                raise ValueError(
                    f"score for {entry.item!r} must be finite and >= 0, got {entry.score}"
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


@dataclass(frozen=True)
class FusedRank:
    """The final fused rank for one query.

    Entries are (item, value) in rank order. For graph retrieval the values
    are distances and ascend; baseline aggregators reuse the type with
    descending scores and set ``higher_is_better``.
    """

    query: ItemId
    entries: tuple[tuple[ItemId, float], ...]
    higher_is_better: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((item, float(v)) for item, v in self.entries)
        )
        seen = set()
        for item, _ in self.entries:
            if item in seen:
                raise ValueError(f"duplicate item {item!r} in fused rank")
            seen.add(item)

    def items(self) -> tuple[ItemId, ...]:
        return tuple(item for item, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RankSet:
    """The m ranks produced for one query, one per ranker."""

    query: ItemId
    ranks: tuple[ScoredRank, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(self.ranks))
        names = set()
        for rank in self.ranks:
            if rank.query != self.query:
                raise InvalidRankSet(
                    f"rank for query {rank.query!r} placed in rank set for {self.query!r}"
                )
            if rank.ranker in names:
                raise InvalidRankSet(f"duplicate ranker {rank.ranker!r} in rank set")
            names.add(rank.ranker)

    def __len__(self) -> int:
        return len(self.ranks)

    def __iter__(self) -> Iterator[ScoredRank]:
        return iter(self.ranks)

    @property
    def ranker_names(self) -> tuple[str, ...]:
        return tuple(rank.ranker for rank in self.ranks)


class RankLookup:
    """Read-only lookup interface shared by the index and query overlays."""

    def get(self, ranker: str, query: ItemId) -> Optional[ScoredRank]:
        raise NotImplementedError

    def require(self, ranker: str, query: ItemId) -> ScoredRank:
        rank = self.get(ranker, query)
        if rank is None:
            raise MissingRank(ranker, query)
        return rank


@dataclass(frozen=True)
class OverlayRankLookup(RankLookup):
    """View of ``base`` with ``extra``'s ranks taking precedence.

    Used for online queries whose ranks are not part of the collection;
    the underlying index is never mutated.
    """

    base: RankLookup
    extra: RankSet
    _by_ranker: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_by_ranker", {rank.ranker: rank for rank in self.extra.ranks}
        )

    def get(self, ranker: str, query: ItemId) -> Optional[ScoredRank]:
        rank = self._by_ranker.get(ranker)
        if rank is not None and query == self.extra.query:
            return rank
        return self.base.get(ranker, query)


class CollectionRankIndex(RankLookup):
    """Per ranker, the precomputed rank of every collection item as a query.

    Built once and then read-only; the offline stage iterates it, the online
    stage consults it through an overlay carrying the query's own ranks.
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


def assemble_rank_set(
    query: ItemId, index: RankLookup, rankers: Iterable[str], strict: bool = True
) -> RankSet:
    """Collect the stored ranks of ``query`` into a RankSet, in ranker order.

    In strict mode, raises MissingRank for the first requested ranker that
    lacks a rank for the query; in lenient mode that ranker is skipped, so
    the set may be empty.
    """
    lookup = index.require if strict else index.get
    ranks = (lookup(ranker, query) for ranker in rankers)
    return RankSet(query, tuple(rank for rank in ranks if rank is not None))
