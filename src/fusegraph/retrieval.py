"""The composite ranker: offline fusion-graph index, online graph retrieval.

Offline, every collection item is turned into a normalized fusion graph.
Online, a query's ranks are normalized the same way, its graph is built on
the fly, and collection items are ranked by ascending graph distance (MCS or
WGU). Ties are broken by ascending item id so runs are reproducible.

The index directory holds a manifest, the serialized graphs, and the raw
per-ranker rank orders of the collection (raw positions are what the online
normalization of an incoming query needs). Everything downstream is
recomputed deterministically from those.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable

from .errors import MalformedGraphRecord, MissingRank, RankerMismatch
from .graph import BuildStats, FusionGraph, build_fusion_graph, deserialize_graph, serialize_graph
from .model import (
    CollectionRankIndex,
    FusedRank,
    ItemId,
    RankLookup,
    RankSet,
    ScoredRank,
    assemble_rank_set,
)
from .normalize import (
    LazyNormalizedIndex,
    NormalizationParams,
    normalize_collection,
    normalize_rank_set,
)
from .similarity import dist_mcs, dist_wgu

logger = logging.getLogger(__name__)

MANIFEST_VERSION = 3
MANIFEST_NAME = "manifest.json"
INDEX_FILES = {"graphs": "graphs.jsonl", "ranks": "collection_ranks.jsonl"}

COMPARATORS: dict[str, Callable[[FusionGraph, FusionGraph], float]] = {
    "MCS": dist_mcs,
    "WGU": dist_wgu,
}


@dataclass
class FusionGraphIndex:
    """Normalized fusion graphs for the whole response set."""

    graphs: dict[ItemId, FusionGraph]
    params: NormalizationParams
    ranker_names: tuple[str, ...]
    comparator: str

    def __post_init__(self):
        if self.comparator not in COMPARATORS:
            raise ValueError(
                f"comparator must be one of {sorted(COMPARATORS)}, got {self.comparator!r}"
            )

    @property
    def distance(self) -> Callable[[FusionGraph, FusionGraph], float]:
        return COMPARATORS[self.comparator]

    @cached_property
    def vertex_owners(self) -> dict[ItemId, set[ItemId]]:
        """Inverted map vertex label -> items whose graphs contain it."""
        owners: dict[ItemId, set[ItemId]] = {}
        for item, graph in self.graphs.items():
            for label in graph.vertices:
                owners.setdefault(label, set()).add(item)
        return owners


def index_collection(
    index: CollectionRankIndex,
    rankers: Iterable[str],
    params: NormalizationParams,
    comparator: str = "WGU",
    strict: bool = False,
    stats: BuildStats | None = None,
) -> FusionGraphIndex:
    """Build one normalized fusion graph per collection item.

    In strict mode every item must have a rank under every chosen ranker;
    in lenient mode missing ranks are skipped and an item with no ranks at
    all is left out of the graph index (logged).
    """
    rankers = tuple(rankers)
    normalized = normalize_collection(index, rankers, params)
    graphs: dict[ItemId, FusionGraph] = {}
    for item in index.collection_items():
        available = [r for r in rankers if normalized.get(r, item) is not None]
        if strict and len(available) < len(rankers):
            missing = next(r for r in rankers if normalized.get(r, item) is None)
            raise MissingRank(missing, item)
        if not available:
            logger.warning("item %s has no ranks under any chosen ranker; skipped", item)
            continue
        rs = assemble_rank_set(item, normalized, available)
        graphs[item] = build_fusion_graph(rs, normalized, strict=strict, stats=stats)
    return FusionGraphIndex(graphs, params, rankers, comparator)


def candidate_scope(fg_index: FusionGraphIndex, query_graph: FusionGraph) -> set[ItemId]:
    """Items whose graphs share at least one vertex label with the query's.

    A shared edge implies shared endpoints, so every item outside the scope
    has an empty common subgraph and distance 1.
    """
    owners = fg_index.vertex_owners
    return set().union(*(owners.get(label, ()) for label in query_graph.vertices))


def build_query_graph(
    query_ranks: RankSet,
    fg_index: FusionGraphIndex,
    index: RankLookup,
    normalized_index: RankLookup | None = None,
) -> FusionGraph:
    """Normalize a query's ranks and build its fusion graph on the fly.

    ``index`` is the raw collection index; the query's own (raw) ranks are
    overlaid on it, so out-of-collection queries work as long as their m
    ranks over the collection are supplied. When ``normalized_index`` is not
    given, the neighbor ranks the query needs are normalized from the raw
    index on demand.
    """
    params = fg_index.params
    if set(query_ranks.ranker_names) != set(fg_index.ranker_names):
        raise RankerMismatch(
            f"query rankers {sorted(query_ranks.ranker_names)} != "
            f"index rankers {sorted(fg_index.ranker_names)}"
        )
    for rank in query_ranks:
        if rank.depth != params.depth:
            raise RankerMismatch(
                f"query rank under {rank.ranker!r} has depth {rank.depth}, "
                f"index uses L={params.depth}"
            )
    raw = index.overlay(query_ranks)
    normalized_query = normalize_rank_set(query_ranks, raw, params)
    if normalized_index is None:
        normalized_index = LazyNormalizedIndex(index, params)
    lookup = normalized_index.overlay(normalized_query)
    return build_fusion_graph(normalized_query, lookup)


def fuse_query(
    query_ranks: RankSet,
    fg_index: FusionGraphIndex,
    index: RankLookup,
    normalized_index: RankLookup | None = None,
    exclude_self: bool = False,
) -> FusedRank:
    """Rank the indexed collection by graph distance to the query's graph.

    Only items sharing a vertex label with the query's graph are scored, so
    neither graph of a scored pair is empty. Every other item has distance 1,
    and only the first L of them by id can enter the result. Distances are
    sorted ascending with ties broken by item id, then cut to L.
    """
    query_graph = build_query_graph(query_ranks, fg_index, index, normalized_index)
    depth, distance = fg_index.params.depth, fg_index.distance
    excluded = {query_ranks.query} if exclude_self else set()
    scope = candidate_scope(fg_index, query_graph) - excluded
    scored = [(item, distance(query_graph, fg_index.graphs[item])) for item in sorted(scope)]
    unscored = (i for i in sorted(fg_index.graphs) if i not in scope and i not in excluded)
    scored.extend((item, 1.0) for item in itertools.islice(unscored, depth))
    scored.sort(key=lambda pair: (pair[1], pair[0]))
    return FusedRank(query_ranks.query, tuple(scored[:depth]))


def save_index(directory: str | Path, fg_index: FusionGraphIndex, raw_index: CollectionRankIndex) -> None:
    """Persist the graph index plus the raw rank orders it was built from.

    File contents are fully sorted, so rebuilding from identical inputs is
    byte-identical. Every file is first written in full under a temporary
    name in ``directory``; only then are they renamed into place, the
    manifest (which records each data file's size) last, so a failed save
    leaves an older index there intact.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    contents = {
        "graphs": (serialize_graph(fg_index.graphs[item]) + "\n" for item in sorted(fg_index.graphs)),
        "ranks": _rank_lines(fg_index, raw_index),
    }
    staged: list[tuple[Path, Path]] = []
    try:
        sizes = {
            role: _stage(directory / INDEX_FILES[role], lines, staged)
            for role, lines in contents.items()
        }
        manifest = {
            "v": MANIFEST_VERSION,
            "rankers": list(fg_index.ranker_names),
            "L": fg_index.params.depth,
            "comparator": fg_index.comparator,
            "graph_count": len(fg_index.graphs),
            "files": INDEX_FILES,
            "bytes": sizes,
        }
        _stage(directory / MANIFEST_NAME, [json.dumps(manifest, indent=2, sort_keys=True) + "\n"], staged)
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _stage(path: Path, lines: Iterable[str], staged: list[tuple[Path, Path]]) -> int:
    """Write ``lines`` durably to a temporary sibling of ``path``; return its size."""
    tmp = path.with_name(path.name + ".tmp")
    staged.append((tmp, path))
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
        fh.flush()
        os.fsync(fh.fileno())
    return tmp.stat().st_size


def _rank_lines(fg_index: FusionGraphIndex, raw_index: CollectionRankIndex) -> Iterable[str]:
    for ranker in fg_index.ranker_names:
        for query in sorted(raw_index.queries(ranker)):
            rank = raw_index.get(ranker, query)
            assert rank is not None
            record = {
                "ranker": ranker,
                "query": query,
                "items": list(rank.items()),
                "scores": [entry.score for entry in rank],
            }
            yield json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"


MANIFEST_FIELDS: dict[str, Callable[[object], bool]] = {
    "L": lambda v: type(v) is int and v >= 1,
    "graph_count": lambda v: type(v) is int,
    "comparator": lambda v: isinstance(v, str) and v in COMPARATORS,
    "rankers": lambda v: isinstance(v, list) and all(isinstance(r, str) for r in v),
    "files": lambda v: isinstance(v, dict)
    and all(isinstance(v.get(role), str) for role in INDEX_FILES),
    "bytes": lambda v: isinstance(v, dict)
    and all(type(v.get(role)) is int for role in INDEX_FILES),
}


def load_index(directory: str | Path) -> tuple[FusionGraphIndex, CollectionRankIndex]:
    """Load a persisted index directory: (graph index, raw collection index).

    Every manifest field in MANIFEST_FIELDS must be present and well typed,
    every data file must have its recorded size, and every rank record must
    hold string ids under one of the manifest's rankers, at most once per
    (ranker, query); otherwise (and for an index of an older format)
    MalformedGraphRecord is raised.
    """
    directory = Path(directory)
    try:
        manifest = json.loads((directory / MANIFEST_NAME).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedGraphRecord(f"cannot read index manifest: {exc}") from exc
    version = manifest.get("v") if isinstance(manifest, dict) else None
    if type(version) is int and version < MANIFEST_VERSION:
        raise MalformedGraphRecord(
            f"index at {directory} has manifest version {version}, which predates index "
            f"format {MANIFEST_VERSION}; it must be re-extracted with `fusegraph extract`"
        )
    if version != MANIFEST_VERSION:
        raise MalformedGraphRecord(f"unknown index manifest version {version!r}")
    for name, valid in MANIFEST_FIELDS.items():
        if not valid(manifest.get(name)):
            raise MalformedGraphRecord(
                f"index manifest field {name!r} is missing or ill-typed: {manifest.get(name)!r}"
            )
    params = NormalizationParams(manifest["L"])
    rankers = tuple(manifest["rankers"])
    comparator = manifest["comparator"]
    for role in INDEX_FILES:
        name, expected = manifest["files"][role], manifest["bytes"][role]
        size = (directory / name).stat().st_size
        if size != expected:
            raise MalformedGraphRecord(
                f"index file {name!r} holds {size} bytes, manifest says {expected}"
            )

    graphs: dict[ItemId, FusionGraph] = {}
    with open(directory / manifest["files"]["graphs"], encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                graph = deserialize_graph(line)
                graphs[graph.query] = graph
    if len(graphs) != manifest["graph_count"]:
        raise MalformedGraphRecord(
            f"graph store holds {len(graphs)} graphs, manifest says {manifest['graph_count']}"
        )

    ranks: dict[str, dict[ItemId, ScoredRank]] = {r: {} for r in rankers}
    with open(directory / manifest["files"]["ranks"], encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                ranker, query, items = record["ranker"], record["query"], record["items"]
                if ranker not in ranks:
                    raise ValueError(f"ranker {ranker!r} is not in the manifest")
                if type(query) is not str or type(items) is not list or not all(
                    type(item) is str for item in items
                ):
                    raise ValueError("query must be a string and items a list of strings")
                if query in ranks[ranker]:
                    raise ValueError(f"repeats the rank of {query!r} under {ranker!r}")
                entries = zip(items, record["scores"], strict=True)
                ranks[ranker][query] = ScoredRank(query, ranker, entries, params.depth)
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise MalformedGraphRecord(
                    f"bad rank record at line {line_no}: {exc}"
                ) from exc
    raw_index = CollectionRankIndex(ranks)
    fg_index = FusionGraphIndex(graphs, params, rankers, comparator)
    return fg_index, raw_index
