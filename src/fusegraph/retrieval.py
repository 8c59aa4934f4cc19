"""The composite ranker: offline fusion-graph index, online graph retrieval.

Offline, every collection item is turned into a normalized fusion graph.
Online, a query's ranks are normalized the same way, its graph is built on
the fly, and collection items are ranked by ascending graph distance (MCS or
WGU). Ties are broken by ascending item id so runs are reproducible.

Only the top L of that ranking are kept, so search scores exactly only the
items that can still enter them: vertex postings give every item that
shares a vertex with the query a lower bound on its distance, and items are
scored in ascending bound order until a bound exceeds the L-th best distance.

The index directory holds a manifest, the serialized graphs with what that
bound reads (per-vertex edge masses and the graph size), and the raw and the
normalized order of every collection rank: the raw positions are what the
online normalization of an incoming query needs. A loaded index decodes a
graph or builds a rank only when search first reads it.
"""

from __future__ import annotations

import bisect
import itertools
import json
import logging
import os
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import MalformedGraphRecord, MissingRank, RankerMismatch
from .graph import (
    BuildStats,
    FusionGraph,
    NeighbourTable,
    VertexRecord,
    build_fusion_graph,
    deserialize_graph,
    graph_size,
    read_vertex_record,
    serialize_graph,
    vertex_record,
)
from .model import (
    CollectionRankIndex,
    FusedRank,
    ItemId,
    RankLookup,
    RankSet,
    ScoredRank,
    assemble_rank_set,
)
from .normalize import NormalizationParams, gridded_rank, normalize_collection, normalize_rank_set
from .similarity import dist_mcs, dist_mcs_floor, dist_wgu, dist_wgu_floor

logger = logging.getLogger(__name__)

MANIFEST_VERSION = 4
MANIFEST_NAME = "manifest.json"
INDEX_FILES = {"graphs": "graphs.jsonl", "ranks": "collection_ranks.jsonl"}

COMPARATORS: dict[str, Callable[[FusionGraph, FusionGraph], float]] = {
    "MCS": dist_mcs,
    "WGU": dist_wgu,
}
FLOORS: dict[str, Callable[[float, float, float], float]] = {
    "MCS": dist_mcs_floor,
    "WGU": dist_wgu_floor,
}


@dataclass
class VertexPostings:
    """What the search bound reads of every indexed graph, edges left out.

    ``by_label`` maps a vertex label to (item, vertex weight, out mass, in
    mass) for every graph holding it; ``sizes`` maps an item to its graph's
    size.
    """

    by_label: dict[ItemId, list[tuple[ItemId, float, float, float]]] = field(default_factory=dict)
    sizes: dict[ItemId, float] = field(default_factory=dict)

    @classmethod
    def of(cls, graphs: Mapping[ItemId, FusionGraph]) -> VertexPostings:
        postings = cls()
        for item, graph in graphs.items():
            postings.add(item, vertex_record(graph))
        return postings

    def add(self, item: ItemId, record: VertexRecord) -> None:
        by_label = self.by_label
        vertices = zip(record.labels, record.weights, record.out_mass, record.in_mass)
        for label, weight, out_mass, in_mass in vertices:
            posting = (item, weight, out_mass, in_mass)
            bucket = by_label.get(label)
            if bucket is None:
                by_label[label] = [posting]
            else:
                bucket.append(posting)
        self.sizes[item] = record.size


@dataclass
class FusionGraphIndex:
    """Normalized fusion graphs for the whole response set.

    ``normalized`` holds the collection's normalized ranks, which query
    graphs are built from.
    """

    graphs: Mapping[ItemId, FusionGraph]
    params: NormalizationParams
    ranker_names: tuple[str, ...]
    comparator: str
    normalized: RankLookup

    def __post_init__(self):
        if self.comparator not in COMPARATORS:
            raise ValueError(
                f"comparator must be one of {sorted(COMPARATORS)}, got {self.comparator!r}"
            )

    @property
    def distance(self) -> Callable[[FusionGraph, FusionGraph], float]:
        return COMPARATORS[self.comparator]

    @cached_property
    def postings(self) -> VertexPostings:
        """The graphs' vertex postings; load_index sets them without decoding a graph."""
        return VertexPostings.of(self.graphs)


class StoredGraphs(Mapping[ItemId, FusionGraph]):
    """Graph-store records by item, each decoded on first access and then kept."""

    def __init__(self, records: dict[ItemId, bytes]):
        self._records = records
        self._decoded: dict[ItemId, FusionGraph] = {}

    def __getitem__(self, item: ItemId) -> FusionGraph:
        graph = self._decoded.get(item)
        if graph is None:
            # a module-global lookup, so a wrapper bound to the name is called
            graph = self._decoded.setdefault(item, deserialize_graph(self._records[item]))
        return graph

    def __contains__(self, item: object) -> bool:
        return item in self._records

    def __iter__(self) -> Iterator[ItemId]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)


class StoredRanks(CollectionRankIndex):
    """Stored rank orders, ranker -> query -> items, each built into a ScoredRank on first get.

    load_index has checked every order, so gridded_rank builds it, with the
    grid as scores. That is what a normalized rank holds; the scores of a raw
    rank are never read, because normalization reads positions only.
    """

    def __init__(self, orders: dict[str, dict[ItemId, list[ItemId]]], depth: int):
        self._ranks = orders  # the layout CollectionRankIndex's readers expect
        self._depth = depth
        self._built: dict[tuple[str, ItemId], ScoredRank] = {}

    def get(self, ranker: str, query: ItemId) -> ScoredRank | None:
        rank = self._built.get((ranker, query))
        if rank is None:
            items = self._ranks.get(ranker, {}).get(query)
            if items is None:
                return None
            rank = self._built.setdefault(
                (ranker, query), gridded_rank(query, ranker, items, self._depth)
            )
        return rank


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
    table: NeighbourTable = {}  # each item's ranks, read once for all graphs
    for item in index.collection_items():
        available = [r for r in rankers if normalized.get(r, item) is not None]
        if strict and len(available) < len(rankers):
            missing = next(r for r in rankers if normalized.get(r, item) is None)
            raise MissingRank(missing, item)
        if not available:
            logger.warning("item %s has no ranks under any chosen ranker; skipped", item)
            continue
        rs = assemble_rank_set(item, normalized, available)
        graphs[item] = build_fusion_graph(rs, normalized, strict=strict, stats=stats, table=table)
    return FusionGraphIndex(graphs, params, rankers, comparator, normalized)


def common_bounds(postings: VertexPostings, query_graph: FusionGraph) -> dict[ItemId, float]:
    """Per item sharing a vertex with ``query_graph``, a bound on the size of their mcs.

    Every shared edge joins two shared vertices, so its weight counts toward
    both the out mass of its source and the in mass of its target, and
    |mcs| <= sum_S min(w) + min(sum_S min(out), sum_S min(in)) over the
    shared vertices S. Those sums are plain float additions of at most |V_q|
    terms; the relative slack (|V_q| + 8) * 2^-52 covers their rounding, that
    of the stored masses and that of graph_size(mcs), for graphs of any size,
    so the bound is never below graph_size(mcs(query_graph, item's graph)).
    """
    head = vertex_record(query_graph)
    by_label = postings.by_label
    sums: dict[ItemId, list[float]] = {}
    for label, weight, out_q, in_q in zip(head.labels, head.weights, head.out_mass, head.in_mass):
        for item, w, out_mass, in_mass in by_label.get(label, ()):
            acc = sums.get(item)
            if acc is None:
                acc = sums[item] = [0.0, 0.0, 0.0]
            acc[0] += w if w < weight else weight
            acc[1] += out_mass if out_mass < out_q else out_q
            acc[2] += in_mass if in_mass < in_q else in_q
    inflate = 1.0 + (len(head.labels) + 8) * 2.0**-52
    return {item: (v + min(o, i)) * inflate for item, (v, o, i) in sums.items()}


def build_query_graph(
    query_ranks: RankSet,
    fg_index: FusionGraphIndex,
    index: RankLookup,
) -> FusionGraph:
    """Normalize a query's ranks and build its fusion graph on the fly.

    ``index`` is the raw collection index; the query's own (raw) ranks are
    overlaid on it, so out-of-collection queries work as long as their m
    ranks over the collection are supplied. The neighbor ranks the graph
    reads are the index's normalized collection ranks.
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
    normalized_query = normalize_rank_set(query_ranks, index.overlay(query_ranks), params)
    return build_fusion_graph(normalized_query, fg_index.normalized.overlay(normalized_query))


def fuse_query(
    query_ranks: RankSet,
    fg_index: FusionGraphIndex,
    index: RankLookup,
    exclude_self: bool = False,
) -> FusedRank:
    """Rank the indexed collection by graph distance to the query's graph.

    Distances ascend with ties broken by item id, cut to L. An item sharing
    no vertex label with the query's graph has distance 1, so only the first
    L of those by id can enter the result. Every other item's distance has a
    lower bound from common_bounds, and items are scored exactly in ascending
    bound order, ties by id, until a bound is strictly greater than the L-th
    best distance so far: no later item can enter the result, while an item
    that could tie is still scored. The result is the same as scoring every
    item.
    """
    query_graph = build_query_graph(query_ranks, fg_index, index)
    depth, distance, graphs = fg_index.params.depth, fg_index.distance, fg_index.graphs
    postings = fg_index.postings
    excluded = {query_ranks.query} if exclude_self else set()
    bounds = common_bounds(postings, query_graph)
    unscored = (i for i in sorted(graphs) if i not in bounds and i not in excluded)
    top = [(1.0, item) for item in itertools.islice(unscored, depth)]
    size, floor = graph_size(query_graph), FLOORS[fg_index.comparator]
    candidates = sorted(
        (floor(common, size, postings.sizes[item]), item)
        for item, common in bounds.items()
        if item not in excluded
    )
    for bound, item in candidates:
        if len(top) == depth and bound > top[-1][0]:
            break
        bisect.insort(top, (distance(query_graph, graphs[item]), item))
        del top[depth:]
    return FusedRank(query_ranks.query, tuple((item, d) for d, item in top))


def save_index(directory: str | Path, fg_index: FusionGraphIndex, raw_index: CollectionRankIndex) -> None:
    """Persist the graph index plus the rank orders it was built from.

    File contents are fully sorted, so rebuilding from identical inputs is
    byte-identical. Every file is first written in full under a temporary
    name in ``directory``; only then are they renamed into place, the
    manifest (which records each data file's size and sha256) last, so a
    failed save leaves an older index there intact.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    contents = {
        "graphs": (serialize_graph(fg_index.graphs[item]) + "\n" for item in sorted(fg_index.graphs)),
        "ranks": _rank_lines(fg_index, raw_index),
    }
    staged: list[tuple[Path, Path]] = []
    try:
        written = {
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
            "bytes": {role: size for role, (size, _) in written.items()},
            "sha256": {role: digest for role, (_, digest) in written.items()},
        }
        _stage(directory / MANIFEST_NAME, [json.dumps(manifest, indent=2, sort_keys=True) + "\n"], staged)
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _stage(path: Path, lines: Iterable[str], staged: list[tuple[Path, Path]]) -> tuple[int, str]:
    """Write ``lines`` durably to a temporary sibling of ``path``; return its size and sha256."""
    import hashlib  # here, not at module level: loading it costs every command start-up time

    tmp = path.with_name(path.name + ".tmp")
    staged.append((tmp, path))
    digest = hashlib.sha256()
    with open(tmp, "wb") as fh:
        for line in lines:
            data = line.encode("utf-8")
            digest.update(data)
            fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return tmp.stat().st_size, digest.hexdigest()


def _rank_lines(fg_index: FusionGraphIndex, raw_index: CollectionRankIndex) -> Iterable[str]:
    """One record per rank: its raw item order and its normalized order as slots into it."""
    for ranker in fg_index.ranker_names:
        for query in sorted(raw_index.queries(ranker)):
            items = raw_index.require(ranker, query).items()
            slot = {item: i for i, item in enumerate(items)}
            order = fg_index.normalized.require(ranker, query).items()
            record = {
                "ranker": ranker,
                "query": query,
                "items": list(items),
                "normalized": [slot[item] for item in order],
            }
            yield json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"


def _role_map(v: object, kind: type) -> bool:
    return isinstance(v, dict) and all(type(v.get(role)) is kind for role in INDEX_FILES)


MANIFEST_FIELDS: dict[str, Callable[[object], bool]] = {
    "L": lambda v: type(v) is int and v >= 1,
    "graph_count": lambda v: type(v) is int,
    "comparator": lambda v: isinstance(v, str) and v in COMPARATORS,
    "rankers": lambda v: isinstance(v, list) and all(isinstance(r, str) for r in v),
    "files": lambda v: _role_map(v, str),
    "bytes": lambda v: _role_map(v, int),
    "sha256": lambda v: _role_map(v, str),
}


def _lines(directory: Path, manifest: dict, role: str) -> Iterator[tuple[int, bytes]]:
    """(line number, line) for every non-blank line of a data file.

    The file is hashed as it is read, and once its last line has been
    handed out its sha256 must be the manifest's, so a fault that a record
    check catches is reported by that check.
    """
    import hashlib  # see _stage

    name = manifest["files"][role]
    digest = hashlib.sha256()
    with open(directory / name, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            digest.update(line)
            if line.strip():
                yield line_no, line
    if digest.hexdigest() != manifest["sha256"][role]:
        raise MalformedGraphRecord(f"index file {name!r} does not match its sha256 in the manifest")


def load_index(directory: str | Path) -> tuple[FusionGraphIndex, CollectionRankIndex]:
    """Load a persisted index directory: (graph index, raw collection index).

    Every manifest field in MANIFEST_FIELDS must be present and well typed,
    every data file must have its recorded size and sha256, every graph
    record's vertex fields must pass read_vertex_record, and every rank
    record must hold a non-empty query id and at most L distinct non-empty
    item ids under one of the manifest's rankers, at most once per (ranker,
    query), with a normalized order that is a permutation of its slots;
    otherwise (and for an index of an older format) MalformedGraphRecord is
    raised. This is the one check of a rank record. Edges are decoded, by
    deserialize_graph, and ranks built only when first read.
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

    records: dict[ItemId, bytes] = {}
    postings = VertexPostings()
    for _, line in _lines(directory, manifest, "graphs"):
        head = read_vertex_record(line)
        records[head.query] = line
        postings.add(head.query, head)
    if len(records) != manifest["graph_count"]:
        raise MalformedGraphRecord(
            f"graph store holds {len(records)} graphs, manifest says {manifest['graph_count']}"
        )

    raw: dict[str, dict[ItemId, list[ItemId]]] = {r: {} for r in rankers}
    normalized: dict[str, dict[ItemId, list[ItemId]]] = {r: {} for r in rankers}
    for line_no, line in _lines(directory, manifest, "ranks"):
        try:
            record = json.loads(line)
            ranker, query, items = record["ranker"], record["query"], record["items"]
            slots = record["normalized"]
            if ranker not in raw:
                raise ValueError(f"ranker {ranker!r} is not in the manifest")
            if type(query) is not str or type(items) is not list or not all(
                type(item) is str for item in items
            ):
                raise ValueError("query must be a string and items a list of strings")
            if query in raw[ranker]:
                raise ValueError(f"repeats the rank of {query!r} under {ranker!r}")
            if not query or "" in items or len(set(items)) != len(items):
                raise ValueError("query and item ids must be non-empty and items distinct")
            if len(items) > params.depth:
                raise ValueError(f"{len(items)} items exceed L={params.depth}")
            if type(slots) is not list or sorted(slots) != list(range(len(items))):
                raise ValueError("normalized is not a permutation of the slots of items")
            raw[ranker][query] = items
            normalized[ranker][query] = [items[slot] for slot in slots]
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise MalformedGraphRecord(f"bad rank record at line {line_no}: {exc}") from exc
    fg_index = FusionGraphIndex(
        StoredGraphs(records), params, rankers, comparator, StoredRanks(normalized, params.depth)
    )
    fg_index.postings = postings  # what the cached property would derive by decoding every graph
    return fg_index, StoredRanks(raw, params.depth)
