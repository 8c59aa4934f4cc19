"""The composite ranker: offline fusion-graph index, online graph retrieval.

Offline, every collection item is turned into a normalized fusion graph, one
at a time. Online, a query's ranks are normalized the same way and its graph
is built on the fly, unless the query is an indexed item whose ranks hold its
stored raw orders: its graph is then the stored one. Collection items are
ranked by ascending graph distance (MCS or WGU). Ties are broken by ascending
item id so runs are reproducible.

Only the top L of that ranking are kept, so search scores exactly only the
items that can still enter them: vertex postings give every item that
shares a vertex with the query a lower bound on its distance, and items are
scored in ascending bound order until a bound exceeds the L-th best distance.

The index directory (format 11) holds the graph records (each graph's edges
as compressed sparse rows, with slots as narrow as its label count allows),
the vertex postings that bound reads (per label, each graph's mass there), one
binary rank record per indexed item with the raw and the normalized order of
each of its ranks (the raw positions are what the online normalization of an
incoming query needs), a table of contents that holds L, the comparator, the
rankers, the sorted graph items, the sorted table of every vertex label and,
in the order of either list, each record's end and digest, and a manifest
that holds its sha256. The table of contents lists the items and the labels
once each; graph and rank records name them by their slots there. A record
runs from the end of the one before it, so the records of a file tile it.
load_index reads the manifest and the table of contents only; a search reads,
checks, decodes and keeps a posting list, graph or rank record when it first
needs it, so its cost follows the records it reads; every read of a rank
builds it anew from its item's record. verify_index checks every record.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import operator
import os
import struct
import weakref
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import cached_property, partial
from pathlib import Path

from .errors import MalformedGraphRecord, MissingRank, RankerMismatch
from .graph import (
    BuildStats,
    FusionGraph,
    NeighbourTable,
    VertexRecord,
    _slot_code,
    build_fusion_graph,
    deserialize_graph,
    serialize_graph,
    vertex_record,
)
from .model import (
    CollectionRankIndex,
    ItemId,
    RankSet,
    ScoredRank,
    assemble_rank_set,
    unchecked_rank,
)
from .normalize import gridded_rank, normalize_collection, normalize_rank_set
from .similarity import dist_mcs, dist_mcs_floor, dist_wgu, dist_wgu_floor

MANIFEST_VERSION = 11
MANIFEST_NAME = "manifest.json"
INDEX_FILES = {
    "graphs": "graphs.bin",
    "postings": "postings.bin",
    "ranks": "ranks.bin",
    "toc": "toc.json",
}
# one posting: item slot (its position among the sorted indexed items), the vertex's mass
POSTING = struct.Struct("<Id")

COMPARATORS: dict[str, Callable[[FusionGraph, FusionGraph, float, float], float]] = {
    "MCS": dist_mcs,
    "WGU": dist_wgu,
}
FLOORS: dict[str, Callable[[float, float, float], float]] = {
    "MCS": dist_mcs_floor,
    "WGU": dist_wgu_floor,
}


class VertexPostings:
    """What the search bound reads of every indexed graph, edges left out.

    ``items`` are the indexed items in ascending order; an item's slot is its
    position there. ``by_label`` maps a vertex label to one POSTING, (slot,
    mass), per graph holding it, packed in slot order: the bytes postings.bin
    holds. A mass is the vertex record's: the fsum of the label's weight and
    its outgoing edge weights. ``sizes`` maps an item to its graph's size.
    """

    def __init__(self, items: list[ItemId], by_label: Mapping[ItemId, bytes], sizes: Mapping[ItemId, float]):
        self.items, self.by_label, self.sizes = items, by_label, sizes

    @classmethod
    def of(cls, graphs: Mapping[ItemId, FusionGraph], read: Callable | None = None) -> VertexPostings:
        postings = cls([], {}, {})
        for item in sorted(graphs):
            postings.add(item, vertex_record((read or graphs.__getitem__)(item)))
        return postings

    def add(self, item: ItemId, head: VertexRecord) -> None:
        """Add ``head``, the vertex record of ``item``'s graph; ``item`` must follow every item added before it."""
        for label, mass in zip(head.labels, head.mass):
            self.by_label.setdefault(label, bytearray()).extend(POSTING.pack(len(self.items), mass))
        self.items.append(item)
        self.sizes[item] = head.size


class FusionGraphIndex:
    """Normalized fusion graphs for the whole response set, built at cut-off depth L (``depth``).

    ``normalized`` holds the collection's normalized ranks, which query
    graphs are built from; ``raw`` holds its ranks as given, whose positions
    the normalization of a query reads. Either is read by ``get`` only.
    """

    def __init__(
        self,
        graphs: Mapping[ItemId, FusionGraph],
        depth: int,
        ranker_names: tuple[str, ...],
        comparator: str,
        normalized: CollectionRankIndex,
        raw: CollectionRankIndex,
    ):
        if comparator not in COMPARATORS:
            raise ValueError(f"comparator must be one of {sorted(COMPARATORS)}, got {comparator!r}")
        self.graphs, self.depth, self.ranker_names, self.comparator = graphs, depth, ranker_names, comparator
        self.normalized, self.raw = normalized, raw

    @cached_property
    def postings(self) -> VertexPostings:
        """The graphs' vertex postings, which load_index sets; derived otherwise, when ``graphs`` becomes a dict."""
        self.graphs = dict(self.graphs)
        return VertexPostings.of(self.graphs)


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class Records(Mapping):
    """The values of ``keys``, each made by ``make(key)`` on first access and kept; ``make`` keeps none."""

    def __init__(self, keys: Mapping, make: Callable):
        self._keys, self.make, self._kept = keys, make, {}

    def __getitem__(self, key):
        value = self._kept.get(key)
        if value is None:
            value = self._kept[key] = self.make(key)
        return value

    def __contains__(self, key: object) -> bool:
        return key in self._keys

    def __iter__(self) -> Iterator:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class StoredRecords(Records):
    """Records of the ``role`` data file of index ``directory``, by key, each read, checked and decoded when first read.

    ``entries`` holds the table-of-contents entry of each of ``keys``, in
    order: its record's end, in units of ``unit`` bytes, its digest and maybe
    more. A record runs from the end before its own, or from 0, to its own
    end. Opening the file checks that the ends are ints that strictly ascend
    and that the last is the file's size (0 with no records), so the records
    tile the file and every byte lies under exactly one digest. A record is handed to
    ``decode(key, entry, data, what)`` only when it matches its digest;
    ``what`` names it, by ``describe(key)``, in errors. The file stays open
    while this object lives, for reads at any offset.
    """

    def __init__(
        self, directory: Path, role: str, keys: list, entries: list, describe: Callable, decode: Callable, unit: int = 1
    ):
        path = directory / INDEX_FILES[role]
        ends = [0, *(entry[0] for entry in entries)]
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError as exc:
            raise MalformedGraphRecord(f"cannot read index file {path.name!r}: {exc}") from exc
        weakref.finalize(self, os.close, fd)
        size = os.fstat(fd).st_size
        if not all(type(end) is int for end in ends) or not all(map(operator.lt, ends, ends[1:])):
            raise MalformedGraphRecord(f"the ends of the records of {path.name!r} are not ints that strictly ascend")
        if ends[-1] * unit != size:
            raise MalformedGraphRecord(f"index file {path.name!r} holds {size} bytes, its records {ends[-1] * unit}")
        slots = {key: slot for slot, key in enumerate(keys)}

        def record(key):  # holds no reference to self, so the file closes once this store is dropped
            slot = slots[key]
            start, end, entry = ends[slot] * unit, ends[slot + 1] * unit, entries[slot]
            what = describe(key)
            data = os.pread(fd, end - start, start)
            if len(data) != end - start or _digest(data) != entry[1]:
                raise MalformedGraphRecord(f"{what} in {path.name!r} does not match its digest")
            return decode(key, entry, data, what)

        super().__init__(slots, record)


def _graph_record(labels: list, items: list, item: ItemId, entry: list, data: bytes, what: str) -> FusionGraph:
    """The graph of a record whose entry is (end, digest, the graph's size), by deserialize_graph."""
    # a module-global lookup, so a wrapper bound to the name is called
    graph = deserialize_graph(data, labels, items, size=entry[2])
    if graph.query != item:
        raise MalformedGraphRecord(f"{what} holds the graph of {graph.query!r}")
    return graph


def _posting_list(count: int, label: ItemId, entry: list, data: bytes, what: str) -> bytes:
    """A list of POSTINGs as stored, once its item slots rise and stay below ``count``, the indexed items'."""
    slots = struct.unpack("<" + "I8x" * (len(data) // POSTING.size), data)
    if not (slots and slots[-1] < count and all(map(operator.lt, slots, slots[1:]))):
        for last, slot in zip((-1, *slots), slots):  # only to name the first slot out of order or range
            if not last < slot < count:
                raise MalformedGraphRecord(f"{what} has item slot {slot} out of order or range")
    return data


def _rank_record(depth: int, rankers: list, labels: list, items: list, item, entry, data, what) -> dict:
    """An item's rank record checked in full: per ranker that ranks it, its raw and normalized order, as item ids."""
    count, code = _slot_code(depth + 1), _slot_code(len(labels))
    orders, ranker, at = {}, None, 4
    try:
        (slot,) = struct.unpack_from("<I", data)
        if slot >= len(items) or items[slot] != item:
            held = repr(items[slot]) if slot < len(items) else f"item slot {slot}, beyond the {len(items)} items"
            raise ValueError(f"it holds the ranks of {held}")
        for ranker in rankers:  # a count of 0: no rank
            (k,) = struct.unpack_from("<" + count, data, at)
            if k > depth:
                raise ValueError(f"{k} items exceed L={depth}")
            layout = f"<{count}{k}{code}{k}{count}"  # the count, the raw order's label slots, the normalized positions
            values, at = struct.unpack_from(layout, data, at), at + struct.calcsize(layout)
            ids, positions = values[1 : k + 1], values[k + 1 :]
            if ids and max(ids) >= len(labels):
                raise ValueError(f"label slot {max(ids)} is beyond the {len(labels)} labels")
            if len(set(ids)) != k:
                raise ValueError("item ids must be distinct")
            if sorted(positions) != list(range(k)):
                raise ValueError("normalized is not a permutation of the slots of items")
            if k:
                raw = [*map(labels.__getitem__, ids)]
                orders[ranker] = raw, [*map(raw.__getitem__, positions)]
        ranker = None
        if at != len(data):
            raise ValueError(f"{len(data) - at} bytes follow its ranks")
    except (struct.error, ValueError) as exc:
        under = "" if ranker is None else f" under {ranker!r}"
        raise MalformedGraphRecord(f"bad {what}{under}: {exc}") from exc
    return orders


class StoredRanks:
    """The raw or the normalized ranks of an index's rank records, which map an item to both orders of each rank.

    Only ``get`` is answered: search, save and verify read nothing else. Every
    read builds a rank from its item's kept record by gridded_rank (what a
    normalized rank holds) and keeps none. The scores of a raw rank are never
    read: normalization reads positions only.
    """

    def __init__(self, records: StoredRecords, depth: int, normalized: bool):
        self.records, self.order, self.depth = records, 1 if normalized else 0, depth

    def get(self, ranker: str, query: ItemId) -> ScoredRank | None:
        orders = self.records.get(query, {}).get(ranker)
        return None if orders is None else gridded_rank(query, ranker, orders[self.order], self.depth)


def index_collection(
    index: CollectionRankIndex,
    rankers: Iterable[str],
    depth: int,
    comparator: str = "WGU",
    strict: bool = False,
    stats: BuildStats | None = None,
) -> FusionGraphIndex:
    """Index one normalized fusion graph per collection item, at cut-off depth L.

    Each item's rank set is grouped by assemble_rank_set: in strict mode
    every item, and every vertex of its graph, must have a rank under every
    chosen ranker, and MissingRank is raised here, before any graph is built;
    in lenient mode missing ranks are skipped and an item with no ranks at
    all is left out of the graph index, and counted in ``stats``. Every rank
    of the chosen rankers must be at depth L, else RankerMismatch is raised
    first. A graph is built when first read, and kept. The result keeps
    ``index`` as its raw ranks.
    """
    rankers = tuple(rankers)
    for ranker in rankers:
        for query in index.queries(ranker):
            rank_depth = index.require(ranker, query).depth
            if rank_depth != depth:
                raise RankerMismatch(f"rank of {query!r} under {ranker!r} has depth {rank_depth}, index uses L={depth}")
    normalized = normalize_collection(index, rankers, depth)
    complete = set.intersection(*(set(normalized.queries(r)) for r in rankers)) if strict and rankers else set()
    items: dict[ItemId, None] = {}  # those with a graph, in order
    for item in index.collection_items():
        rs = assemble_rank_set(item, normalized, rankers, strict)
        if not rs:
            if stats is not None:
                stats.items_without_ranks += 1
            continue
        for vertex in itertools.chain.from_iterable(map(ScoredRank.items, rs)) if strict else ():
            if vertex not in complete:
                raise MissingRank(next(r for r in rankers if normalized.get(r, vertex) is None), vertex)
        items[item] = None
    table: NeighbourTable = {}  # each item's ranks, read once for all graphs

    def build(item: ItemId) -> FusionGraph:  # regrouped, since a rank set per item costs memory
        if item not in items:
            raise KeyError(item)
        rs = assemble_rank_set(item, normalized, rankers, strict)  # build_fusion_graph: a module-global lookup
        return build_fusion_graph(rs, normalized, stats=stats, table=table)

    return FusionGraphIndex(Records(items, build), depth, rankers, comparator, normalized, index)


def common_bounds(postings: VertexPostings, head: VertexRecord) -> dict[ItemId, float]:
    """Per item sharing a vertex with a query graph, a bound on the size of their mcs; ``head`` is its vertex record.

    Every shared edge leaves a shared vertex, so charge it to its source: a
    shared vertex u brings to the mcs its min weight and its shared outgoing
    edges' min weights, at most either graph's mass m(u), its weight plus its
    outgoing edge weights. So |mcs| <= sum_S min(m_q(u), m_d(u)) over the
    shared vertices S. The masses are correctly rounded fsums and each sum
    adds at most |V_q| of their minima in plain floats; the relative slack
    (|V_q| + 8) * 2^-52 covers that rounding and that of graph_size(mcs), for
    graphs of any size, so the bound is never below
    graph_size(mcs(query graph, item's graph)).
    """
    by_label, sums = postings.by_label, {}  # by item slot
    get = sums.get
    for label, m_q in zip(head.labels, head.mass):
        for slot, m in POSTING.iter_unpack(by_label.get(label, b"")):
            sums[slot] = get(slot, 0.0) + (m if m < m_q else m_q)
    inflate = 1.0 + (len(head.labels) + 8) * 2.0**-52
    return {postings.items[slot]: total * inflate for slot, total in sums.items()}


def build_query_graph(query_ranks: RankSet, fg_index: FusionGraphIndex) -> FusionGraph:
    """The fusion graph of a query's ranks: the stored one of an indexed item, else built on the fly.

    An indexed item whose ranks list its stored raw orders gets its stored
    graph, which a build would give bit for bit: normalization reads
    positions only and every weight is an order-independent sum. Any other
    query's own ranks are normalized against the index's raw ranks, and its
    graph is built from them and the index's normalized ranks, so
    out-of-collection queries work.
    """
    depth = fg_index.depth
    if set(query_ranks.ranker_names) != set(fg_index.ranker_names):
        raise RankerMismatch(
            f"query rankers {sorted(query_ranks.ranker_names)} != "
            f"index rankers {sorted(fg_index.ranker_names)}"
        )
    for rank in query_ranks:
        if rank.depth != depth:
            raise RankerMismatch(
                f"query rank under {rank.ranker!r} has depth {rank.depth}, "
                f"index uses L={depth}"
            )
    query, raw = query_ranks.query, fg_index.raw
    if query in fg_index.graphs and all(
        (stored := raw.get(rank.ranker, query)) is not None and stored.items() == rank.items() for rank in query_ranks
    ):
        return fg_index.graphs[query]
    return build_fusion_graph(normalize_rank_set(query_ranks, raw, depth), fg_index.normalized)


def fuse_query(query_ranks: RankSet, fg_index: FusionGraphIndex, exclude_self: bool = False) -> ScoredRank:
    """Rank the indexed collection by graph distance to the query's graph.

    Distances ascend with ties broken by item id, cut to L. The result is the
    query's rank under ranker ``"fusegraph"`` at depth L, each item scored
    with the similarity 1 - distance, so its scores descend. An item sharing
    no vertex label with the query's graph has distance 1, so only the first
    L of those by id can enter the result. Every other item's distance has a
    lower bound from common_bounds, and items are scored exactly in ascending
    bound order, ties by id, until a bound is strictly greater than the L-th
    best distance so far: no later item can enter the result, while an item
    that could tie is still scored. The result is the same as scoring every
    item. An exact score is given both graphs' sizes, the query's from its
    vertex record and the item's from the postings, which equal graph_size's.
    """
    query_graph = build_query_graph(query_ranks, fg_index)
    depth, distance, graphs = fg_index.depth, COMPARATORS[fg_index.comparator], fg_index.graphs
    postings, floor = fg_index.postings, FLOORS[fg_index.comparator]
    excluded = {query_ranks.query} if exclude_self else set()
    head = vertex_record(query_graph)
    bounds = common_bounds(postings, head)
    unscored = (i for i in postings.items if i not in bounds and i not in excluded)
    top = [(1.0, item) for item in itertools.islice(unscored, depth)]
    candidates = sorted(
        (floor(common, head.size, postings.sizes[item]), item)
        for item, common in bounds.items()
        if item not in excluded
    )
    for bound, item in candidates:
        if len(top) == depth and bound > top[-1][0]:
            break
        bisect.insort(top, (distance(query_graph, graphs[item], head.size, postings.sizes[item]), item))
        del top[depth:]
    return unchecked_rank(query_ranks.query, "fusegraph", ((item, 1.0 - d) for d, item in top), depth)


def save_index(directory: str | Path, fg_index: FusionGraphIndex) -> None:
    """Persist the graph index with its raw and normalized rank orders, in index format 11.

    The label table is every item of the raw ranks of the chosen rankers
    that ``raw.get`` answers for a graph item, sorted; a label's slot is its
    position there, and an item's slot its position among the sorted graph
    items. ``graphs.bin`` holds one serialize_graph record per item in item
    order; ``postings.bin`` the graphs' posting lists in table order, which
    must hold exactly the table's labels; ``ranks.bin`` one record per item
    in item order, packed by _rank_records; each back to back. ``toc.json``
    holds L, the comparator, the rankers, the sorted graph items as ``items``
    and the table as ``labels``; in item order, each graph record's [end,
    digest, the graph's size] as ``graphs`` and each rank record's [end,
    digest] as ``ranks``; in table order, each posting list's [end, digest]
    as ``postings``, where an end counts postings. An end is where a record
    stops in its file, and the next starts; a digest is a 16-byte BLAKE2b, in
    hex. The manifest holds the format, the file names and the toc's sha256.
    A graph vertex outside the table raises ValueError, before any rename.

    Each graph is read once, by the store's ``make`` when ``graphs`` has one,
    which keeps none, and serialized; the vertex record that serialize_graph
    returns is added to the posting lists, and the graph is dropped once
    written. ``fg_index`` is left as it was: load_index opens what was saved.
    Files are fully sorted, so rebuilding from identical inputs is
    byte-identical. Every file is first written in full under a temporary
    name in ``directory``; only then are they renamed into place, the
    manifest last, then the directory is synced so that the renames last; a
    save that fails before its renames leaves an older index there intact.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    vertex_postings = VertexPostings([], {}, {})
    by_label = vertex_postings.by_label
    read = getattr(fg_index.graphs, "make", fg_index.graphs.__getitem__)  # Records' make keeps no graph
    items = sorted(fg_index.graphs)
    raw = (fg_index.raw.get(ranker, item) for item in items for ranker in fg_index.ranker_names)
    labels = sorted(set().union(*(rank.items() for rank in raw if rank is not None)))
    slots = {label: slot for slot, label in enumerate(labels)}
    staged: list[tuple[Path, Path]] = []

    def records() -> Iterator[bytes]:
        for slot, item in enumerate(items):
            graph = read(item)
            try:
                record, head = serialize_graph(graph, slots, slot)
            except KeyError as exc:  # the slot lookup of a label outside the table
                raise ValueError(
                    f"the graph of {item!r} has vertex {exc.args[0]!r}, which no raw rank of a graph item holds"
                ) from None
            vertex_postings.add(item, head)
            yield record

    try:
        graphs = _stage(directory / INDEX_FILES["graphs"], records(), staged)
        if by_label.keys() != slots.keys():
            raise ValueError("a label of the raw ranks of the graph items is a vertex of none of their graphs")
        postings = _stage(directory / INDEX_FILES["postings"], map(by_label.__getitem__, labels), staged)
        ranks = _stage(directory / INDEX_FILES["ranks"], _rank_records(fg_index, items, slots), staged)
        toc = {
            "L": fg_index.depth,
            "comparator": fg_index.comparator,
            "rankers": list(fg_index.ranker_names),
            "items": items,
            "labels": labels,
            "graphs": [[*entry, vertex_postings.sizes[item]] for item, entry in zip(items, graphs)],
            "postings": [[end // POSTING.size, digest] for end, digest in postings],
            "ranks": ranks,
        }
        toc_bytes = json.dumps(toc, separators=(",", ":"), sort_keys=True).encode("utf-8")
        _stage(directory / INDEX_FILES["toc"], [toc_bytes], staged)
        sha256 = {"toc": hashlib.sha256(toc_bytes).hexdigest()}
        manifest = {"v": MANIFEST_VERSION, "files": INDEX_FILES, "sha256": sha256}
        manifest_bytes = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
        _stage(directory / MANIFEST_NAME, [manifest_bytes], staged)
        for tmp, path in staged:
            os.replace(tmp, path)
        descriptor = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _stage(path: Path, records: Iterable[bytes], staged: list[tuple[Path, Path]]) -> list[list]:
    """Write ``records`` back to back, durably, to a temporary sibling of ``path``; returns each one's [end, digest]."""
    tmp = path.with_name(path.name + ".tmp")
    staged.append((tmp, path))
    entries, end = [], 0
    with open(tmp, "wb") as fh:
        for record in records:
            fh.write(record)
            end += len(record)
            entries.append([end, _digest(record)])
        fh.flush()
        os.fsync(fh.fileno())
    return entries


def _rank_records(fg_index: FusionGraphIndex, items: list[ItemId], slots: Mapping) -> Iterator[bytes]:
    """The rank record of each of ``items``, in their order, little-endian: the item's slot (uint32), then per
    chosen ranker a count k <= L (0: no rank), the raw order as k label slots and the normalized order as k
    positions in it. A count or a position is as wide as _slot_code gives for L + 1 labels, a label slot as for
    ``slots``, which maps each label to its slot."""
    count, code = _slot_code(fg_index.depth + 1), _slot_code(len(slots))
    for slot, item in enumerate(items):
        layout, values = ["<I"], [slot]
        for ranker in fg_index.ranker_names:
            raw, normalized = fg_index.raw.get(ranker, item), fg_index.normalized.get(ranker, item)
            if raw is not None and normalized is None:
                raise MissingRank(ranker, item)
            position = {label: i for i, label in enumerate(raw.items() if raw else ())}
            layout.append(f"{count}{len(position)}{code}{len(position)}{count}")
            values += (len(position), *map(slots.__getitem__, position))
            values += map(position.__getitem__, normalized.items() if raw else ())
        yield struct.pack("".join(layout), *values)


MANIFEST_FIELDS: dict[str, Callable[[object], bool]] = {
    "files": lambda v: v == INDEX_FILES,  # written for readers of the manifest; only these names are opened
    "sha256": lambda v: type(v) is dict and list(v) == ["toc"] and type(v["toc"]) is str,
}
TOC_FIELDS: dict[str, Callable[[object], bool]] = {
    "L": lambda v: type(v) is int and v >= 1,
    "comparator": lambda v: isinstance(v, str) and v in COMPARATORS,
    "rankers": lambda v: isinstance(v, list) and all(isinstance(r, str) and r for r in v) and len(set(v)) == len(v),
}


def _read_manifest(directory: Path) -> dict:
    try:
        manifest = json.loads((directory / MANIFEST_NAME).read_text(encoding="utf-8"))
    except (OSError, RecursionError, ValueError) as exc:  # RecursionError: JSON nested too deep
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
    unknown = sorted(manifest.keys() - {"v", *MANIFEST_FIELDS})
    if unknown:
        raise MalformedGraphRecord(f"index manifest field {unknown[0]!r} is unknown")
    return manifest


def _read_toc(directory: Path, sha256: str) -> dict:
    """The table of contents, if it matches ``sha256``: its fields in TOC_FIELDS, its keys and its entries checked."""
    name = INDEX_FILES["toc"]
    try:
        data = (directory / name).read_bytes()
    except OSError as exc:
        raise MalformedGraphRecord(f"cannot read index file {name!r}: {exc}") from exc
    if hashlib.sha256(data).hexdigest() != sha256:
        raise MalformedGraphRecord(f"index file {name!r} does not match its sha256 in the manifest")
    try:
        toc = json.loads(data)
        parts = ("items", "labels", "graphs", "postings", "ranks")
        if type(toc) is not dict or any(type(toc.get(part)) is not list for part in parts):
            raise ValueError("it must be an object whose items, labels, graphs, postings and ranks are lists")
        for field, valid in TOC_FIELDS.items():
            if not valid(toc.get(field)):
                raise ValueError(f"field {field!r} is missing or ill-typed: {toc.get(field)!r}")
        items, labels = toc["items"], toc["labels"]
        if " ".join(items).split() != items:  # a run line holds an item as one field
            raise ValueError("a graph item is empty or holds whitespace")
        if not all(map(operator.lt, items, items[1:])):  # slot order must be item order
            raise ValueError("graph items are not in strictly ascending order")
        if not all(type(label) is str and label for label in labels) or not all(map(operator.lt, labels, labels[1:])):
            raise ValueError("labels must be non-empty strings in strictly ascending order")
        for part, keys, fields in (("graphs", "items", 3), ("ranks", "items", 2), ("postings", "labels", 2)):
            entries, count = toc[part], len(toc[keys])
            if len(entries) != count or not all(type(entry) is list and len(entry) == fields for entry in entries):
                shape = "[end, digest, size]" if fields == 3 else "[end, digest]"
                raise ValueError(f"{part} must hold one {shape} for each of the {count} {keys}")
        for item, (_, _, size) in zip(items, toc["graphs"]):
            if type(size) is not float or not 0.0 < size < math.inf:
                raise ValueError(f"graph size of {item!r} is {size!r}, not a positive finite number")
    except (KeyError, RecursionError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise MalformedGraphRecord(f"bad table of contents {name!r}: {exc}") from exc
    return toc


def load_index(directory: str | Path) -> FusionGraphIndex:
    """Open a persisted index directory.

    Reads the manifest and the table of contents only. The manifest must
    hold the fields in MANIFEST_FIELDS, well typed, and no other; ``files``
    must name INDEX_FILES, the only files opened. The table of contents must
    match the manifest's sha256 and its fields in TOC_FIELDS must be well
    typed; its graph items must be non-empty, free of whitespace and strictly
    ascending, its labels non-empty strings in strictly ascending order, and
    it must hold one graph and one rank entry per item and one posting list
    entry per label, each a list of the right length, with graph sizes
    positive and finite. Every data file's record ends must be ints that
    strictly ascend to its size. Otherwise (and for an index of an older
    format) MalformedGraphRecord is raised. A graph, posting list or rank
    record is read when search first needs it, and is checked then: against
    its digest, and by deserialize_graph, the posting list's slot check or
    the rank record check. ``raw`` and ``normalized`` answer ``get``.
    """
    directory = Path(directory)
    toc = _read_toc(directory, _read_manifest(directory)["sha256"]["toc"])
    items, labels, depth, graphs = toc["items"], toc["labels"], toc["L"], toc["graphs"]
    stored_graphs = StoredRecords(
        directory, "graphs", items, graphs, "graph record of {!r}".format, partial(_graph_record, labels, items)
    )
    posting_lists = StoredRecords(
        directory, "postings", labels, toc["postings"], "posting list of {!r}".format,
        partial(_posting_list, len(items)), POSTING.size,
    )
    check = partial(_rank_record, depth, toc["rankers"], labels, items)
    records = StoredRecords(directory, "ranks", items, toc["ranks"], "rank record of {!r}".format, check)
    fg_index = FusionGraphIndex(
        stored_graphs,
        depth,
        tuple(toc["rankers"]),
        toc["comparator"],
        StoredRanks(records, depth, normalized=True),
        StoredRanks(records, depth, normalized=False),
    )
    # what the cached property would derive by decoding every graph
    fg_index.postings = VertexPostings(items, posting_lists, {item: entry[2] for item, entry in zip(items, graphs)})
    return fg_index


def verify_index(directory: str | Path) -> tuple[int, int, int]:
    """Check every record of the index at ``directory``: (graphs, posting lists, ranks in the rank records) checked.

    On top of load_index's checks, which leave every byte of each data file
    under one digest, every graph, posting list and rank record is read and
    checked as a search would check it, and the posting lists must be those
    VertexPostings.of derives from the decoded graphs. Raises
    MalformedGraphRecord on the first fault.
    """
    fg_index = load_index(directory)
    stored = fg_index.postings.by_label
    derived = VertexPostings.of(fg_index.graphs, fg_index.graphs.make).by_label  # checks every graph, keeps none
    if stored.keys() != derived.keys() or any(stored[label] != postings for label, postings in derived.items()):
        raise MalformedGraphRecord("the posting lists are not those of the graphs")
    records = fg_index.raw.records
    ranks = sum(len(records.make(item)) for item in records)  # reads and checks every rank record, keeps none
    return len(fg_index.graphs), len(stored), ranks
