"""Shared builders for tests: quick rank construction and synthetic collections."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import random
import struct
import weakref
from collections import defaultdict
from unittest import mock

import numpy as np

from fusegraph.baselines import _check, _depth, _finalize, _order_to_rank
from fusegraph.errors import EmptyGraph, FusionError, MissingRank
from fusegraph import graph, similarity
from fusegraph.graph import FusionGraph
from fusegraph.model import CollectionRankIndex, ItemId, RankSet, ScoredEntry, ScoredRank
from fusegraph.normalize import normalize_rank_set
from fusegraph.retrieval import POSTING
from fusegraph.similarity import McsStats, graph_size

TOY_LAYOUT = {
    "r1": {"A": ["A", "B"], "B": ["B", "X"], "C": ["C", "X"]},
    "r2": {"A": ["A", "C"], "B": ["B", "Y"], "C": ["C", "Y"]},
}
TOY_QUERY = {"r1": {"q": ["A", "B"]}, "r2": {"q": ["A", "C"]}}
# paired t-test inputs whose differences, or the differences' mean or variance, overflow, and the ValueError each
# gives: the first overflows math.fsum, the second squares a deviation of 1e200, the third differs by inf
TTEST_OVERFLOWS = {
    "sum_of_differences": ([1e308, 1.5e308], [0.0, 0.0], "mean or variance of the paired differences overflows"),
    "square_of_a_deviation": ([1e200, -1e200], [0.0, 0.0], "mean or variance of the paired differences overflows"),
    "difference": ([1e308, 0.0], [-1e308, 0.0], "a paired difference overflows the float range"),
}


def write_runs(directory, layout, tag):
    """Write per-ranker TREC run files for a {ranker: {qid: [docs]}} layout."""
    paths = {}
    for ranker, per_query in layout.items():
        lines = []
        for qid in sorted(per_query):
            for pos, doc in enumerate(per_query[qid], start=1):
                lines.append(f"{qid} Q0 {doc} {pos} {10.0 - pos} {tag}\n")
        path = directory / f"{ranker}.{tag}.run"
        path.write_text("".join(lines), encoding="utf-8")
        paths[ranker] = path
    return paths


def write_config(directory, name, run_paths, depth=2, **extra):
    config = {
        "rankers": [
            {"name": ranker, "run": str(path), "polarity": "similarity"}
            for ranker, path in sorted(run_paths.items())
        ],
        "depth": depth,
        "comparator": "WGU",
    }
    config.update(extra)
    path = directory / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@contextlib.contextmanager
def live_graphs():
    """Count the FusionGraphs alive at once inside the block: yields a dict whose "peak" is the most.

    A graph counts from its making, by the public constructor or by the
    unchecked one that the builder, deserialize_graph and mcs use, until
    weakref.finalize sees it collected.
    """
    counts = {"live": 0, "peak": 0}

    def gone():
        counts["live"] -= 1

    def made(g):
        counts["live"] += 1
        counts["peak"] = max(counts["peak"], counts["live"])
        weakref.finalize(g, gone)
        return g

    init, unchecked = FusionGraph.__init__, graph._unchecked
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(FusionGraph, "__init__", lambda g, *a, **kw: init(made(g), *a, **kw)))
        for module in (graph, similarity):
            stack.enter_context(mock.patch.object(module, "_unchecked", lambda *args: made(unchecked(*args))))
        yield counts


def index_files(index_dir) -> dict[str, bytes]:
    """Every file of an index directory, by name."""
    return {path.name: path.read_bytes() for path in sorted(index_dir.iterdir())}


def seal_toc(index_dir, toc) -> None:
    """Write ``toc`` (or, given bytes, those) as the index's table of contents; record its sha256."""
    data = toc if isinstance(toc, bytes) else json.dumps(toc, separators=(",", ":"), sort_keys=True).encode("utf-8")
    (index_dir / "toc.json").write_bytes(data)
    path = index_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["sha256"]["toc"] = hashlib.sha256(data).hexdigest()
    path.write_text(json.dumps(manifest), encoding="utf-8")


def edit_manifest(index_dir, edit) -> None:
    """Apply ``edit`` to the JSON object of the index's manifest."""
    path = index_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def edit_toc(index_dir, edit, reseal=True) -> None:
    """Apply ``edit`` to the index's table of contents and, unless ``reseal`` is false, reseal it."""
    toc = json.loads((index_dir / "toc.json").read_bytes())
    edit(toc)
    data = json.dumps(toc, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if reseal:
        seal_toc(index_dir, data)
    else:
        (index_dir / "toc.json").write_bytes(data)


def reverse_graph_items(index_dir) -> None:
    """Reverse the order of the graph items in the index's table of contents, and reseal it."""
    edit_toc(index_dir, lambda toc: toc["items"].reverse())


def _rename_item(toc, name) -> None:
    """Item A of the table of contents is called ``name``."""
    toc["items"][toc["items"].index("A")] = name


def _edit_entries(part, edit):
    """An index edit that applies ``edit`` to the table of contents' list of ``part`` entries, and reseals it."""
    return lambda index_dir: edit_toc(index_dir, lambda toc: edit(toc[part]))


def _swap_ends(entries) -> None:
    entries[0][0], entries[1][0] = entries[1][0], entries[0][0]


def _move_last_end(step):
    return lambda entries: entries[-1].__setitem__(0, entries[-1][0] + step)


# faults in the manifest or the table of contents of the toy index (items A,
# B and C under rankers r1 and r2, labels A, B, C, X and Y) that load_index
# rejects with the message given, all but the last before any record is read;
# a table of contents is resealed, so its own checks are what catch the fault
TOC_SHAPE = (
    "bad table of contents 'toc.json': it must be an object whose items, labels, graphs, postings and ranks are lists"
)
LABELS = "labels must be non-empty strings in strictly ascending order"
ITEMS = "graph items are not in strictly ascending order"
ENDS = "the ends of the records of {!r} are not ints that strictly ascend"
INDEX_DATA_FILES = {"graphs": "graphs.bin", "postings": "postings.bin", "ranks": "ranks.bin"}
# each data file's entries, by the keys they follow and by their fields
ENTRIES = {
    "graphs": ("items", "[end, digest, size]"),
    "ranks": ("items", "[end, digest]"),
    "postings": ("labels", "[end, digest]"),
}
LOAD_FAULTS = {
    "toc not an object": (lambda d: seal_toc(d, b"[]"), TOC_SHAPE),
    **{
        f"{part} not a list": (lambda d, part=part: edit_toc(d, lambda toc: toc.update({part: {}})), TOC_SHAPE)
        for part in ("items", "labels", "graphs", "postings", "ranks")
    },
    "graph entry ill-typed": (
        _edit_entries("graphs", lambda entries: entries[0].__setitem__(0, "0")), ENDS.format("graphs.bin")
    ),
    "posting list entry ill-typed": (
        lambda d: edit_toc(d, lambda toc: toc["postings"][toc["labels"].index("X")].pop()),
        "postings must hold one [end, digest] for each of the 5 labels",
    ),
    "rank entry ill-typed": (
        _edit_entries("ranks", lambda entries: entries[1].__setitem__(0, -1)), ENDS.format("ranks.bin")
    ),
    # a record runs from the end before its own: ends that do not strictly
    # ascend, or that stop short of their file or past it, leave a byte under
    # two digests or under none
    **{
        f"{part} {fault}": (_edit_entries(part, edit), message.format(INDEX_DATA_FILES[part]))
        for part in INDEX_DATA_FILES
        for fault, edit, message in (
            ("ends swapped", _swap_ends, ENDS),
            ("end repeated", lambda entries: entries[1].__setitem__(0, entries[0][0]), ENDS),
            ("last end past the file", _move_last_end(1), "index file {!r} holds "),
            ("last end short of the file", _move_last_end(-1), "index file {!r} holds "),
        )
    },
    **{
        f"{part} {fault} the {keys}": (
            _edit_entries(part, edit),
            f"{part} must hold one {shape} for each of the {3 if keys == 'items' else 5} {keys}",
        )
        for part, (keys, shape) in ENTRIES.items()
        for fault, edit in (
            ("one short of", list.pop),
            ("one more than", lambda entries: entries.append(entries[-1])),
        )
    },
    # a run line holds an item as one field, which neither item can be
    **{
        f"graph item {item!r}": (
            lambda d, item=item: edit_toc(d, lambda toc: _rename_item(toc, item)),
            "a graph item is empty or holds whitespace",
        )
        for item in ("", "a b")
    },
    **{
        f"items {fault}": (lambda d, items=items: edit_toc(d, lambda toc: toc.update({"items": items})), ITEMS)
        for fault, items in (("unsorted", ["B", "A", "C"]), ("duplicated", ["A", "A", "C"]))
    },
    **{
        f"labels {fault}": (lambda d, labels=labels: edit_toc(d, lambda toc: toc.update({"labels": labels})), LABELS)
        for fault, labels in (
            ("unsorted", ["A", "C", "B", "X", "Y"]),
            ("duplicated", ["A", "B", "B", "X", "Y"]),
            ("holding an empty string", ["", "B", "C", "X", "Y"]),
            ("holding a number", ["A", "B", "C", "X", 7]),
        )
    },
    "sha256 of more than the toc": (
        lambda d: edit_manifest(d, lambda m: m["sha256"].update({"params": "00"})),
        "index manifest field 'sha256' is missing or ill-typed",
    ),
    "version 99": (lambda d: edit_manifest(d, lambda m: m.update({"v": 99})), "unknown index manifest version 99"),
    "version '7'": (lambda d: edit_manifest(d, lambda m: m.update({"v": "7"})), "unknown index manifest version '7'"),
    **{
        f"format-6 field {field}": (
            lambda d, field=field: edit_manifest(d, lambda m: m.update({field: 2})),
            f"index manifest field {field!r} is unknown",
        )
        for field in ("L", "graph_count")
    },
    **{
        f"rankers {fault}": (
            lambda d, extra=extra: edit_toc(d, lambda toc: toc["rankers"].append(extra)),
            f"field 'rankers' is missing or ill-typed: ['r1', 'r2', {extra!r}]",
        )
        for fault, extra in (("repeated", "r1"), ("with an empty name", ""))
    },
    # A's entry leads to a record of B's graph: its header names item slot 1
    "graph filed under another item": (
        lambda d: edit_graph_header(d, "A", lambda header: header.update({"query": "B"})),
        "graph record of 'A' holds the graph of 'B'",
    ),
}


def record_span(toc, role, key) -> tuple[int, int]:
    """Where ``key``'s record lies in data file ``role``: from the end of the record before it, or 0, to its own."""
    unit = POSTING.size if role == "postings" else 1  # a postings end counts postings
    slot = toc[ENTRIES[role][0]].index(key)
    return (toc[role][slot - 1][0] * unit if slot else 0), toc[role][slot][0] * unit


def rewrite_record(index_dir, role, key, edit) -> None:
    """Replace one record of data file ``role`` by ``edit(record)`` and reseal the index around it.

    ``key`` is the record's key in the table of contents: an item (graphs,
    ranks) or a label (postings). Ends, digests and the table of contents'
    sha256 are all updated as an index written with the edited record would
    hold them, so only a record check can catch the edit.
    """
    toc = json.loads((index_dir / "toc.json").read_bytes())
    unit = POSTING.size if role == "postings" else 1
    path = index_dir / INDEX_DATA_FILES[role]
    data = path.read_bytes()
    out, start = bytearray(), 0
    for name, entry in zip(toc[ENTRIES[role][0]], toc[role]):
        record, start = data[start : entry[0] * unit], entry[0] * unit
        if name == key:
            record = edit(record)
        out += record
        entry[:2] = [len(out) // unit, hashlib.blake2b(record, digest_size=16).hexdigest()]
    path.write_bytes(bytes(out))
    seal_toc(index_dir, toc)


def slot_width(n_labels: int) -> int:
    """The bytes of a slot among ``n_labels`` labels, or of a count below ``n_labels``, in an index record."""
    return 1 if n_labels <= 256 else 2 if n_labels <= 65536 else 4


@functools.cache
def label_table(size: int) -> tuple[list[str], dict[str, int]]:
    """A sorted label table of ``size`` labels, and each label's slot."""
    labels = [f"l{i:06d}" for i in range(size)]
    return labels, {label: slot for slot, label in enumerate(labels)}


def _uints(data, at, count, width) -> list[int]:
    return [int.from_bytes(data[at + i * width : at + (i + 1) * width], "little") for i in range(count)]


def unpack_rank_record(data: bytes, toc) -> dict:
    """A rank record read by the format-11 layout, as {"query", "ranks": {ranker: {"items", "normalized"}}}.

    A ranker whose count is 0 has no rank. Kept as the layout's specification.
    """
    count, slot = slot_width(toc["L"] + 1), slot_width(len(toc["labels"]))
    at, ranks = 4, {}
    for ranker in toc["rankers"]:
        (k,) = _uints(data, at, 1, count)
        items, normalized = _uints(data, at + count, k, slot), _uints(data, at + count + k * slot, k, count)
        at += count + k * (slot + count)
        if k:
            ranks[ranker] = {"items": [toc["labels"][i] for i in items], "normalized": normalized}
    assert at == len(data)
    return {"query": toc["items"][_uints(data, 0, 1, 4)[0]], "ranks": ranks}


def pack_rank_record(record: dict, toc) -> bytes:
    """The bytes of a rank record given as unpack_rank_record gives it.

    An int item or query is written as the slot it is. Without ``ranks``
    the record is its item slot alone; a rank without ``normalized`` has no
    positions; ranks under rankers the index lacks follow those of its own.
    """
    count, slot = slot_width(toc["L"] + 1), slot_width(len(toc["labels"]))
    query = record["query"]
    out = (query if type(query) is int else toc["items"].index(query)).to_bytes(4, "little")
    ranks = record.get("ranks", {})
    for ranker in [*toc["rankers"], *(r for r in ranks if r not in toc["rankers"])] if "ranks" in record else ():
        rank = ranks.get(ranker, {"items": []})
        out += len(rank["items"]).to_bytes(count, "little")
        out += b"".join((i if type(i) is int else toc["labels"].index(i)).to_bytes(slot, "little") for i in rank["items"])
        out += b"".join(p.to_bytes(count, "little") for p in rank.get("normalized", ()))
    return out


def edit_rank_record(index_dir, ranker, query, edit) -> None:
    """Apply ``edit`` to ``ranker``'s rank, as unpack_rank_record gives it, in ``query``'s rank record, resealing the index.

    With ``ranker`` None, ``edit`` gets the whole record. The index is resealed by rewrite_record.
    """
    toc = json.loads((index_dir / "toc.json").read_bytes())

    def apply(data):
        record = unpack_rank_record(data, toc)
        edit(record if ranker is None else record["ranks"][ranker])
        return pack_rank_record(record, toc)

    rewrite_record(index_dir, "ranks", query, apply)


def edit_graph_header(index_dir, item, edit) -> None:
    """Apply ``edit`` to {"query": item, "vertices": labels} of ``item``'s graph record, resealing the index.

    An int query or label is written as the slot it is.
    """
    toc = json.loads((index_dir / "toc.json").read_bytes())
    items, labels, width = toc["items"], toc["labels"], slot_width(len(toc["labels"]))

    def apply(data):
        n = _uints(data, 4, 1, 4)[0]
        header = {"query": items[_uints(data, 0, 1, 4)[0]], "vertices": [labels[i] for i in _uints(data, 8, n, width)]}
        edit(header)
        query, vertices = header["query"], header["vertices"]
        slots = [v if type(v) is int else labels.index(v) for v in vertices]
        return b"".join((
            (query if type(query) is int else items.index(query)).to_bytes(4, "little"),
            len(vertices).to_bytes(4, "little"),
            *(s.to_bytes(width, "little") for s in slots),
            data[8 + n * width :],
        ))

    rewrite_record(index_dir, "graphs", item, apply)


def mkrank(query, ranker, items, scores=None, depth=None):
    """Build a ScoredRank from an item list; default scores descend from 1.0."""
    if scores is None:
        scores = [1.0 - 0.5 * i / max(1, len(items)) for i in range(len(items))]
    entries = tuple(ScoredEntry(item, score) for item, score in zip(items, scores))
    return ScoredRank(query, ranker, entries, depth if depth is not None else len(entries))


def mkrankset(query, *ranked_lists, depth=None):
    """RankSet from item lists, rankers named r1, r2, ..."""
    ranks = tuple(
        mkrank(query, f"r{i}", items, depth=depth)
        for i, items in enumerate(ranked_lists, start=1)
    )
    return RankSet(query, ranks)


def worked_example_index(L=2):
    """The hand-traced two-ranker fixture behind the worked fusion graph.

    Queries q, A, B, C; B and C rank only themselves plus items outside the
    graph's vertex set (X, Y), which have no ranks of their own.
    """
    layout = {
        "r1": {"q": ["A", "B"], "A": ["A", "B"], "B": ["B", "X"], "C": ["C", "X"]},
        "r2": {"q": ["A", "C"], "A": ["A", "C"], "B": ["B", "Y"], "C": ["C", "Y"]},
    }
    ranks = {
        ranker: {
            query: mkrank(query, ranker, items, scores=[1.0, 0.1], depth=L)
            for query, items in per_query.items()
        }
        for ranker, per_query in layout.items()
    }
    return CollectionRankIndex(ranks)


def random_rank_index(rng: random.Random, n_items=20, n_rankers=3, depth=5, cluster_size=None):
    """Random collection index: every item is a query with a random rank.

    With ``cluster_size``, items are split into consecutive clusters of that
    size and a rank lists only items of the query's own cluster, so graphs of
    different clusters share no vertex.
    """
    items = [f"d{i:03d}" for i in range(n_items)]
    cluster_of = {
        item: i // cluster_size if cluster_size else 0 for i, item in enumerate(items)
    }
    ranks = {}
    for r in range(n_rankers):
        ranker = f"r{r + 1}"
        per_query = {}
        for query in items:
            pool = [i for i in items if i != query and cluster_of[i] == cluster_of[query]]
            rng.shuffle(pool)
            listed = [query] + pool[: depth - 1]
            scores = sorted((rng.uniform(0.1, 10.0) for _ in listed), reverse=True)
            per_query[query] = mkrank(query, ranker, listed, scores, depth)
        ranks[ranker] = per_query
    return CollectionRankIndex(ranks)


def synthetic_collection(seed, n_items=60, n_classes=12, n_rankers=3, depth=10):
    """Labeled synthetic collection with complementary noisy rankers.

    Items are points around class centers. Each ranker observes them through
    its own corruption, mild for the classes it is "good at" (round-robin by
    class index) and strong otherwise, so no single ranker dominates and
    fusing them genuinely helps. Run scores are positional with a random
    per-query curvature: consistent with the rank order but not calibrated
    across queries, like real run files.

    Returns (CollectionRankIndex, labels dict item -> class name).
    """
    rng = np.random.default_rng(seed)
    dims = 6
    centers = rng.normal(0.0, 4.0, size=(n_classes, dims))
    per_class = n_items // n_classes
    items, labels, vectors = [], {}, []
    for c in range(n_classes):
        for k in range(per_class):
            item = f"s{c:02d}_{k}"
            items.append(item)
            labels[item] = f"class{c:02d}"
            vectors.append(centers[c] + rng.normal(0.0, 0.6, size=dims))
    vectors = np.asarray(vectors)
    class_of = np.repeat(np.arange(n_classes), per_class)

    ranks = {}
    for r in range(n_rankers):
        ranker = f"r{r + 1}"
        noise_scale = np.where(class_of % n_rankers == r, 0.7, 2.6)
        view = vectors + rng.normal(0.0, 1.0, size=vectors.shape) * noise_scale[:, None]
        per_query = {}
        for qi, query in enumerate(items):
            distances = np.linalg.norm(view - view[qi], axis=1)
            order = np.argsort(distances, kind="stable")[:depth]
            curvature = rng.uniform(0.2, 5.0)
            scores = np.linspace(1.0, 0.05, num=len(order)) ** curvature
            entries = tuple(
                ScoredEntry(items[j], float(s)) for j, s in zip(order, scores)
            )
            per_query[query] = ScoredRank(query, ranker, entries, depth)
        ranks[ranker] = per_query
    return CollectionRankIndex(ranks), labels


def normalize_graph_weights(g: FusionGraph) -> FusionGraph:
    """Divide vertex and edge weights by their separate maxima, kept as the specification of the builder's last step.

    Idempotent; a graph without edges skips edge normalization. Raises
    EmptyGraph when there is no vertex to normalize.
    """
    if not g.vertices:
        raise EmptyGraph(f"fusion graph for {g.query!r} has no vertices")
    max_vertex = max(g.vertices.values())
    max_edge = max(g.edges.values(), default=1.0)
    return FusionGraph(
        g.query,
        {item: weight / max_vertex for item, weight in g.vertices.items()},
        {pair: weight / max_edge for pair, weight in g.edges.items()},
    )


def reference_build_fusion_graph(rs: RankSet, index, strict: bool = False) -> FusionGraph:
    """Per-occurrence formulation of build_fusion_graph, kept as its specification.

    Walks every neighbour rank once per occurrence of its vertex in the query's
    ranks and sums each edge's parts with math.fsum.
    """
    vertex_parts: dict = {}
    for rank in rs:
        for entry in rank:
            vertex_parts.setdefault(entry.item, []).append(entry.score)
    vertices = {item: math.fsum(parts) for item, parts in vertex_parts.items()}

    edge_parts: dict = {}
    for rank in rs:
        for pos, entry in enumerate(rank, start=1):
            item_a = entry.item
            for ranker in rs.ranker_names:
                rank_a = index.get(ranker, item_a)
                if rank_a is None:
                    if strict:
                        raise MissingRank(ranker, item_a)
                    continue
                for neighbor in rank_a:
                    item_b = neighbor.item
                    if item_b == item_a or item_b not in vertices:
                        continue
                    edge_parts.setdefault((item_a, item_b), []).append(
                        neighbor.score / pos
                    )
    edges = {pair: math.fsum(parts) for pair, parts in edge_parts.items()}
    return normalize_graph_weights(FusionGraph(rs.query, vertices, edges))


def reference_serialize_graph(g: FusionGraph, slots=None, item: int = 0) -> bytes:
    """serialize_graph as two plain sorts and one pack per array, kept as its specification.

    ``slots`` maps labels to their slots in the index's label table; by
    default the table is the graph's own labels.
    """
    labels = sorted(g.vertices)
    slots = slots or {label: i for i, label in enumerate(labels)}
    slot = {label: i for i, label in enumerate(labels)}
    pairs = sorted(g.edges)
    degrees = [sum(src == label for src, _ in pairs) for label in labels]
    code, table_code = ("B" if n <= 256 else "H" if n <= 65536 else "I" for n in (len(labels), len(slots)))
    return b"".join((
        struct.pack("<II", item, len(labels)),
        struct.pack(f"<{len(labels)}{table_code}", *map(slots.__getitem__, labels)),
        struct.pack(f"<{len(labels)}d", *map(g.vertices.__getitem__, labels)),
        struct.pack(f"<{len(labels)}{code}", *degrees),
        struct.pack(f"<{len(pairs)}d", *map(g.edges.__getitem__, pairs)),
        struct.pack(f"<{len(pairs)}{code}", *[slot[tgt] for _, tgt in pairs]),
    ))


def vertex_masses(g: FusionGraph) -> dict[ItemId, float]:
    """Per vertex, the fsum of its weight and its outgoing edge weights, kept as the specification."""
    return {
        label: math.fsum([weight, *(w for (src, _), w in g.edges.items() if src == label)])
        for label, weight in g.vertices.items()
    }


def reference_condorcet(rs: RankSet, depth: int | None = None) -> ScoredRank:
    """Pair-by-pair formulation of baselines.condorcet, kept as its specification.

    Only ranks containing at least one of the pair vote, and an absent item
    loses to a present one. Cycles fall back to the item-id tie rule.
    """
    _check(rs)
    items = sorted({entry.item for rank in rs for entry in rank})
    wins: dict[ItemId, float] = {item: 0.0 for item in items}
    for x, y in itertools.combinations(items, 2):
        x_better = y_better = 0
        for rank in rs:
            px = rank.positions.get(x)
            py = rank.positions.get(y)
            if px is None and py is None:
                continue
            if py is None or (px is not None and px < py):
                x_better += 1
            else:
                y_better += 1
        if x_better > y_better:
            wins[x] += 1
        elif y_better > x_better:
            wins[y] += 1
    return _finalize(rs, wins, depth, "condorcet")


def reference_mra(rs: RankSet, depth: int | None = None) -> ScoredRank:
    """baselines.mra that also sorts each depth's majority by the depth it was first reached, kept as its specification."""
    m = _check(rs)
    length = _depth(rs, depth)
    threshold = m / 2.0
    counts: dict[ItemId, int] = defaultdict(int)
    first_reach: dict[ItemId, int] = {}
    placed: list[ItemId] = []
    placed_set: set[ItemId] = set()
    max_len = max(len(rank) for rank in rs)
    for d in range(1, max_len + 1):
        for rank in rs:
            if len(rank) >= d:
                counts[rank.entries[d - 1].item] += 1
        qualifying = [item for item, c in counts.items() if c > threshold and item not in placed_set]
        for item in qualifying:
            first_reach.setdefault(item, d)
        qualifying.sort(key=lambda item: (-counts[item], first_reach[item], item))
        for item in qualifying:
            placed.append(item)
            placed_set.add(item)
            if len(placed) == length:
                break
        if len(placed) == length:
            break
    total_occurrence: dict[ItemId, int] = defaultdict(int)
    for rank in rs:
        for entry in rank:
            total_occurrence[entry.item] += 1
    leftovers = sorted(
        (item for item in total_occurrence if item not in placed_set),
        key=lambda item: (-total_occurrence[item], item),
    )
    return _order_to_rank(rs, placed + leftovers, depth, "mra")


def reference_mcs(a: FusionGraph, b: FusionGraph, stats: McsStats | None = None) -> FusionGraph:
    """Loop formulation of the common subgraph, with the explicit endpoint check."""
    if stats is None:
        stats = McsStats()
    small, large = (a, b) if len(a.vertices) <= len(b.vertices) else (b, a)
    vertices = {}
    for item, weight in small.vertices.items():
        stats.comparisons += 1
        other = large.vertices.get(item)
        if other is not None:
            vertices[item] = min(weight, other)
    edges = {}
    small_e, large_e = (a, b) if len(a.edges) <= len(b.edges) else (b, a)
    for pair, weight in small_e.edges.items():
        stats.comparisons += 1
        other = large_e.edges.get(pair)
        if other is not None and pair[0] in vertices and pair[1] in vertices:
            edges[pair] = min(weight, other)
    return FusionGraph(a.query, vertices, edges)


def reference_union_size(a: FusionGraph, b: FusionGraph) -> float:
    """Size of the union graph, summed directly as the max weight per key."""
    parts = []
    for item, weight in a.vertices.items():
        other = b.vertices.get(item)
        parts.append(weight if other is None else max(weight, other))
    parts.extend(w for item, w in b.vertices.items() if item not in a.vertices)
    for pair, weight in a.edges.items():
        other = b.edges.get(pair)
        parts.append(weight if other is None else max(weight, other))
    parts.extend(w for pair, w in b.edges.items() if pair not in a.edges)
    return math.fsum(parts)


def reference_dist_mcs(a: FusionGraph, b: FusionGraph) -> float:
    return 1.0 - graph_size(reference_mcs(a, b)) / max(graph_size(a), graph_size(b))


def reference_dist_wgu(a: FusionGraph, b: FusionGraph) -> float:
    return 1.0 - graph_size(reference_mcs(a, b)) / reference_union_size(a, b)


REFERENCE_DISTANCES = {"MCS": reference_dist_mcs, "WGU": reference_dist_wgu}


class OwnRanks:
    """``index`` with the ranks of ``own`` read for its query: one lookup for every rank, the query's too.

    reference_query_graph reads through it, so it normalizes and builds the
    query's graph with the query's own ranks looked up like any other rank.
    """

    def __init__(self, index, own: RankSet):
        self.index, self.query, self.own = index, own.query, {rank.ranker: rank for rank in own}

    def get(self, ranker: str, query: ItemId) -> ScoredRank | None:
        rank = self.own.get(ranker) if query == self.query else None
        return self.index.get(ranker, query) if rank is None else rank


def reference_query_graph(query_ranks: RankSet, fg_index) -> FusionGraph:
    """A query's graph built by normalize_rank_set and reference_build_fusion_graph, never a stored one."""
    normalized = normalize_rank_set(query_ranks, OwnRanks(fg_index.raw, query_ranks), fg_index.depth)
    return reference_build_fusion_graph(normalized, OwnRanks(fg_index.normalized, normalized))


def reference_fuse_query(query_ranks, fg_index, exclude_self=False):
    """Score every indexed item with the reference distance; the full scan, as fuse_query's ScoredRank."""
    query_graph = reference_query_graph(query_ranks, fg_index)
    distance = REFERENCE_DISTANCES[fg_index.comparator]
    scored = []
    for item in sorted(fg_index.graphs):
        if not (exclude_self and item == query_ranks.query):
            scored.append((item, distance(query_graph, fg_index.graphs[item])))
    scored.sort(key=lambda pair: (pair[1], pair[0]))
    entries = ((item, 1.0 - d) for item, d in scored[: fg_index.depth])
    return ScoredRank(query_ranks.query, "fusegraph", entries, fg_index.depth)


BRUTE_FORCE_VERTEX_CAP = 8


class TooLarge(FusionError):
    """Instance exceeds the brute-force oracle size cap."""


def brute_force_mcs(a: FusionGraph, b: FusionGraph) -> FusionGraph:
    """Test oracle: exhaustively enumerate common subgraphs, keep a largest.

    Enumerates every subset of the shared vertex labels and, within each,
    every subset of the shared edges whose endpoints survive, scoring each
    candidate under the same min-weight convention as mcs(). Raises TooLarge
    when more than BRUTE_FORCE_VERTEX_CAP vertex labels are shared, which
    bounds the enumeration at 2^8 vertex subsets.
    """
    shared_vertices = {
        item: min(a.vertices[item], b.vertices[item])
        for item in a.vertices.keys() & b.vertices.keys()
    }
    if len(shared_vertices) > BRUTE_FORCE_VERTEX_CAP:
        raise TooLarge(
            f"{len(shared_vertices)} shared vertices exceed the brute-force cap "
            f"of {BRUTE_FORCE_VERTEX_CAP}"
        )
    shared_edges = {
        pair: min(a.edges[pair], b.edges[pair])
        for pair in a.edges.keys() & b.edges.keys()
    }
    labels = sorted(shared_vertices)
    best: tuple[float, dict, dict] = (0.0, {}, {})
    for r in range(len(labels) + 1):
        for vertex_subset in itertools.combinations(labels, r):
            kept = set(vertex_subset)
            candidate_edges = [
                pair for pair in shared_edges if pair[0] in kept and pair[1] in kept
            ]
            for k in range(len(candidate_edges) + 1):
                for edge_subset in itertools.combinations(candidate_edges, k):
                    size = math.fsum(
                        itertools.chain(
                            (shared_vertices[v] for v in vertex_subset),
                            (shared_edges[e] for e in edge_subset),
                        )
                    )
                    if size > best[0]:
                        best = (
                            size,
                            {v: shared_vertices[v] for v in vertex_subset},
                            {e: shared_edges[e] for e in edge_subset},
                        )
    _, vertices, edges = best
    return FusionGraph(a.query, vertices, edges)
