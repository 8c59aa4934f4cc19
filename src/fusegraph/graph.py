"""Fusion graphs: one weighted directed graph per query, built from its ranks.

A graph's vertices are the items retrieved for the query, weighted by how
strongly the query's ranks endorse them. Edges point from a retrieved item A
to items B that A's own ranks endorse, weighted by B's scores in those ranks
damped by A's position in the query's ranks. Weights are finally divided by
their separate vertex/edge maxima so graphs are comparable.

Every weight sum is correctly rounded, as math.fsum's, so results do not depend
on accumulation order: permuting the rankers of a rank set changes no weight.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from collections import Counter
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import EmptyGraph, MalformedGraphRecord
from .model import CollectionRankIndex, ItemId, RankSet, ScoredRank


class BuildStats:
    """Counts of an index build.

    ``entry_visits`` counts the rank entries read while building graphs (a
    cost contract); ``items_without_ranks`` counts the collection items that
    a lenient build left out because no chosen ranker ranks them.
    """

    def __init__(self, entry_visits: int = 0, items_without_ranks: int = 0):
        self.entry_visits, self.items_without_ranks = entry_visits, items_without_ranks


class FusionGraph:
    """Weighted directed graph with uniquely labeled vertices.

    A sparse map from keys to finite positive weights, where a key is a
    vertex label or an edge (source, target) pair whose endpoints are both
    vertices. A builder graph makes its ``edges`` from its record's arrays when first read.
    """

    def __init__(self, query: ItemId, vertices: dict[ItemId, float], edges: dict[tuple[ItemId, ItemId], float]):
        for key, weight in itertools.chain(vertices.items(), edges.items()):
            if not 0.0 < weight < math.inf:  # false for NaN too
                raise ValueError(f"weight of {key!r} must be finite and positive, got {weight!r}")
        for (src, tgt) in edges:
            if src == tgt:
                raise ValueError(f"self-edge {src!r} -> {tgt!r} not allowed")
            if src not in vertices or tgt not in vertices:
                raise ValueError(f"edge {src!r} -> {tgt!r} has endpoint outside vertex set")
        self.query, self.vertices, self.edges = query, vertices, edges

    def __eq__(self, other):
        if type(other) is not FusionGraph:
            return NotImplemented
        return (self.query, self.vertices, self.edges) == (other.query, other.vertices, other.edges)

    @cached_property
    def edges(self) -> dict[tuple[ItemId, ItemId], float]:  # runs for builder graphs only; others set edges
        return _edge_dict(*self._arrays)


def _edge_dict(labels: list[ItemId], _weights, degrees, edge_weights, targets) -> dict[tuple[ItemId, ItemId], float]:
    """The edges of a graph's record arrays, in their order; a target slot past the labels raises IndexError."""
    sources = itertools.chain.from_iterable(map(itertools.repeat, labels, degrees))
    return dict(zip(zip(sources, map(labels.__getitem__, targets)), edge_weights))


# One item's row of a neighbour table, read from its ranks under one ranker
# tuple: (B, scores) for every B != item in those ranks, sorted by B, where
# scores are B's scores in them: a bare float when B is in one of them, else
# a tuple.
Neighbours = list[tuple[ItemId, float | tuple[float, ...]]]
# ranker tuple -> item -> the item's Neighbours under those rankers
NeighbourTable = dict[tuple[str, ...], dict[ItemId, Neighbours]]


def _neighbours(
    item: ItemId,
    ranks: Iterable[ScoredRank | None],
    stats: BuildStats,
    within: dict | None = None,
) -> Neighbours:
    """The neighbour-table row of ``item``: its ``ranks``, one per ranker, each read once.

    With ``within``, neighbours outside it are left out; a missing rank
    (None) adds none.
    """
    scores: dict[ItemId, float | tuple[float, ...]] = {}
    for rank in ranks:
        if rank is None:
            continue
        stats.entry_visits += len(rank)
        for neighbour, score in rank:
            if neighbour == item or (within is not None and neighbour not in within):
                continue
            seen = scores.get(neighbour)
            if seen is None:
                scores[neighbour] = score
            else:
                scores[neighbour] = (*seen, score) if type(seen) is tuple else (seen, score)
    return sorted(scores.items())


def build_fusion_graph(
    rs: RankSet,
    index: CollectionRankIndex,
    stats: BuildStats | None = None,
    table: NeighbourTable | None = None,
) -> FusionGraph:
    """Build and weight-normalize the fusion graph of a normalized rank set.

    ``rs`` must already be normalized (repositioned, rescaled). The query's
    own row comes from ``rs``; every other vertex's comes from ``index``,
    which holds the normalized ranks of the collection. A vertex item with
    no indexed ranks contributes no outgoing edges (strict mode's MissingRank
    is raised by index_collection, before any graph is built). A vertex's
    ranks are read into ``table`` only when it holds no row for the vertex
    yet: the graphs of a collection, whose rank sets are the index's own,
    share one table, so each collection rank is read once per ranker tuple.
    Without ``table`` the graph reads into a table of its own.

    Vertex weights sum the item's rescaled scores across the query's ranks.
    The edge A -> B accumulates, for every rank of the query containing A and
    every rank of A containing B (with B also a vertex and B != A), B's
    rescaled score in A's rank divided by A's position in the query's rank.
    Edges come out as the graph's record arrays, in sorted key order.
    """
    if stats is None:
        stats = BuildStats()
    vertex_parts: dict[ItemId, list[float]] = {}
    positions: dict[ItemId, list[int]] = {}
    for rank in rs:
        stats.entry_visits += len(rank)
        for pos, (item, score) in enumerate(rank, start=1):
            parts = vertex_parts.get(item)
            if parts is None:
                vertex_parts[item] = [score]
                positions[item] = [pos]
            else:
                parts.append(score)
                positions[item].append(pos)
    vertices = {item: math.fsum(parts) for item, parts in vertex_parts.items()}

    rankers = rs.ranker_names
    labels = sorted(vertices)
    slots = {label: i for i, label in enumerate(labels)}
    # a table of this graph's own needs no neighbour outside its vertices
    within = slots if table is None else None
    tabled = ({} if table is None else table).setdefault(rankers, {})
    degrees, weights, targets = [], [], []  # the edges', in sorted key order
    for item_a in labels:
        at = positions[item_a]
        rows = tabled.get(item_a)
        if rows is None:
            ranks = rs if item_a == rs.query else map(index.get, rankers, itertools.repeat(item_a))
            rows = tabled[item_a] = _neighbours(item_a, ranks, stats, within)
        start = len(weights)
        for item_b, scores in rows:
            if (slot := slots.get(item_b)) is None:
                continue
            targets.append(slot)
            if type(scores) is not tuple:
                if len(at) == 1:
                    weights.append(scores / at[0])  # as fsum gives one part; one addition rounds two as it does
                    continue
                weight = scores / at[0] + scores / at[1] if len(at) == 2 else math.inf
            else:
                weight = scores[0] / at[0] + scores[1] / at[0] if len(at) == 1 and len(scores) == 2 else math.inf
            if not math.isfinite(weight):  # three parts or more, or two whose sum overflows, on which fsum raises
                parts = scores if type(scores) is tuple else (scores,)
                weight = math.fsum([x / pos for pos in at for x in parts])
            weights.append(weight)
        degrees.append(len(weights) - start)
    if not vertices:
        raise EmptyGraph(f"fusion graph for {rs.query!r} has no vertices")
    max_vertex = max(vertices.values())
    max_edge = max(weights, default=1.0)
    vertices = {item: weight / max_vertex for item, weight in vertices.items()}
    weights = list(map(operator.truediv, weights, itertools.repeat(max_edge)))
    # every edge joins two distinct vertices and every weight is a positive sum: the constructor's checks hold
    return _unchecked(rs.query, vertices, (labels, [*map(vertices.get, labels)], degrees, weights, targets))


def _unchecked(query: ItemId, vertices: dict, edges: dict | tuple) -> FusionGraph:
    """A FusionGraph whose caller vouches for the constructor's checks, built without them; a builder gives arrays."""
    graph = object.__new__(FusionGraph)
    graph.__dict__.update(query=query, vertices=vertices)
    graph.__dict__["edges" if type(edges) is dict else "_arrays"] = edges
    return graph


def graph_size(g: FusionGraph) -> float:
    """Sum of all vertex and edge weights; 0 for the empty graph."""
    return math.fsum(itertools.chain(g.vertices.values(), g.edges.values()))


class VertexRecord(NamedTuple):
    """What a search bound reads of a graph, edges left out.

    ``labels`` sorted, with each one's mass, the fsum of its weight and its
    outgoing edge weights, and the graph's size (graph_size).
    """

    labels: list[ItemId]
    mass: Sequence[float]
    size: float


def _record_arrays(g: FusionGraph) -> tuple:
    """The arrays of g's record (see serialize_graph), labels first, made from its dicts."""
    labels, edges = sorted(g.vertices), sorted(g.edges)
    slot, degrees = {label: i for i, label in enumerate(labels)}, Counter(src for src, _ in edges)
    weights, edge_weights = [*map(g.vertices.get, labels)], [*map(g.edges.get, edges)]
    return labels, weights, [*map(degrees.__getitem__, labels)], edge_weights, [slot[tgt] for _, tgt in edges]


def _vertex_record(labels: list[ItemId], weights, degrees, edge_weights, _targets=()) -> VertexRecord:
    """The vertex record of a graph's record arrays; each label's edges are a slice, and fsum takes any order."""
    ends = itertools.accumulate(degrees)
    mass = [math.fsum((w, *edge_weights[end - d : end])) for w, d, end in zip(weights, degrees, ends)]
    return VertexRecord(labels, mass, math.fsum(itertools.chain(weights, edge_weights)))


def vertex_record(g: FusionGraph) -> VertexRecord:
    """The vertex record of ``g``, labels sorted; an edge dict is summed in its own order, which needs no sort."""
    if "_arrays" in g.__dict__:
        return _vertex_record(*g._arrays)
    parts = {label: [g.vertices[label]] for label in sorted(g.vertices)}  # the weight, then the outgoing edges'
    for (src, _), weight in g.edges.items():
        parts[src].append(weight)
    return VertexRecord(list(parts), list(map(math.fsum, parts.values())), graph_size(g))


def _slot_code(n_labels: int) -> str:
    """The struct code of a slot among ``n_labels`` labels, or of a count up to ``n_labels`` - 1, in an index record."""
    return "B" if n_labels <= 256 else "H" if n_labels <= 65536 else "I"


HEADER = struct.Struct("<II")  # a graph record's item slot and label count


def serialize_graph(g: FusionGraph, slots: Mapping[ItemId, int], item: int) -> tuple[bytes, VertexRecord]:
    """The graph-store record of ``g``, and vertex_record(g), both taken from the same arrays.

    ``slots`` maps each label of the index's sorted label table to its
    position there, and ``item`` is g's query's slot among the index's sorted
    graph items. A record is little-endian binary: a header of the item slot
    and the label count (uint32 each) and each label's slot in the table, in
    sorted label order, then the graph's arrays in compressed sparse rows:
    the vertex weights in that order (float64), each label's out-degree, the
    edge weights in sorted (source, target) order (float64) and each edge's
    target slot, its position among the header's labels; an edge's source is
    implied by the out-degrees. A table slot takes 1 byte up to 256 table
    labels, 2 up to 65536 and 4 beyond, and a target slot or a degree takes
    as many for the graph's own label count, so the edge count is what the
    arrays' length leaves after the vertices, at 8 bytes plus a slot per
    edge. Every weight round-trips bit for bit, and the record is
    byte-deterministic. A label with no slot raises KeyError. Weights that
    fsum cannot sum raise its error, as they do in vertex_record(g). A
    builder graph's own arrays are packed, so its edge dict is never made.
    """
    labels, weights, degrees, edge_weights, targets = arrays = g.__dict__.get("_arrays") or _record_arrays(g)
    n, m, code = len(labels), len(edge_weights), _slot_code(len(labels))
    layout = f"<II{n}{_slot_code(len(slots))}{n}d{n}{code}{m}d{m}{code}"
    record = struct.pack(layout, item, n, *map(slots.__getitem__, labels), *weights, *degrees, *edge_weights, *targets)
    return record, _vertex_record(*arrays)


def _bad(query, problem: str) -> MalformedGraphRecord:
    return MalformedGraphRecord(f"graph record for {query!r} has {problem}")


def deserialize_graph(
    record: bytes, table: Sequence[ItemId], items: Sequence[ItemId], size: float | None = None
) -> FusionGraph:
    """Parse a graph-store record whose slots index ``table``, the sorted labels, and ``items``, the sorted graph items.

    The header must hold an item slot among ``items``, and at least one
    label slot, each inside ``table``; the arrays must hold one weight and
    one out-degree per label and whole edges, and the degrees must sum to
    the edge count. Labels and edges must be distinct, every target must name
    another label than its source, and every weight must be finite and
    positive. With ``size``, the weights must sum to it, as graph_size does.
    The labels are ``table``'s own strings.
    """
    try:
        item, n = HEADER.unpack_from(record)
        query = items[item]
    except (IndexError, struct.error):
        raise MalformedGraphRecord(f"graph record has no header naming one of the {len(items)} graph items") from None
    table_code = _slot_code(len(table))
    start = HEADER.size + n * struct.calcsize(table_code)
    if len(record) < start:
        raise _bad(query, f"{len(record)} bytes, too few for the slots of its {n} labels")
    if not n:
        raise EmptyGraph(f"graph record for {query!r} has an empty vertex map")
    slots = struct.unpack_from(f"<{n}{table_code}", record, HEADER.size)
    try:
        labels = [*map(table.__getitem__, slots)]
    except IndexError:
        raise _bad(query, f"a label slot {max(slots)}, beyond the {len(table)} labels of its index") from None
    body, code = record[start:], _slot_code(n)
    unit = 8 + struct.calcsize(code)  # a weight and a slot or a degree, per vertex and per edge
    n_edges = len(body) // unit - n
    if n_edges < 0 or len(body) % unit:
        raise _bad(query, f"{len(body)} bytes of arrays, not {unit} per vertex for {n} and {unit} per edge")
    values = struct.unpack(f"<{n}d{n}{code}{n_edges}d{n_edges}{code}", body)
    weights, degrees = values[:n], values[n : 2 * n]
    edge_weights, targets = values[2 * n : 2 * n + n_edges], values[2 * n + n_edges :]
    if sum(degrees) != n_edges:
        raise _bad(query, f"out-degrees that sum to {sum(degrees)}, not its {n_edges} edges")
    try:  # a target beyond the labels raises as the lazy zips reach it
        edges = _edge_dict(labels, weights, degrees, edge_weights, targets)
    except IndexError:
        raise _bad(query, f"an edge target at slot {max(targets)}, beyond its {n} labels") from None
    vertices = dict(zip(labels, weights))
    if len(vertices) != n:
        raise _bad(query, "a duplicate label")
    if any(map(edges.__contains__, zip(labels, labels))):  # n probes, not a compare per edge
        raise _bad(query, "a self-edge")
    if len(edges) != n_edges:
        raise _bad(query, "a duplicate edge")
    try:  # a NaN or an infinity makes the sum one, and no weight sums too large for it
        total = math.fsum(itertools.chain(weights, edge_weights))
    except (OverflowError, ValueError):  # ValueError: an infinity of each sign
        total = math.inf
    if not math.isfinite(total) or min(weights) <= 0.0 or min(edge_weights, default=1.0) <= 0.0:  # -0.0 too
        raise _bad(query, "a weight that is not finite and positive")
    if size is not None and total != size:
        raise _bad(query, f"weights that disagree with its size {size!r}")
    # every target names another label, so the constructor's edge checks hold
    return _unchecked(query, vertices, edges)
