"""Fusion graphs: one weighted directed graph per query, built from its ranks.

A graph's vertices are the items retrieved for the query, weighted by how
strongly the query's ranks endorse them. Edges point from a retrieved item A
to items B that A's own ranks endorse, weighted by B's scores in those ranks
damped by A's position in the query's ranks. Weights are finally divided by
their separate vertex/edge maxima so graphs are comparable.

All weight sums use math.fsum, so results are independent of accumulation
order: permuting the rankers of a rank set changes no final weight.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import sys
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import EmptyGraph, MalformedGraphRecord, MissingRank
from .model import ItemId, RankLookup, RankSet

GRAPH_RECORD_VERSION = 4

if array("d").itemsize != 8 or array("I").itemsize != 4:
    raise ImportError("graph records need 8-byte 'd' and 4-byte 'I' arrays on this platform")


@dataclass
class BuildStats:
    """Counts rank entries touched while building graphs (cost contract)."""

    entry_visits: int = 0


@dataclass(frozen=True)
class FusionGraph:
    """Weighted directed graph with uniquely labeled vertices.

    A sparse map from keys to weights, where a key is a vertex label or an
    edge (source, target) pair whose endpoints are both vertices.
    """

    query: ItemId
    vertices: dict[ItemId, float]
    edges: dict[tuple[ItemId, ItemId], float]

    def __post_init__(self):
        for (src, tgt) in self.edges:
            if src == tgt:
                raise ValueError(f"self-edge {src!r} -> {tgt!r} not allowed")
            if src not in self.vertices or tgt not in self.vertices:
                raise ValueError(f"edge {src!r} -> {tgt!r} has endpoint outside vertex set")


class Neighbours(NamedTuple):
    """One item's row of a neighbour table, read from its ranks under one ranker tuple.

    ``rows`` holds (B, (item, B), scores) for every B != item in those ranks,
    sorted by B, where scores are B's scores in them: a bare float when B is
    in one of them, else a tuple. ``missing`` is the first ranker of the tuple
    without a rank of the item, or None.
    """

    missing: str | None
    rows: list[tuple[ItemId, tuple[ItemId, ItemId], float | tuple[float, ...]]]


# ranker tuple -> item -> the item's Neighbours under those rankers
NeighbourTable = dict[tuple[str, ...], dict[ItemId, Neighbours]]


def _neighbours(
    index: RankLookup,
    rankers: tuple[str, ...],
    item: ItemId,
    stats: BuildStats,
    within: dict | None = None,
) -> Neighbours:
    """The neighbour-table row of ``item``: its ranks under ``rankers``, each read once.

    With ``within``, neighbours outside it are left out.
    """
    missing = None
    scores: dict[ItemId, float | tuple[float, ...]] = {}
    for ranker in rankers:
        rank = index.get(ranker, item)
        if rank is None:
            if missing is None:
                missing = ranker
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
    rows = [(neighbour, (item, neighbour), x) for neighbour, x in sorted(scores.items())]
    return Neighbours(missing, rows)


def build_fusion_graph(
    rs: RankSet,
    index: RankLookup,
    strict: bool = False,
    stats: BuildStats | None = None,
    table: NeighbourTable | None = None,
) -> FusionGraph:
    """Build and weight-normalize the fusion graph of a normalized rank set.

    ``rs`` must already be normalized (repositioned, rescaled) and ``index``
    must hold the normalized ranks of the items appearing in ``rs``. A vertex
    item with no indexed ranks contributes no outgoing edges in lenient mode
    (the default); strict mode raises MissingRank for the first vertex, in
    rank order, that lacks a rank. A vertex's ranks are read into ``table``
    only when it holds no row for the vertex yet: the graphs of a collection
    share one table, so each collection rank is read once per ranker tuple,
    and the graphs share the table's edge-key tuples. Without ``table`` the
    graph reads into a table of its own.

    Vertex weights sum the item's rescaled scores across the query's ranks.
    The edge A -> B accumulates, for every rank of the query containing A and
    every rank of A containing B (with B also a vertex and B != A), B's
    rescaled score in A's rank divided by A's position in the query's rank.
    Edges come out in sorted key order.
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
    # a table of this graph's own needs no neighbour outside its vertices
    within = vertices if table is None else None
    tabled = ({} if table is None else table).setdefault(rankers, {})
    for item in vertices:  # first occurrences, in rank order
        row = tabled.get(item)
        if row is None:
            row = tabled[item] = _neighbours(index, rankers, item, stats, within)
        if strict and row.missing is not None:
            raise MissingRank(row.missing, item)

    edges: dict[tuple[ItemId, ItemId], float] = {}
    for item_a in sorted(vertices):
        at = positions[item_a]
        for item_b, key, scores in tabled[item_a].rows:
            if item_b not in vertices:
                continue
            if len(at) == 1 and type(scores) is not tuple:
                edges[key] = scores / at[0]  # what fsum gives for one part
            else:
                parts = scores if type(scores) is tuple else (scores,)
                edges[key] = math.fsum([x / pos for pos in at for x in parts])
    return _scaled(rs.query, vertices, edges)


def normalize_graph_weights(g: FusionGraph) -> FusionGraph:
    """Divide vertex and edge weights by their separate maxima.

    Idempotent; a graph without edges skips edge normalization. Raises
    EmptyGraph when there is no vertex to normalize.
    """
    return _scaled(g.query, g.vertices, g.edges)


def _scaled(query: ItemId, vertices: dict, edges: dict) -> FusionGraph:
    """The graph of ``query`` with weights divided by their vertex/edge maxima."""
    if not vertices:
        raise EmptyGraph(f"fusion graph for {query!r} has no vertices")
    max_vertex = max(vertices.values())
    max_edge = max(edges.values(), default=1.0)
    # the keys come from a checked graph or from build_fusion_graph, which
    # joins two distinct vertices only, so the constructor's checks are skipped
    graph = object.__new__(FusionGraph)
    graph.__dict__.update(
        query=query,
        vertices={item: weight / max_vertex for item, weight in vertices.items()},
        edges={pair: weight / max_edge for pair, weight in edges.items()},
    )
    return graph


def graph_size(g: FusionGraph) -> float:
    """Sum of all vertex and edge weights; 0 for the empty graph."""
    return math.fsum(itertools.chain(g.vertices.values(), g.edges.values()))


def edge_masses(g: FusionGraph) -> dict[ItemId, tuple[float, float]]:
    """Per vertex, the fsum of its outgoing and of its incoming edge weights."""
    outgoing: dict[ItemId, list[float]] = {label: [] for label in g.vertices}
    incoming: dict[ItemId, list[float]] = {label: [] for label in g.vertices}
    for (src, tgt), weight in g.edges.items():
        outgoing[src].append(weight)
        incoming[tgt].append(weight)
    return {label: (math.fsum(outgoing[label]), math.fsum(incoming[label])) for label in g.vertices}


def _pack(typecode: str, values) -> str:
    """Base64 of ``values`` as a little-endian array of ``typecode`` items."""
    packed = array(typecode, values)
    if sys.byteorder == "big":
        packed.byteswap()
    return base64.b64encode(packed.tobytes()).decode("ascii")


def _unpack(typecode: str, text: str, name: str) -> array:
    """Inverse of _pack; MalformedGraphRecord for anything it cannot decode."""
    unpacked = array(typecode)
    try:
        unpacked.frombytes(base64.b64decode(text, validate=True))
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise MalformedGraphRecord(f"graph record field {name!r} is not packed base64: {exc}") from exc
    if sys.byteorder == "big":
        unpacked.byteswap()
    return unpacked


class VertexRecord(NamedTuple):
    """A graph's vertex fields as its record stores them, edges left out.

    ``labels`` in record order with their weights, their edge masses
    (edge_masses) and the graph's size (graph_size).
    """

    query: ItemId
    labels: list[ItemId]
    weights: Sequence[float]
    out_mass: Sequence[float]
    in_mass: Sequence[float]
    size: float


def vertex_record(g: FusionGraph) -> VertexRecord:
    """The vertex fields serialize_graph stores for ``g``, labels sorted."""
    labels = sorted(g.vertices)
    masses = edge_masses(g)
    return VertexRecord(
        g.query,
        labels,
        [g.vertices[label] for label in labels],
        [masses[label][0] for label in labels],
        [masses[label][1] for label in labels],
        graph_size(g),
    )


def serialize_graph(g: FusionGraph) -> str:
    """One-line JSON record for the graph store.

    ``vertices`` lists the labels in sorted order; ``vertex_weights`` holds
    their weights, ``out_mass`` and ``in_mass`` their edge masses and
    ``edge_weights`` the weights of the edges in sorted label-pair order, all
    as base64 little-endian float64, so every weight round-trips bit for bit.
    ``edges`` holds each edge's (source, target) positions in ``vertices`` as
    base64 little-endian uint32 pairs, and ``size`` is graph_size(g). The
    record is byte-deterministic.
    """
    head = vertex_record(g)
    slot = {label: i for i, label in enumerate(head.labels)}
    pairs = sorted(g.edges)
    record = {
        "v": GRAPH_RECORD_VERSION,
        "query": g.query,
        "vertices": head.labels,
        "vertex_weights": _pack("d", head.weights),
        "edges": _pack("I", [slot[label] for pair in pairs for label in pair]),
        "edge_weights": _pack("d", map(g.edges.__getitem__, pairs)),
        "out_mass": _pack("d", head.out_mass),
        "in_mass": _pack("d", head.in_mass),
        "size": head.size,
    }
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


def _parse(record: str | bytes) -> dict:
    try:
        data = json.loads(record)
    except json.JSONDecodeError as exc:
        raise MalformedGraphRecord(f"invalid JSON in graph record: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedGraphRecord("graph record is not an object")
    if data.get("v") != GRAPH_RECORD_VERSION:
        raise MalformedGraphRecord(f"unknown graph record version {data.get('v')!r}")
    return data


def _bad(query, problem: str) -> MalformedGraphRecord:
    return MalformedGraphRecord(f"graph record for {query!r} has {problem}")


def _vertex_fields(data: dict) -> VertexRecord:
    try:
        query, labels, size = data["query"], data["vertices"], data["size"]
        weights, out_mass, in_mass = (
            _unpack("d", data[name], name) for name in ("vertex_weights", "out_mass", "in_mass")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedGraphRecord(f"malformed graph record field: {exc}") from exc
    if type(query) is not str:
        raise _bad(query, "a non-string query")
    if not isinstance(labels, list) or not all(type(label) is str for label in labels):
        raise _bad(query, "a non-string label")
    counts = (("vertex weights", weights), ("out masses", out_mass), ("in masses", in_mass))
    for name, values in counts:
        if len(values) != len(labels):
            raise _bad(query, f"{len(values)} {name} for {len(labels)} labels")
    if not labels:
        raise EmptyGraph(f"graph record for {query!r} has an empty vertex map")
    if type(size) is not float or not 0.0 < size < math.inf:
        raise _bad(query, f"size {size!r}, not a positive finite number")
    return VertexRecord(query, labels, weights, out_mass, in_mass, size)


def read_vertex_record(record: str | bytes) -> VertexRecord:
    """The vertex fields of a graph-store record, checked as deserialize_graph checks them.

    Edges are neither decoded nor checked, so this is cheap; deserialize_graph
    stays the full validator.
    """
    return _vertex_fields(_parse(record))


def deserialize_graph(record: str | bytes) -> FusionGraph:
    """Parse a graph-store record; rejects unknown versions and bad shapes.

    The query and every label must be strings, labels and edges must be
    distinct, weights, masses and endpoint pairs must match them in number,
    and every endpoint must name a label. Weights must not be negative, and
    the stored masses and size must be those of the decoded graph, bit for bit.
    """
    data = _parse(record)
    head = _vertex_fields(data)
    query, labels = head.query, head.labels
    try:
        ends = _unpack("I", data["edges"], "edges")
        edge_weights = _unpack("d", data["edge_weights"], "edge_weights")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedGraphRecord(f"malformed graph record field: {exc}") from exc
    if len(ends) != 2 * len(edge_weights):
        raise _bad(query, f"{len(ends)} edge endpoints for {len(edge_weights)} edge weights")
    if ends and max(ends) >= len(labels):
        raise _bad(query, f"an edge endpoint at slot {max(ends)}, beyond its {len(labels)} labels")
    vertices = dict(zip(labels, head.weights))
    if len(vertices) != len(labels):
        raise _bad(query, "a duplicate label")
    named = map(labels.__getitem__, ends)
    # zipping one iterator with itself pairs consecutive endpoints: (src, tgt)
    edges = dict(zip(zip(named, named), edge_weights))
    if len(edges) != len(edge_weights):
        raise _bad(query, "a duplicate edge")
    try:
        graph = FusionGraph(query, vertices, edges)
    except ValueError as exc:
        raise MalformedGraphRecord(str(exc)) from exc
    if min(head.weights) < 0.0 or min(edge_weights, default=0.0) < 0.0:
        raise _bad(query, "a negative weight")
    masses, stored = edge_masses(graph), list(zip(head.out_mass, head.in_mass))
    try:
        consistent = graph_size(graph) == head.size and [masses[v] for v in labels] == stored
    except OverflowError:  # weights too large for fsum to sum
        consistent = False
    if not consistent:
        raise _bad(query, "a size or edge masses that disagree with its weights")
    return graph
