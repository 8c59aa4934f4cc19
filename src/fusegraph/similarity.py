"""Common-subgraph similarity between fusion graphs.

The literature this follows calls the construct the "minimum common subgraph"
even though it maximizes total weight; we implement the maximization and keep
the conventional MCS/WGU names for the two distances derived from it.

Because vertices are uniquely labeled, the maximum-weight common subgraph is
simply the label intersection with min weights per shared vertex/edge, which
needs no search: one hash probe per key of the smaller map.

Graph sizes are computed with math.fsum (exactly rounded), so equal weight
multisets always give equal sizes regardless of iteration order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BothEmpty
from .graph import FusionGraph


@dataclass
class McsStats:
    """Counts membership probes made by the fast intersection (cost contract)."""

    comparisons: int = 0


def mcs(a: FusionGraph, b: FusionGraph, stats: McsStats | None = None) -> FusionGraph:
    """Maximum-total-weight common subgraph of two uniquely-labeled graphs.

    Shared vertices and edges keep the minimum of their two weights. Every
    edge's endpoints lie in its own graph's vertex set, so a shared edge
    always has shared endpoints and needs no further check. An empty
    intersection yields an empty graph, not an error.
    """
    if stats is not None:
        stats.comparisons += min(len(a.vertices), len(b.vertices)) + min(len(a.edges), len(b.edges))
    av, bv, ae, be = a.vertices, b.vertices, a.edges, b.edges
    vertices = {item: min(av[item], bv[item]) for item in av.keys() & bv.keys()}
    edges = {pair: min(ae[pair], be[pair]) for pair in ae.keys() & be.keys()}
    return FusionGraph(a.query, vertices, edges)


def _weights(g: FusionGraph):
    return itertools.chain(g.vertices.values(), g.edges.values())


def graph_size(g: FusionGraph) -> float:
    """Sum of all vertex and edge weights; 0 for the empty graph."""
    return math.fsum(_weights(g))


def _require_nonempty(a: FusionGraph, b: FusionGraph) -> None:
    if not a.vertices and not b.vertices:
        raise BothEmpty("cannot compare two empty graphs (0/0)")


def dist_mcs(a: FusionGraph, b: FusionGraph) -> float:
    """1 - |mcs| / max(|a|, |b|); 0 for identical graphs, 1 for disjoint."""
    _require_nonempty(a, b)
    common = graph_size(mcs(a, b))
    return 1.0 - common / max(graph_size(a), graph_size(b))


def dist_wgu(a: FusionGraph, b: FusionGraph) -> float:
    """1 - |mcs| / |union|, the union size letting the smaller graph matter.

    |union| sums the max weight per key, and max = a + b - min exactly, so
    fsum over |a| + |b| - |mcs| gives the correctly rounded union size. Never
    below dist_mcs for the same pair.
    """
    _require_nonempty(a, b)
    common = mcs(a, b)
    union = math.fsum(itertools.chain(_weights(a), _weights(b), (-w for w in _weights(common))))
    return 1.0 - graph_size(common) / union
