"""Common-subgraph similarity between fusion graphs.

The literature this follows calls the construct the "minimum common subgraph"
even though it maximizes total weight; we implement the maximization and keep
the conventional MCS/WGU names for the two distances derived from it.

Because vertices are uniquely labeled, the maximum-weight common subgraph is
simply the label intersection with min weights per shared vertex/edge, which
needs no search: one hash probe per key of the smaller map.

Graph sizes are computed with math.fsum (exactly rounded), so equal weight
multisets always give equal sizes regardless of iteration order. A size given
to dist_mcs or dist_wgu must be graph_size's, bit for bit.
"""

from __future__ import annotations

import itertools
import math

from .errors import BothEmpty
from .graph import FusionGraph, _unchecked, graph_size

UNION_SLACK = 2.0**-48


class McsStats:
    """Counts membership probes made by the fast intersection (cost contract)."""

    def __init__(self, comparisons: int = 0):
        self.comparisons = comparisons


def mcs(a: FusionGraph, b: FusionGraph, stats: McsStats | None = None) -> FusionGraph:
    """Maximum-total-weight common subgraph of two uniquely-labeled graphs.

    Shared vertices and edges keep the minimum of their two weights. Every
    edge's endpoints lie in its own graph's vertex set, so a shared edge
    always has shared endpoints, and no graph has a self-edge, so the result
    skips the constructor's checks. An empty intersection yields an empty
    graph, not an error. The shared keys are found with one ``.get`` per key
    of the smaller vertex map and of the smaller edge map, the probes
    ``stats`` counts.
    """
    (av, bv), (ae, be) = sorted((a.vertices, b.vertices), key=len), sorted((a.edges, b.edges), key=len)
    if stats is not None:
        stats.comparisons += len(av) + len(ae)
    # x if x < w else w is min(w, x) without the call
    vertices = {key: x if x < w else w for key, w in av.items() if (x := bv.get(key)) is not None}
    edges = {key: x if x < w else w for key, w in ae.items() if (x := be.get(key)) is not None}
    return _unchecked(a.query, vertices, edges)


def _weights(g: FusionGraph):
    return itertools.chain(g.vertices.values(), g.edges.values())


def _require_nonempty(a: FusionGraph, b: FusionGraph) -> None:
    if not a.vertices and not b.vertices:
        raise BothEmpty("cannot compare two empty graphs (0/0)")


def dist_mcs(a: FusionGraph, b: FusionGraph, size_a: float | None = None, size_b: float | None = None) -> float:
    """1 - |mcs| / max(|a|, |b|); 0 for identical graphs, 1 for disjoint.

    ``size_a`` and ``size_b``, graph_size(a) and graph_size(b), are summed
    here unless the caller holds them.
    """
    _require_nonempty(a, b)
    common = graph_size(mcs(a, b))
    if size_a is None or size_b is None:
        size_a, size_b = graph_size(a), graph_size(b)
    return 1.0 - common / max(size_a, size_b)


def dist_wgu(a: FusionGraph, b: FusionGraph, size_a: float | None = None, size_b: float | None = None) -> float:
    """1 - |mcs| / |union|, the union size letting the smaller graph matter.

    |union| sums the max weight per key, and max = a + b - min exactly, so
    fsum over |a| + |b| - |mcs| gives the correctly rounded union size. Never
    below dist_mcs for the same pair. ``size_a`` and ``size_b`` are taken as
    dist_mcs takes them, and not read: the sum of the two rounded sizes less
    |mcs| would round again, so the union sums every weight of both graphs.
    """
    _require_nonempty(a, b)
    common = mcs(a, b)
    union = math.fsum(itertools.chain(_weights(a), _weights(b), (-w for w in _weights(common))))
    return 1.0 - graph_size(common) / union


def dist_mcs_floor(common: float, size_a: float, size_b: float) -> float:
    """A value never above dist_mcs(a, b), from the two sizes and a bound on |mcs|.

    ``size_a`` and ``size_b`` must be graph_size(a) and graph_size(b), and
    ``common`` at least graph_size(mcs(a, b)). The common subgraph is never
    larger than the smaller graph, so capping ``common`` there keeps that
    true; rounded division and subtraction are monotone, so the result is at
    most what dist_mcs computes, bit for bit.
    """
    return 1.0 - min(common, size_a, size_b) / max(size_a, size_b)


def dist_wgu_floor(common: float, size_a: float, size_b: float) -> float:
    """A value never above dist_wgu(a, b), under dist_mcs_floor's conditions.

    The exact union is at least |a| + |b| - |mcs|. With ``common`` capped at
    the smaller size, that difference is at least the larger size, so its
    rounding and that of the two sizes stay within a few units in the last
    place; deflating it by UNION_SLACK (2^-48) relative keeps it below the
    correctly rounded union dist_wgu divides by.
    """
    common = min(common, size_a, size_b)
    return 1.0 - common / ((size_a + size_b - common) * (1.0 - UNION_SLACK))
