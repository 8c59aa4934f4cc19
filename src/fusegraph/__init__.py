"""Graph-based late fusion of ranked lists.

Builds one weighted "fusion graph" per query out of the ranks that several
rankers return for it, then ranks collection objects by common-subgraph
similarity between graphs. Ships the classical rank-aggregation baselines
(Borda, RRF, Comb*, MRA, Condorcet, RLSim, exact Kemeny) and a retrieval
evaluation suite (NDCG@k, N-S score, rank correlations, ranker selection,
winning numbers, paired t-test) for comparison.
"""

from .errors import FusionError
from .graph import FusionGraph, build_fusion_graph, normalize_graph_weights
from .model import (
    CollectionRankIndex,
    FusedRank,
    ItemId,
    RankSet,
    ScoredEntry,
    ScoredRank,
    assemble_rank_set,
)
from .normalize import normalize_rank_set
from .similarity import dist_mcs, dist_wgu, graph_size, mcs

__version__ = "0.1.0"

__all__ = [
    "CollectionRankIndex",
    "FusedRank",
    "FusionError",
    "FusionGraph",
    "FusionGraphIndex",
    "ItemId",
    "RankSet",
    "ScoredEntry",
    "ScoredRank",
    "assemble_rank_set",
    "build_fusion_graph",
    "dist_mcs",
    "dist_wgu",
    "fuse_query",
    "graph_size",
    "index_collection",
    "mcs",
    "normalize_graph_weights",
    "normalize_rank_set",
    "__version__",
]

_RETRIEVAL_NAMES = ("FusionGraphIndex", "fuse_query", "index_collection")


def __getattr__(name: str):
    # The retrieval engine is imported on first use, so that importing
    # fusegraph.io, .baselines or .evaluation does not load it.
    if name in _RETRIEVAL_NAMES:
        from . import retrieval

        return getattr(retrieval, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
