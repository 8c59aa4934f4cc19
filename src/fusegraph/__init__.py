"""Graph-based late fusion of ranked lists.

Builds one weighted "fusion graph" per query out of the ranks that several
rankers return for it, then ranks collection objects by common-subgraph
similarity between graphs. Ships the classical rank-aggregation baselines
(Borda, RRF, Comb*, MRA, Condorcet, RLSim, exact Kemeny) and a retrieval
evaluation suite (NDCG@k, N-S score, rank correlations, ranker selection,
winning numbers, paired t-test) for comparison.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it, listed per module. A name's module is
# imported on its first access, so `import fusegraph` loads none of them.
_HOMES = {
    name: module
    for module, names in {
        "errors": ("FusionError",),
        "graph": ("FusionGraph", "build_fusion_graph"),
        "model": ("CollectionRankIndex", "ItemId", "RankSet", "ScoredEntry", "ScoredRank", "assemble_rank_set"),
        "normalize": ("normalize_rank_set",),
        "retrieval": ("FusionGraphIndex", "fuse_query", "index_collection"),
        "similarity": ("dist_mcs", "dist_wgu", "graph_size", "mcs"),
    }.items()
    for name in names
}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
