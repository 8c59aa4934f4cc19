"""Acceptance suite: one test per acceptance criterion, at its stated
tolerance, printing one PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines live.
The dataset hook at the bottom is optional and skips unless externally
supplied run files are pointed to by FUSEGRAPH_UKBENCH_DIR.
"""

import itertools
import math
import os
import random
import time
from pathlib import Path

import pytest

from fusegraph import baselines
from fusegraph.analysis import jaccard_corr, kendall_corr, select_rankers, selection_measure, spearman_corr
from fusegraph.cli import main as cli_main
from fusegraph.config import load_config, load_runs
from fusegraph.evaluation import Qrels, ndcg_at_k, ns_score
from fusegraph.graph import BuildStats, FusionGraph, build_fusion_graph
from fusegraph.io import parse_class_labels, parse_run_file
from fusegraph.model import CollectionRankIndex, assemble_rank_set
from fusegraph.normalize import (
    delta,
    normalize_collection,
    normalize_rank,
    normalize_rank_set,
)
from fusegraph.retrieval import fuse_query, index_collection
from fusegraph.similarity import McsStats, dist_mcs, dist_wgu, graph_size, mcs

from helpers import (
    TOY_LAYOUT,
    TOY_QUERY,
    brute_force_mcs,
    index_files,
    mkrank,
    mkrankset,
    normalize_graph_weights,
    random_rank_index,
    synthetic_collection,
    write_config,
    write_runs,
)


class criterion:
    """Prints 'ACCEPTANCE <name>: PASS|FAIL' when the block finishes."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.name}: {status}")
        return False


def random_graph(rng, labels, max_vertices=6, max_edges=6, name="g"):
    chosen = rng.sample(labels, rng.randint(1, max_vertices))
    vertices = {v: rng.uniform(0.05, 1.0) for v in chosen}
    edges = {}
    if len(chosen) > 1:
        for _ in range(rng.randint(0, max_edges)):
            src, tgt = rng.sample(chosen, 2)
            edges[(src, tgt)] = rng.uniform(0.05, 1.0)
    return FusionGraph(name, vertices, edges)


def test_mcs_oracle_equivalence():
    with criterion("mcs oracle equivalence (500 pairs, exact)"):
        rng = random.Random(20240601)
        labels = [f"v{i}" for i in range(9)]
        started = time.monotonic()
        for _ in range(500):
            a = random_graph(rng, labels, name="a")
            b = random_graph(rng, labels, name="b")
            assert graph_size(brute_force_mcs(a, b)) == graph_size(mcs(a, b))
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_distance_axioms():
    with criterion("distance axioms (1000 pairs)"):
        rng = random.Random(97)
        labels = [f"v{i}" for i in range(10)]
        for i in range(1000):
            a = random_graph(rng, labels, name="a")
            if i % 5 == 0:
                # force a disjoint pair
                b = FusionGraph(
                    "b",
                    {f"w{k}": w for k, w in enumerate(random_graph(rng, labels).vertices.values())},
                    {},
                )
            else:
                b = random_graph(rng, labels, name="b")
            a = normalize_graph_weights(a)
            b = normalize_graph_weights(b)
            d_mcs, d_wgu = dist_mcs(a, b), dist_wgu(a, b)
            assert 0.0 <= d_mcs <= 1.0 and 0.0 <= d_wgu <= 1.0
            assert d_mcs == dist_mcs(b, a)  # symmetric to within 0
            assert d_wgu == dist_wgu(b, a)
            assert abs(dist_mcs(a, a)) <= 1e-12 and abs(dist_wgu(b, b)) <= 1e-12
            assert d_wgu >= d_mcs
            if not (a.vertices.keys() & b.vertices.keys()):
                assert d_mcs == 1.0 and d_wgu == 1.0


def test_worked_example_fixture(tmp_path):
    with criterion("worked-example fixture (exact graph, dists at 1e-9)"):
        # textual fixture: the toy collection plus q's own rank rows
        layout = {r: dict(TOY_LAYOUT[r], **TOY_QUERY[r]) for r in TOY_LAYOUT}
        paths = write_runs(tmp_path, layout, "fixture")
        depth = 2
        runs = {r: parse_run_file(paths[r], r, depth=2) for r in paths}
        index = CollectionRankIndex(runs)
        normalized = normalize_collection(index, ("r1", "r2"), depth)
        rs = assemble_rank_set("q", normalized, ("r1", "r2"))
        graph = build_fusion_graph(rs, normalized)
        assert graph.vertices == {"A": 1.0, "B": 0.05, "C": 0.05}
        assert graph.edges == {("A", "B"): 1.0, ("A", "C"): 1.0}

        a = FusionGraph("a", {"A": 1.0, "B": 0.5}, {("A", "B"): 1.0})
        b = FusionGraph("b", {"A": 0.8, "C": 0.3}, {})
        assert dist_mcs(a, b) == pytest.approx(0.68, abs=1e-9)
        assert dist_wgu(a, b) == pytest.approx(1 - 0.8 / 2.8, abs=1e-9)
        assert dist_wgu(a, b) == pytest.approx(0.714286, abs=1e-6)


def test_normalization_contract():
    with criterion("normalization contract (200 random rank sets)"):
        rng = random.Random(5150)
        for case in range(200):
            depth = rng.randint(2, 8)
            n_rankers = rng.randint(1, 4)
            index = random_rank_index(
                rng, n_items=depth + rng.randint(2, 8), n_rankers=n_rankers, depth=depth
            )
            query = rng.choice(index.collection_items())
            rs = assemble_rank_set(query, index, index.rankers)
            normalized = normalize_rank_set(rs, index, depth)
            for raw, norm in zip(rs, normalized):
                scores = [e.score for e in norm.entries]
                assert scores[0] == 1.0
                if len(norm) == depth:
                    assert scores[-1] == 0.1
                # independent stable sort over delta: explicit index tiebreak
                kept = raw.entries[:depth]
                deltas = [
                    delta(raw, e.item, index, depth) for e in kept
                ]
                reference = [
                    e.item
                    for _, _, e in sorted(
                        (d, i, e) for i, (d, e) in enumerate(zip(deltas, kept))
                    )
                ]
                assert list(normalize_rank(raw, index, depth).items()) == reference
            # delta symmetry whenever both positions exist
            ranker = rng.choice(index.rankers)
            items = index.collection_items()
            for _ in range(5):
                i, j = rng.choice(items), rng.choice(items)
                rank_i, rank_j = index.get(ranker, i), index.get(ranker, j)
                if (
                    rank_i is not None
                    and rank_j is not None
                    and j in rank_i.positions
                    and i in rank_j.positions
                ):
                    assert delta(rank_i, j, index, depth) == delta(
                        rank_j, i, index, depth
                    )


def test_self_retrieval():
    with criterion("self-retrieval (n=60 synthetic, every query at rank 1, dist 0, so score 1)"):
        index, _ = synthetic_collection(seed=1)
        depth = 10
        fg_index = index_collection(index, index.rankers, depth, "WGU")
        for query in index.collection_items():
            rs = assemble_rank_set(query, index, index.rankers)
            fused = fuse_query(rs, fg_index)
            assert fused.entries[0] == (query, 1.0), f"query {query} not first"


def test_fusion_benefit():
    with criterion("fusion benefit over rankers and Borda/RRF/CombSUM (5 seeds)"):
        for seed in (1, 2, 3, 4, 5):
            index, labels = synthetic_collection(seed)
            qrels = Qrels.from_class_labels(labels)
            depth = 10
            rankers = index.rankers
            fg_index = index_collection(index, rankers, depth, "WGU")
            items = index.collection_items()

            def mean_ndcg(runs):
                return math.fsum(ndcg_at_k(runs[q], qrels, 10) for q in items) / len(items)

            fg, borda_runs, rrf_runs, comb_runs = {}, {}, {}, {}
            singles = {r: {} for r in rankers}
            for q in items:
                rs = assemble_rank_set(q, index, rankers)
                fg[q] = fuse_query(rs, fg_index)
                borda_runs[q] = baselines.borda(rs)
                rrf_runs[q] = baselines.rrf(rs)
                comb_runs[q] = baselines.comb(rs, "SUM")
                for r in rankers:
                    singles[r][q] = index.get(r, q)
            fg_score = mean_ndcg(fg)
            for r in rankers:
                assert fg_score >= mean_ndcg(singles[r]), f"seed {seed}: ranker {r} beat FG"
            for name, runs in (("borda", borda_runs), ("rrf", rrf_runs), ("combsum", comb_runs)):
                floor = mean_ndcg(runs) - 0.005
                assert fg_score >= floor, f"seed {seed}: {name} beat FG beyond floor"


def test_baseline_sanity():
    with criterion("baseline sanity (m=1 identity, fixtures, Kemeny minimality)"):
        strict_rank = mkrankset("q", ["D", "B", "A", "C"])
        for method in baselines.METHODS:
            assert baselines.aggregate(method, strict_rank).items() == ("D", "B", "A", "C")

        borda = baselines.borda(mkrankset("q", ["A", "B", "C"], ["B", "A", "C"]))
        assert borda.items() == ("A", "B", "C")
        assert dict(borda.entries) == {"A": 5.0, "B": 5.0, "C": 2.0}

        mra = baselines.mra(mkrankset("q", ["A", "B", "C"], ["B", "A", "C"], ["A", "C", "B"]))
        assert mra.items() == ("A", "B", "C")

        condorcet = baselines.condorcet(
            mkrankset("q", ["A", "B", "C"], ["A", "B", "C"], ["A", "B", "C"])
        )
        assert condorcet.items() == ("A", "B", "C")
        assert dict(condorcet.entries) == {"A": 2.0, "B": 1.0, "C": 0.0}
        cycle = baselines.condorcet(
            mkrankset("q", ["A", "B", "C"], ["B", "C", "A"], ["C", "A", "B"])
        )
        assert cycle.items() == ("A", "B", "C")

        assert baselines.kemeny_exact(mkrankset("q", ["A", "B"], ["B", "A"])).items() == ("A", "B")

        # exhaustive minimality over every 4-item two-rank instance
        perms = list(itertools.permutations(["A", "B", "C", "D"]))
        for p1 in perms:
            for p2 in perms:
                rs = mkrankset("q", list(p1), list(p2))
                fused = baselines.kemeny_exact(rs)
                best = baselines.kendall_discordance(fused.items(), rs)
                brute = min(baselines.kendall_discordance(p, rs) for p in perms)
                assert best == brute


def test_metric_fixtures():
    with criterion("metric fixtures (NDCG, Kendall, Spearman, Jaccard, selection)"):
        qrels = Qrels({"q": {"a": 1, "c": 1}})
        rank = mkrank("q", "r", ["a", "x", "c"])
        assert ndcg_at_k(rank, qrels, k=3) == pytest.approx(0.91972, abs=1e-5)

        forward = mkrank("q", "r1", ["A", "B", "C"])
        backward = mkrank("q", "r2", ["C", "B", "A"])
        assert kendall_corr(forward, backward) == 0.0
        assert spearman_corr(forward, backward) == pytest.approx(2 / 3, abs=1e-12)

        a = mkrank("q", "r1", [f"d{i}" for i in range(10)])
        b = mkrank("q", "r2", [f"d{i}" for i in range(5)] + [f"e{i}" for i in range(5)])
        assert jaccard_corr(a, b) == 1 / 3

        assert selection_measure(0.9, 0.8, 0.5) == pytest.approx(1.14667, abs=1e-5)

        effs = {"LAS": 0.850533, "CCOM": 0.726186, "LBP": 0.652759}
        corr = {
            "CCOM": {"CCOM": 1.00, "LAS": 0.38, "LBP": 0.25},
            "LAS": {"CCOM": 0.38, "LAS": 1.00, "LBP": 0.30},
            "LBP": {"CCOM": 0.25, "LAS": 0.30, "LBP": 1.00},
        }
        assert set(select_rankers(effs, None, "top-two")) == {"LAS", "CCOM"}
        assert set(select_rankers(effs, corr, "best-pair")) == {"LAS", "LBP"}


def test_complexity_guard():
    with criterion("complexity guard (build visits, mcs comparisons)"):
        rng = random.Random(4242)
        for _ in range(12):
            m = rng.randint(1, 8)
            depth = rng.randint(2, 50)
            index = random_rank_index(
                rng, n_items=depth + rng.randint(1, 10), n_rankers=m, depth=depth
            )
            normalized = normalize_collection(index, index.rankers, depth)
            query = rng.choice(index.collection_items())
            rs = assemble_rank_set(query, normalized, normalized.rankers)
            stats = BuildStats()
            build_fusion_graph(rs, normalized, stats=stats)
            assert stats.entry_visits <= 4 * m * m * depth * depth

        labels = [f"v{i}" for i in range(12)]
        for _ in range(200):
            a = random_graph(rng, labels, max_vertices=10, max_edges=12, name="a")
            b = random_graph(rng, labels, max_vertices=10, max_edges=12, name="b")
            stats = McsStats()
            mcs(a, b, stats)
            assert stats.comparisons <= (
                len(a.vertices) * len(b.vertices) + len(a.edges) + len(b.edges)
            )


def test_determinism_cli(tmp_path):
    with criterion("determinism (extract+search byte-identical across runs)"):
        collection = write_runs(tmp_path, TOY_LAYOUT, "coll")
        queries = write_runs(tmp_path, TOY_QUERY, "query")
        config = write_config(tmp_path, "config.json", collection)
        query_config = write_config(tmp_path, "queries.json", queries)
        snapshots = []
        for attempt in ("first", "second"):
            index_dir = tmp_path / f"index_{attempt}"
            out_run = tmp_path / f"out_{attempt}.run"
            assert cli_main(["extract", "--config", str(config), "--out", str(index_dir)]) == 0
            assert cli_main(
                ["search", "--index", str(index_dir), "--queries", str(query_config),
                 "--out", str(out_run)]
            ) == 0
            snapshots.append((index_files(index_dir), out_run.read_bytes()))
        assert snapshots[0] == snapshots[1]


UKBENCH_ENV = "FUSEGRAPH_UKBENCH_DIR"


@pytest.mark.skipif(UKBENCH_ENV not in os.environ, reason="UKBench run files not supplied")
def test_ukbench_dataset_hook():
    """Optional: N-S within 0.05 of 3.90 on externally supplied UKBench runs.

    Point FUSEGRAPH_UKBENCH_DIR at a directory containing ``config.json``
    (rankers ACC + VOC + CNN-Caffe with their run files and polarities, plus
    the depth to use) and ``labels.txt`` (``docid classlabel`` lines).
    """
    base = Path(os.environ[UKBENCH_ENV])
    config_path = base / "config.json"
    labels_path = base / "labels.txt"
    if not config_path.exists() or not labels_path.exists():
        pytest.skip("UKBench directory lacks config.json or labels.txt")
    with criterion("UKBench N-S within 0.05 of 3.90 (VOC + ACC + CNN-Caffe)"):
        config = load_config(config_path)
        qrels = parse_class_labels(labels_path)
        index = CollectionRankIndex(load_runs(config))
        depth = config.depth
        fg_index = index_collection(index, config.ranker_names, depth, config.comparator)
        total = 0.0
        items = index.collection_items()
        for query in items:
            rs = assemble_rank_set(query, index, config.ranker_names)
            fused = fuse_query(rs, fg_index)
            total += ns_score(fused, qrels)
        ns = total / len(items)
        assert abs(ns - 3.90) <= 0.05
