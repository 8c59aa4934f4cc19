import gc
import hashlib
import json
import os
import random
import re
import stat
import struct
import tempfile
import weakref
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusegraph import graph as graph_module
from fusegraph import retrieval
from fusegraph.errors import MalformedGraphRecord, MissingRank, RankerMismatch
from fusegraph.graph import BuildStats, FusionGraph, build_fusion_graph, graph_size, vertex_record
from fusegraph.model import CollectionRankIndex, RankSet, ScoredRank, assemble_rank_set
from fusegraph.normalize import normalize_collection, normalize_rank_set
from fusegraph.retrieval import (
    POSTING,
    FusionGraphIndex,
    VertexPostings,
    build_query_graph,
    common_bounds,
    fuse_query,
    index_collection,
    load_index,
    save_index,
    verify_index,
)
from fusegraph.similarity import dist_mcs, dist_mcs_floor, dist_wgu, dist_wgu_floor, mcs

from helpers import (
    LOAD_FAULTS,
    label_table,
    edit_graph_header,
    edit_rank_record,
    edit_manifest,
    edit_toc,
    index_files,
    reverse_graph_items,
    mkrank,
    pack_rank_record,
    random_rank_index,
    record_span,
    reference_build_fusion_graph,
    reference_fuse_query,
    reference_query_graph,
    reference_serialize_graph,
    rewrite_record,
    synthetic_collection,
    unpack_rank_record,
    vertex_masses,
)


def toy_collection_index():
    """Collection {A, B, C} whose ranks mirror the worked-example fixture."""
    layout = {
        "r1": {"A": ["A", "B"], "B": ["B", "X"], "C": ["C", "X"]},
        "r2": {"A": ["A", "C"], "B": ["B", "Y"], "C": ["C", "Y"]},
    }
    ranks = {
        ranker: {
            q: mkrank(q, ranker, items, scores=[10.0, 5.0], depth=2)
            for q, items in per.items()
        }
        for ranker, per in layout.items()
    }
    return CollectionRankIndex(ranks)


def query_rank_set():
    return RankSet(
        "q",
        (
            mkrank("q", "r1", ["A", "B"], scores=[9.0, 4.0], depth=2),
            mkrank("q", "r2", ["A", "C"], scores=[9.0, 4.0], depth=2),
        ),
    )


@pytest.fixture
def toy_fg_index():
    index = toy_collection_index()
    return index, index_collection(index, ("r1", "r2"), 2, "WGU")


def test_index_collection_builds_one_graph_per_item(toy_fg_index):
    index, fg_index = toy_fg_index
    assert sorted(fg_index.graphs) == ["A", "B", "C"]
    for item, graph in fg_index.graphs.items():
        assert max(graph.vertices.values()) == 1.0
        assert max(graph.edges.values(), default=1.0) == 1.0
        assert len(graph.vertices) <= 2 * 2


def test_built_graphs_map_only_indexed_items(toy_fg_index):
    _, fg_index = toy_fg_index
    # X is a vertex of B's graph, but has no ranks of its own
    assert fg_index.graphs.get("X") is None and "X" not in fg_index.graphs
    with pytest.raises(KeyError):
        fg_index.graphs["X"]


def test_toy_ordering_hand_computed(toy_fg_index):
    from fusegraph.retrieval import build_query_graph

    index, fg_index = toy_fg_index
    rs = query_rank_set()
    # hand-computed full ordering is [A, B, C]: q's graph equals A's graph
    # exactly, while B and C each share one 0.05-weight vertex with it
    query_graph = build_query_graph(rs, fg_index)
    expected = 1.0 - 0.05 / 6.15
    assert dist_wgu(query_graph, fg_index.graphs["A"]) == 0.0
    assert dist_wgu(query_graph, fg_index.graphs["B"]) == pytest.approx(expected, abs=1e-12)
    assert dist_wgu(query_graph, fg_index.graphs["C"]) == pytest.approx(expected, abs=1e-12)
    # the fused rank keeps the top-L of that ordering (L = 2), B before C by id,
    # each scored with the exact similarity 1 - distance
    fused = fuse_query(rs, fg_index)
    assert (fused.query, fused.ranker, fused.depth) == ("q", "fusegraph", 2)
    assert fused.items() == ("A", "B")
    assert fused.entries[0].score == 1.0
    assert fused.entries[1].score == 1.0 - dist_wgu(query_graph, fg_index.graphs["B"])
    assert fused.entries[1].score == pytest.approx(1.0 - expected, abs=1e-12)


def test_indexed_query_self_retrieval(toy_fg_index):
    index, fg_index = toy_fg_index
    rs = assemble_rank_set("A", index, ("r1", "r2"))
    fused = fuse_query(rs, fg_index)
    assert fused.entries[0] == ("A", 1.0)


def test_exclude_self(toy_fg_index):
    index, fg_index = toy_fg_index
    rs = assemble_rank_set("A", index, ("r1", "r2"))
    fused = fuse_query(rs, fg_index, exclude_self=True)
    assert "A" not in fused.items()
    assert len(fused) == 2


def test_fused_rank_scores_non_increasing(toy_fg_index):
    index, fg_index = toy_fg_index
    fused = fuse_query(query_rank_set(), fg_index)
    values = [score for _, score in fused.entries]
    assert values == sorted(values, reverse=True)


def test_comparator_order_consistency(toy_fg_index):
    from fusegraph.retrieval import build_query_graph

    index, fg_index = toy_fg_index
    rs = query_rank_set()
    query_graph = build_query_graph(rs, fg_index)
    expected = sorted(
        dist_wgu(query_graph, fg_index.graphs[s]) for s in fg_index.graphs
    )[: fg_index.depth]
    fused = fuse_query(rs, fg_index)
    assert [score for _, score in fused.entries] == [1.0 - d for d in expected]


def test_ranker_mismatch_names(toy_fg_index):
    index, fg_index = toy_fg_index
    bad = RankSet("q", (mkrank("q", "r1", ["A"], depth=2),))
    with pytest.raises(RankerMismatch):
        fuse_query(bad, fg_index)


def test_ranker_mismatch_depth(toy_fg_index):
    index, fg_index = toy_fg_index
    bad = RankSet(
        "q",
        (
            mkrank("q", "r1", ["A", "B", "X"], depth=3),
            mkrank("q", "r2", ["A", "C", "Y"], depth=3),
        ),
    )
    with pytest.raises(RankerMismatch):
        fuse_query(bad, fg_index)


def test_index_collection_strict_missing_rank():
    index = toy_collection_index()
    partial = CollectionRankIndex(
        {
            "r1": {q: index.get("r1", q) for q in ("A", "B", "C")},
            "r2": {q: index.get("r2", q) for q in ("A", "B")},
        }
    )
    with pytest.raises(MissingRank) as excinfo:
        index_collection(partial, ("r1", "r2"), 2, "WGU", strict=True)
    assert excinfo.value.ranker == "r2"
    assert excinfo.value.query == "C"
    lenient = index_collection(partial, ("r1", "r2"), 2, "WGU")
    assert sorted(lenient.graphs) == ["A", "B", "C"]


@pytest.mark.parametrize("depth", [5, 11])
def test_index_collection_rejects_ranks_not_at_depth_l(depth):
    collection, _ = synthetic_collection(1)  # every rank at depth 10
    with pytest.raises(RankerMismatch, match=rf"^rank of 's00_0' under 'r1' has depth 10, index uses L={depth}$"):
        index_collection(collection, collection.rankers, depth)


def test_lenient_build_counts_item_without_ranks_silently(capfd):
    index = toy_collection_index()
    # "Z" is ranked by r3 only, which the build does not choose
    ranks = {ranker: {q: index.get(ranker, q) for q in index.queries(ranker)} for ranker in index.rankers}
    ranks["r3"] = {"Z": mkrank("Z", "r3", ["Z", "A"], scores=[10.0, 5.0], depth=2)}
    stats = BuildStats()
    built = index_collection(CollectionRankIndex(ranks), ("r1", "r2"), 2, stats=stats)
    assert sorted(built.graphs) == ["A", "B", "C"]
    assert stats.items_without_ranks == 1
    assert capfd.readouterr() == ("", "")


def test_index_collection_reads_each_rank_once():
    n, m, L = 30, 3, 6
    index = random_rank_index(random.Random(12), n_items=n, n_rankers=m, depth=L)
    stats = BuildStats()
    fg_index = index_collection(index, index.rankers, L, stats=stats)
    assert list(fg_index.graphs.values())  # a graph is built when it is first read
    assert 0 < stats.entry_visits <= 2 * n * m * L


def test_indexing_and_saving_make_no_edge_dict(tmp_path):
    """A cost contract: save_index packs each built graph from its record arrays, never making its edge dict."""
    collection, _ = synthetic_collection(3)
    with mock.patch.object(graph_module, "_edge_dict", wraps=graph_module._edge_dict) as made:
        save_index(tmp_path / "idx", index_collection(collection, collection.rankers, 10, "MCS"))
        assert made.call_count == 0
        assert load_index(tmp_path / "idx").graphs["s00_0"].edges  # decoding a record makes one
        assert made.call_count == 1


def test_scope_equivalence_random():
    rng = random.Random(21)
    index = random_rank_index(rng, n_items=18, n_rankers=3, depth=5)
    depth = 5
    fg_index = index_collection(index, index.rankers, depth, "WGU")
    for query in index.collection_items()[:6]:
        rs = assemble_rank_set(query, index, index.rankers)
        assert fuse_query(rs, fg_index) == reference_fuse_query(rs, fg_index)
        # the search reads items in id order, whatever the order of the graphs it is given
        descending = dict(sorted(fg_index.graphs.items(), reverse=True))
        reordered = FusionGraphIndex(descending, depth, index.rankers, "WGU", fg_index.normalized, index)
        assert fuse_query(rs, reordered) == reference_fuse_query(rs, fg_index)


def indexed_collection(rng, n_items, n_rankers, depth, cluster_size, comparator, twins):
    """A random collection, and its graph index with ``twins`` extra items.

    A twin, named after its item plus "~", has an exact copy of that item's
    graph, so the two always tie on distance and only their ids order them.
    """
    index = random_rank_index(rng, n_items, n_rankers, depth, cluster_size)
    built = index_collection(index, index.rankers, depth, comparator)
    graphs = dict(built.graphs)
    for item in rng.sample(sorted(graphs), min(twins, len(graphs))):
        graphs[item + "~"] = FusionGraph(item + "~", graphs[item].vertices, graphs[item].edges)
    return index, FusionGraphIndex(graphs, built.depth, built.ranker_names, comparator, built.normalized, index)


def query_ranks(rng, index, depth, out_of_collection):
    """The ranks of a collection item, or of a query "zq" over part of the collection."""
    items = index.collection_items()
    if not out_of_collection:
        return assemble_rank_set(rng.choice(items), index, index.rankers)
    pool = rng.sample(items, min(depth, len(items)))
    return RankSet(
        "zq",
        tuple(
            mkrank("zq", ranker, rng.sample(pool, rng.randint(1, len(pool))), depth=depth)
            for ranker in index.rankers
        ),
    )


def assert_same_fused(fused, expected):
    assert fused == expected
    assert [score.hex() for _, score in fused.entries] == [score.hex() for _, score in expected.entries]


SEARCH_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_items=st.integers(2, 24),
    n_rankers=st.integers(1, 3),
    depth=st.integers(2, 6),
    cluster_size=st.one_of(st.none(), st.integers(1, 6)),
    comparator=st.sampled_from(["MCS", "WGU"]),
    exclude_self=st.booleans(),
    out_of_collection=st.booleans(),
    twins=st.integers(0, 6),
)


@settings(max_examples=80, deadline=None)
@given(**SEARCH_CASES)
# one-item clusters with exclude_self: nothing overlaps, the whole rank is fill
@example(1, 12, 2, 4, 1, "WGU", True, False, 0)
@example(2, 12, 1, 5, 2, "MCS", False, True, 0)
def test_pruned_scan_equals_reference_scan(
    seed, n_items, n_rankers, depth, cluster_size, comparator, exclude_self, out_of_collection,
    twins,
):
    # clusters smaller than L leave fewer than L items sharing a vertex with
    # the query, so the distance-1 fill by item id decides the tail; twins
    # tie exactly, also at the L-th distance
    rng = random.Random(seed)
    index, fg_index = indexed_collection(
        rng, n_items, n_rankers, depth, cluster_size, comparator, twins
    )
    rs = query_ranks(rng, index, depth, out_of_collection)
    assert_same_fused(
        fuse_query(rs, fg_index, exclude_self=exclude_self),
        reference_fuse_query(rs, fg_index, exclude_self=exclude_self),
    )


@settings(max_examples=40, deadline=None)
@given(**SEARCH_CASES)
def test_loaded_index_search_equals_reference_scan(
    seed, n_items, n_rankers, depth, cluster_size, comparator, exclude_self, out_of_collection,
    twins,
):
    rng = random.Random(seed)
    index, fg_index = indexed_collection(
        rng, n_items, n_rankers, depth, cluster_size, comparator, twins
    )
    with tempfile.TemporaryDirectory() as directory:
        save_index(directory, fg_index)
        loaded = load_index(directory)
    for _ in range(3):
        rs = query_ranks(rng, index, depth, out_of_collection)
        expected = reference_fuse_query(rs, fg_index, exclude_self=exclude_self)
        assert_same_fused(fuse_query(rs, loaded, exclude_self=exclude_self), expected)
        assert_same_fused(fuse_query(rs, fg_index, exclude_self=exclude_self), expected)


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("comparator", ["MCS", "WGU"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exclude_self=st.booleans(), out_of_collection=st.booleans())
def test_each_exact_score_is_given_the_sizes_of_its_graphs(comparator, loaded, seed, exclude_self, out_of_collection):
    """fuse_query passes the distance the query's and the item's graph_size, bit for bit, and ranks as the reference."""
    rng = random.Random(seed)
    depth = rng.randint(2, 6)
    index, fg_index = indexed_collection(rng, rng.randint(2, 24), rng.randint(1, 3), depth, rng.choice([None, 2, 4]),
                                         comparator, rng.randint(0, 4))
    rs = query_ranks(rng, index, depth, out_of_collection)
    distance, calls = retrieval.COMPARATORS[comparator], []

    def checked(a, b, size_a, size_b):
        calls.append((size_a.hex(), size_b.hex()))
        assert (size_a.hex(), size_b.hex()) == (graph_size(a).hex(), graph_size(b).hex())
        return distance(a, b, size_a, size_b)

    with tempfile.TemporaryDirectory() as directory, mock.patch.dict(retrieval.COMPARATORS, {comparator: checked}):
        if loaded:
            save_index(directory, fg_index)
        fused = fuse_query(rs, load_index(directory) if loaded else fg_index, exclude_self=exclude_self)
    assert_same_fused(fused, reference_fuse_query(rs, fg_index, exclude_self=exclude_self))
    assert calls or all(score == 0.0 for _, score in fused.entries)  # an item sharing no label scores 0


@pytest.mark.parametrize("comparator", ["MCS", "WGU"])
@pytest.mark.parametrize("seed", range(1, 6))
def test_exact_scorings_per_query_stay_near_l(seed, comparator):
    """A cost contract: searching a collection for its own items at L=10 scores at most 1.5 L items per query.

    The mass bound scores about 12; a valid but looser bound that charges
    every shared vertex the query's whole mass scores about 28, and fails.
    """
    depth = 10
    collection, _ = synthetic_collection(seed)
    fg_index = index_collection(collection, collection.rankers, depth, comparator)
    distance, calls = retrieval.COMPARATORS[comparator], []

    def counted(*args):
        calls.append(None)
        return distance(*args)

    items = collection.collection_items()
    with mock.patch.dict(retrieval.COMPARATORS, {comparator: counted}):
        for item in items:
            fuse_query(assemble_rank_set(item, collection, collection.rankers), fg_index, exclude_self=True)
    assert len(calls) / len(items) <= 1.5 * depth


def assert_checked(rank):
    """``rank`` equals what the public constructor, with all its checks, builds of its fields."""
    assert rank == ScoredRank(rank.query, rank.ranker, rank.entries, rank.depth)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_items=st.integers(1, 16),
    n_rankers=st.integers(1, 3),
    depth=st.integers(1, 6),
    cut=st.integers(0, 3),
    out_of_collection=st.booleans(),
)
def test_unchecked_ranks_pass_the_public_constructor(
    seed, n_items, n_rankers, depth, cut, out_of_collection
):
    """Every rank that normalization or a loaded index builds without ScoredRank's checks passes them.

    ``cut`` also normalizes to an L below the ranks' depth, so ranks are cut.
    """
    rng = random.Random(seed)
    index = random_rank_index(rng, n_items, n_rankers, depth)
    for cut_depth in {depth, max(1, depth - cut)}:
        normalized = normalize_collection(index, index.rankers, cut_depth)
        for ranker in normalized.rankers:
            for query in normalized.queries(ranker):
                assert_checked(normalized.get(ranker, query))
        rs = query_ranks(rng, index, depth, out_of_collection)
        for rank in normalize_rank_set(rs, index, cut_depth):
            assert_checked(rank)
    with tempfile.TemporaryDirectory() as directory:
        save_index(directory, index_collection(index, index.rankers, depth))
        loaded = load_index(directory)
    for ranker, item in _lookup_pairs(index):
        for lookup in (loaded.normalized, loaded.raw):
            rank = lookup.get(ranker, item)
            if rank is not None:
                assert_checked(rank)


def test_scope_contains_equal_graph(toy_fg_index):
    from fusegraph.retrieval import build_query_graph

    index, fg_index = toy_fg_index
    graph = build_query_graph(query_rank_set(), fg_index)
    assert "A" in common_bounds(fg_index.postings, vertex_record(graph))


def test_out_of_collection_query_supported(toy_fg_index):
    index, fg_index = toy_fg_index
    # "q" is not an indexed item; only its ranks over the collection exist
    assert "q" not in fg_index.graphs
    fused = fuse_query(query_rank_set(), fg_index)
    assert len(fused) == 2  # truncated to L


def test_worker_schedule_independence(toy_fg_index):
    index, fg_index = toy_fg_index
    rs = query_rank_set()
    assert fuse_query(rs, fg_index) == fuse_query(rs, fg_index)
    rebuilt = index_collection(index, ("r1", "r2"), 2, "WGU")
    assert rebuilt.graphs == fg_index.graphs


def test_save_load_round_trip(tmp_path, toy_fg_index):
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    loaded_fg = load_index(tmp_path / "idx")
    assert loaded_fg.graphs == fg_index.graphs
    assert loaded_fg.depth == fg_index.depth
    assert loaded_fg.ranker_names == fg_index.ranker_names
    assert loaded_fg.comparator == fg_index.comparator
    fused_orig = fuse_query(query_rank_set(), fg_index)
    fused_loaded = fuse_query(query_rank_set(), loaded_fg)
    assert fused_orig == fused_loaded
    # the loaded index saves back to the same bytes
    save_index(tmp_path / "again", loaded_fg)
    assert index_files(tmp_path / "again") == index_files(tmp_path / "idx")


def test_save_is_byte_deterministic(tmp_path, toy_fg_index):
    index, fg_index = toy_fg_index
    save_index(tmp_path / "one", fg_index)
    rebuilt = index_collection(index, ("r1", "r2"), 2, "WGU")
    save_index(tmp_path / "two", rebuilt)
    assert index_files(tmp_path / "one") == index_files(tmp_path / "two")


def test_manifest_layout(tmp_path, toy_fg_index):
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest) == ["files", "sha256", "v"]
    assert manifest["v"] == 11
    assert manifest["files"] == {
        "graphs": "graphs.bin",
        "postings": "postings.bin",
        "ranks": "ranks.bin",
        "toc": "toc.json",
    }
    assert sorted(path.name for path in (tmp_path / "idx").iterdir()) == sorted(
        ["manifest.json", *manifest["files"].values()]
    )
    toc = (tmp_path / "idx" / "toc.json").read_bytes()
    assert manifest["sha256"] == {"toc": hashlib.sha256(toc).hexdigest()}


def test_toc_and_postings_layout(tmp_path, toy_fg_index):
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    toc = json.loads((tmp_path / "idx" / "toc.json").read_bytes())
    assert sorted(toc) == ["L", "comparator", "graphs", "items", "labels", "postings", "rankers", "ranks"]
    assert (toc["L"], toc["comparator"], toc["rankers"]) == (2, "WGU", ["r1", "r2"])
    assert toc["items"] == ["A", "B", "C"]
    # every vertex label, which is every item of every stored raw rank, once and sorted
    labels = sorted({label for graph in fg_index.graphs.values() for label in graph.vertices})
    assert toc["labels"] == labels == ["A", "B", "C", "X", "Y"]
    files = {part: (tmp_path / "idx" / f"{part}.bin").read_bytes() for part in ("graphs", "postings", "ranks")}
    # one entry per key, in the keys' order: each record runs from the end before it, or 0, to its own end,
    # and the last end is its file's size (a postings end counts 12-byte postings)
    for part, keys in (("graphs", toc["items"]), ("ranks", toc["items"]), ("postings", labels)):
        unit = POSTING.size if part == "postings" else 1
        assert len(toc[part]) == len(keys)
        assert toc[part][-1][0] * unit == len(files[part])
        for key, entry in zip(keys, toc[part]):
            record = files[part][slice(*record_span(toc, part, key))]
            assert record and hashlib.blake2b(record, digest_size=16).hexdigest() == entry[1]
    slots = {label: slot for slot, label in enumerate(labels)}
    for item_slot, (item, (_, _, size)) in enumerate(zip(toc["items"], toc["graphs"])):
        record = files["graphs"][slice(*record_span(toc, "graphs", item))]
        assert record == reference_serialize_graph(fg_index.graphs[item], slots, item_slot)
        assert size == graph_size(fg_index.graphs[item])
    items = {item: slot for slot, item in enumerate(toc["items"])}
    for label in labels:
        data = files["postings"][slice(*record_span(toc, "postings", label))]
        # one posting per graph holding the label, in slot order: slot, mass
        expected = [
            (items[item], vertex_masses(graph)[label])
            for item, graph in sorted(fg_index.graphs.items())
            if label in graph.vertices
        ]
        assert list(POSTING.iter_unpack(data)) == expected
    # one rank record per graph item, in the same order
    for item in toc["items"]:
        record = files["ranks"][slice(*record_span(toc, "ranks", item))]
        assert unpack_rank_record(record, toc)["query"] == item
    # verify counts ranks, two per item, not records
    assert verify_index(tmp_path / "idx") == (3, len(labels), 6)


def test_rank_record_layout(tmp_path, toy_fg_index):
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    toc = json.loads((tmp_path / "idx" / "toc.json").read_bytes())
    data = (tmp_path / "idx" / "ranks.bin").read_bytes()
    records = [data[slice(*record_span(toc, "ranks", item))] for item in toc["items"]]
    # A's: item slot 0, then per ranker a one-byte count, one-byte label slots (raw order) and one-byte
    # positions (normalized order); the labels are A, B, C, X, Y
    normalized = [fg_index.normalized.get(r, "A").items() for r in ("r1", "r2")]
    assert normalized == [("A", "B"), ("A", "C")]
    assert records[0] == struct.pack("<I10B", 0, 2, 0, 1, 0, 1, 2, 0, 2, 0, 1)
    for slot, (item, record) in enumerate(zip(toc["items"], records)):
        assert record[:4] == struct.pack("<I", slot)
        assert pack_rank_record(unpack_rank_record(record, toc), toc) == record
        ranks = unpack_rank_record(record, toc)["ranks"]
        assert list(ranks) == ["r1", "r2"]
        for ranker, rank in ranks.items():
            raw = index.get(ranker, item).items()
            normalized = fg_index.normalized.get(ranker, item).items()
            assert rank["items"] == list(raw)
            assert [rank["items"][slot] for slot in rank["normalized"]] == list(normalized)


# the fields of the manifest and those of the table of contents it seals, by file
FIELDS = {"files": "manifest", "sha256": "manifest", "L": "toc", "comparator": "toc", "rankers": "toc"}
ILL_TYPED = {
    "L": "2",
    "rankers": "r1",
    "comparator": "JACCARD",
    "files": {"graphs": "graphs.jsonl"},
    "sha256": {"toc": None},
}


def _edit_field(directory, field, edit):
    """Apply ``edit`` to the JSON object that holds ``field``; a table of contents is resealed."""
    (edit_manifest if FIELDS[field] == "manifest" else edit_toc)(directory, edit)


@pytest.mark.parametrize("field", FIELDS)
def test_load_rejects_manifest_missing_field(tmp_path, toy_fg_index, field):
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    _edit_field(tmp_path / "idx", field, lambda m: m.pop(field))
    with pytest.raises(MalformedGraphRecord, match=f"'{field}' is missing or ill-typed"):
        load_index(tmp_path / "idx")


@pytest.mark.parametrize("field", FIELDS)
def test_load_rejects_ill_typed_manifest_field(tmp_path, toy_fg_index, field):
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    _edit_field(tmp_path / "idx", field, lambda m: m.update({field: ILL_TYPED[field]}))
    with pytest.raises(MalformedGraphRecord, match=f"'{field}' is missing or ill-typed"):
        load_index(tmp_path / "idx")


@pytest.mark.parametrize("case", LOAD_FAULTS)
def test_load_rejects_a_faulty_manifest_or_toc(tmp_path, toy_fg_index, case):
    edit, message = LOAD_FAULTS[case]
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    edit(tmp_path / "idx")
    with pytest.raises(MalformedGraphRecord, match=re.escape(message)):
        dict(load_index(tmp_path / "idx").graphs)  # a graph filed under another item is caught when read


def test_fusion_graph_index_rejects_an_unknown_comparator(toy_fg_index):
    index, fg_index = toy_fg_index
    with pytest.raises(ValueError, match=re.escape("comparator must be one of ['MCS', 'WGU'], got 'JACCARD'")):
        FusionGraphIndex(fg_index.graphs, 2, ("r1", "r2"), "JACCARD", fg_index.normalized, index)


@pytest.mark.parametrize("role, name", [("toc", "toc.json"), ("graphs", "graphs.bin")])
@pytest.mark.parametrize("outside", ["absolute", "parent"])
def test_load_and_verify_reject_a_manifest_naming_a_file_outside_the_index(tmp_path, toy_fg_index, role, name, outside):
    # the file is moved out of the index and the manifest names it there, by its absolute path or through ../
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    (tmp_path / "idx" / name).rename(tmp_path / name)
    named = str(tmp_path / name) if outside == "absolute" else f"../{name}"
    edit_manifest(tmp_path / "idx", lambda m: m["files"].update({role: named}))
    for read in (load_index, verify_index):
        with pytest.raises(MalformedGraphRecord, match="'files' is missing or ill-typed"):
            read(tmp_path / "idx")


def test_load_rejects_depth_below_one(tmp_path, toy_fg_index):
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    edit_toc(tmp_path / "idx", lambda toc: toc.update({"L": 0}))
    with pytest.raises(MalformedGraphRecord, match="'L' is missing or ill-typed: 0"):
        load_index(tmp_path / "idx")


@pytest.mark.parametrize("edit", [{"L": 3}, {"comparator": "MCS"}, {"rankers": ["r2", "r1"]}], ids=str)
def test_load_and_verify_reject_manifest_params_that_miss_their_sha256(tmp_path, toy_fg_index, edit):
    # each edit leaves a table of contents that is well typed and agrees with every data file,
    # but is not resealed, so only the manifest's sha256 of it tells
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    edit_toc(tmp_path / "idx", lambda toc: toc.update(edit), reseal=False)
    for read in (load_index, verify_index):
        with pytest.raises(MalformedGraphRecord, match="'toc.json' does not match its sha256 in the manifest"):
            read(tmp_path / "idx")


DISTINCT_IDS = "bad rank record of 'A' under 'r1': item ids must be distinct"
LABEL_TABLE = "bad table of contents 'toc.json': labels must be non-empty strings in strictly ascending order"


def _rank_edit(edit, ranker="r1"):
    """An index edit that applies ``edit`` to ``ranker``'s rank in A's rank record, or with None to the record."""
    return lambda directory: edit_rank_record(directory, ranker, "A", edit)


def _add_ranker(record):
    record["ranks"]["r9"] = record["ranks"]["r1"]


def _graph_header_edit(edit):
    """An index edit that applies ``edit`` to the header of A's graph record, as edit_graph_header gives it."""
    return lambda directory: edit_graph_header(directory, "A", edit)


def _with_vertex_weights(record, *weights):
    """A graph record of the toy index whose first vertex weights are ``weights``: they lead the arrays."""
    start = 8 + struct.unpack_from("<I", record, 4)[0]  # item slot, label count and one-byte label slots
    return record[:start] + struct.pack(f"<{len(weights)}d", *weights) + record[start + 8 * len(weights) :]


def _set_graph_size(size):
    return lambda directory: edit_toc(directory, lambda toc: toc["graphs"][0].__setitem__(2, size))


def _empty_item_a(toc):
    toc["items"][0] = ""


# each edit keeps every digest, size and the table of contents' sha256 true,
# so the record checks are what catch it; the toy index's labels are A, B, C,
# X and Y, and its items A, B and C
BAD_RECORDS = {
    # a record names its query by an item slot: 555 names none, so no string
    "graph query not a string": (
        _graph_header_edit(lambda h: h.update({"query": 555})), "graph record has no header naming one of the 3 graph items"
    ),
    "graph label slot out of range": (
        _graph_header_edit(lambda h: h["vertices"].__setitem__(1, 5)),
        "graph record for 'A' has a label slot 5, beyond the 5 labels of its index",
    ),
    "graph label slot repeated": (
        _graph_header_edit(lambda h: h["vertices"].__setitem__(1, "A")), "graph record for 'A' has a duplicate label"
    ),
    # a rank under a ranker the index lacks follows the ranks of its own: five bytes after them
    "rank ranker not in manifest": (_rank_edit(_add_ranker, None), "bad rank record of 'A': 5 bytes follow its ranks"),
    "rank query not a string": (
        _rank_edit(lambda r: r.update({"query": 555}), None), "it holds the ranks of item slot 555, beyond the 3 items"
    ),
    # a rank's item is a label slot: 7 names no string
    "rank item not a string": (
        _rank_edit(lambda r: r["items"].__setitem__(1, 7)),
        "bad rank record of 'A' under 'r1': label slot 7 is beyond the 5 labels",
    ),
    "rank repeated": (_rank_edit(lambda r: r.update({"query": "B"}), None), "it holds the ranks of 'B'"),
    # the record is its item slot alone
    "rank record without ranks": (
        _rank_edit(lambda r: r.pop("ranks"), None), "bad rank record of 'A' under 'r1': unpack_from requires"
    ),
    # r2's is the last rank of A's record, which ends with its normalized order
    "rank without its normalized order": (
        _rank_edit(lambda r: r.pop("normalized"), "r2"), "bad rank record of 'A' under 'r2': unpack_from requires"
    ),
    "rank longer than L": (
        _rank_edit(lambda r: r.update({"items": ["A", "B", "C"], "normalized": [0, 1, 2]})),
        "3 items exceed L=2",
    ),
    "rank repeats an item": (_rank_edit(lambda r: r["items"].__setitem__(1, "A")), DISTINCT_IDS),
    # a rank names its query by its slot among the toc's graph items, and its items by their label slots
    "rank query empty": (lambda d: edit_toc(d, _empty_item_a), "a graph item is empty or holds whitespace"),
    "rank item empty": (lambda d: edit_toc(d, lambda toc: toc["labels"].__setitem__(0, "")), LABEL_TABLE),
    "graph size not a number": (_set_graph_size("3.1"), "not a positive finite number"),
    # A's vertex weights, each finite, too large for fsum to sum
    "graph weights fsum cannot sum": (
        lambda directory: rewrite_record(
            directory, "graphs", "A", lambda data: _with_vertex_weights(data, 1.7e308, 1.7e308)
        ),
        "graph record for 'A' has a weight that is not finite and positive",
    ),
    # X is a vertex of B's and C's graphs: its two postings, swapped
    "posting slots out of order": (
        lambda directory: rewrite_record(directory, "postings", "X", lambda data: data[POSTING.size :] + data[: POSTING.size]),
        "posting list of 'X' has item slot 1 out of order",
    ),
    # A's first posting, item slot 3: no item has it
    "posting slot out of range": (
        lambda directory: rewrite_record(
            directory, "postings", "A", lambda data: POSTING.pack(3, POSTING.unpack_from(data)[1]) + data[POSTING.size :]
        ),
        "posting list of 'A' has item slot 3 out of order or range",
    ),
    # a posting's slot is its item's position in the table of contents
    "graph items out of order": (reverse_graph_items, "graph items are not in strictly ascending order"),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_load_rejects_bad_record(tmp_path, toy_fg_index, case):
    """load_index, or reading the record once loaded, rejects the edit; verify_index reads them all."""
    edit, message = BAD_RECORDS[case]
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    edit(tmp_path / "idx")
    with pytest.raises(MalformedGraphRecord, match=message):
        verify_index(tmp_path / "idx")


# where the checks of a graph's edge masses and size went when format 5 moved
# them out of its record: sizes to the table of contents, masses to postings
VERTEX_DATA_FAULTS = {
    "size not a float": (_set_graph_size(3), "not a positive finite number"),
    "size not positive": (_set_graph_size(0.0), "not a positive finite number"),
    "size disagrees": (_set_graph_size(3.0999999999999996), "disagree with its size"),
    "mass count": (
        lambda directory: rewrite_record(directory, "postings", "B", lambda data: data[: -POSTING.size]),
        "posting lists are not those of the graphs",
    ),
    "mass disagrees": (
        lambda directory: rewrite_record(
            directory, "postings", "A",
            lambda data: POSTING.pack(POSTING.unpack_from(data)[0], 1.0) + data[POSTING.size :],
        ),
        "posting lists are not those of the graphs",
    ),
}


@pytest.mark.parametrize("case", sorted(VERTEX_DATA_FAULTS))
def test_stored_vertex_data_is_checked(tmp_path, toy_fg_index, case):
    edit, message = VERTEX_DATA_FAULTS[case]
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    edit(tmp_path / "idx")
    with pytest.raises(MalformedGraphRecord, match=message):
        verify_index(tmp_path / "idx")


def test_verify_rejects_bytes_no_record_covers(tmp_path, toy_fg_index):
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    # a byte no table-of-contents entry covers, at the end of the rank file: the last end is no longer its size
    path = tmp_path / "idx" / "ranks.bin"
    data = path.read_bytes()
    path.write_bytes(data + b"\n")
    with pytest.raises(MalformedGraphRecord, match=f"holds {len(data) + 1} bytes, its records {len(data)}$"):
        load_index(tmp_path / "idx")


def test_load_rejects_v1_index_by_name(tmp_path, toy_fg_index):
    """Indexes of formats 1 to 10 are all rejected by name."""
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    for version in range(1, 11):
        edit_manifest(tmp_path / "idx", lambda m: m.update({"v": version}))
        for read in (load_index, verify_index):
            with pytest.raises(MalformedGraphRecord, match=f"version {version}, which predates index format 11.*re-extracted"):
                read(tmp_path / "idx")


def test_load_rejects_data_file_of_another_index(tmp_path, toy_fg_index):
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    # same rankers, L and graph count: only the recorded size tells them apart
    other = random_rank_index(random.Random(4), n_items=3, n_rankers=2, depth=2)
    save_index(tmp_path / "other", index_collection(other, ("r1", "r2"), 2))
    swapped = (tmp_path / "other" / "graphs.bin").read_bytes()
    assert len(swapped) != (tmp_path / "idx" / "graphs.bin").stat().st_size
    (tmp_path / "idx" / "graphs.bin").write_bytes(swapped)
    with pytest.raises(MalformedGraphRecord, match="'graphs.bin' holds .* bytes"):
        load_index(tmp_path / "idx")


def test_failed_save_leaves_older_index_intact(tmp_path, toy_fg_index, monkeypatch):
    index, fg_index = toy_fg_index
    directory = tmp_path / "idx"
    save_index(directory, fg_index)
    before = {path.name: path.read_bytes() for path in directory.iterdir()}
    serialize = retrieval.serialize_graph
    calls = []

    def fail_on_second_graph(graph, *tables):
        calls.append(graph.query)
        if len(calls) == 2:
            raise OSError("disk full")
        return serialize(graph, *tables)

    monkeypatch.setattr(retrieval, "serialize_graph", fail_on_second_graph)
    rebuilt = index_collection(index, ("r1", "r2"), 2, "MCS")
    with pytest.raises(OSError, match="disk full"):
        save_index(directory, rebuilt)
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == before
    loaded = load_index(directory)
    assert loaded.graphs == fg_index.graphs
    assert loaded.comparator == "WGU"


@st.composite
def rank_records(draw):
    """An item's orders under three rankers, None for no rank, over a label table at a width boundary."""
    size, depth = draw(st.sampled_from([256, 257, 65536, 65537])), draw(st.sampled_from([1, 2, 255, 256]))
    orders = []
    for _ in range(3):
        length = draw(st.sampled_from([0, 1, depth, draw(st.integers(1, depth))]))
        slots = draw(st.lists(st.integers(0, size - 1), min_size=length, max_size=length, unique=True))
        if length and draw(st.booleans()):  # the last slot of the table
            slots[draw(st.integers(0, length - 1))] = size - 1
        raw = [label_table(size)[0][slot] for slot in dict.fromkeys(slots)]
        orders.append((raw, draw(st.permutations(raw))) if raw else None)
    return size, depth, draw(st.integers(0, 2)), orders


@settings(max_examples=150, deadline=None)
@given(drawn=rank_records())
def test_rank_record_round_trip_at_the_width_boundaries(drawn):
    """A rank record decodes to its orders; a label slot is 1, 2 or 4 bytes by the table, a count by L + 1."""
    size, depth, item, orders = drawn
    labels, slots = label_table(size)
    rankers, items = ["r1", "r2", "r3"], ["d0", "d1", "d2"]
    raw, normalized = (
        CollectionRankIndex({
            ranker: {items[item]: mkrank(items[item], ranker, order[side], depth=depth)}
            for ranker, order in zip(rankers, orders) if order
        })
        for side in (0, 1)
    )
    fg_index = FusionGraphIndex({}, depth, tuple(rankers), "WGU", normalized, raw)
    data = [*retrieval._rank_records(fg_index, items, slots)][item]
    decoded = retrieval._rank_record(depth, rankers, labels, items, items[item], None, data, "rank record")
    assert decoded == {ranker: (list(order[0]), list(order[1])) for ranker, order in zip(rankers, orders) if order}
    assert all(label is labels[slots[label]] for raw, _ in decoded.values() for label in raw)  # the table's strings
    slot, count = (1 if n <= 256 else 2 if n <= 65536 else 4 for n in (size, depth + 1))
    assert len(data) == 4 + sum(count + len(raw) * (slot + count) for raw, _ in (o or ((), ()) for o in orders))
    # the layout's specification reads and writes the same bytes
    toc = {"L": depth, "labels": labels, "rankers": rankers, "items": items}
    record = unpack_rank_record(data, toc)
    assert record["query"] == items[item] and pack_rank_record(record, toc) == data
    assert {r: (rank["items"], [rank["items"][p] for p in rank["normalized"]]) for r, rank in record["ranks"].items()} == decoded


def test_a_graph_item_without_ranks_gets_an_empty_rank_record(tmp_path, toy_fg_index):
    """A caller's graphs may hold an item that no chosen ranker ranks: it saves, verifies and reads no rank."""
    index, fg_index = toy_fg_index
    graphs = {**fg_index.graphs, "Z": FusionGraph("Z", {"A": 1.0}, {})}
    save_index(tmp_path / "idx", FusionGraphIndex(graphs, 2, ("r1", "r2"), "WGU", fg_index.normalized, index))
    toc = json.loads((tmp_path / "idx" / "toc.json").read_bytes())
    start, end = record_span(toc, "ranks", "Z")
    # item slot 3, then a count of 0 under each ranker
    assert (tmp_path / "idx" / "ranks.bin").read_bytes()[start:end] == struct.pack("<I2B", 3, 0, 0)
    assert verify_index(tmp_path / "idx")[::2] == (4, 6)
    loaded = load_index(tmp_path / "idx")
    assert loaded.raw.get("r1", "Z") is None and loaded.normalized.get("r2", "Z") is None
    assert loaded.graphs["Z"] == graphs["Z"]


def test_an_index_of_no_graphs_saves_loads_and_verifies(tmp_path):
    """With no graph items every list of the table of contents is empty, each data file is 0 bytes long and
    holds no record, and a search ranks nothing."""
    empty = CollectionRankIndex({})
    save_index(tmp_path / "idx", FusionGraphIndex({}, 2, ("r1",), "WGU", empty, empty))
    toc = json.loads((tmp_path / "idx" / "toc.json").read_bytes())
    assert [toc[part] for part in ("items", "labels", "graphs", "postings", "ranks")] == [[]] * 5
    assert [(tmp_path / "idx" / f"{part}.bin").stat().st_size for part in ("graphs", "postings", "ranks")] == [0] * 3
    assert verify_index(tmp_path / "idx") == (0, 0, 0)
    loaded = load_index(tmp_path / "idx")
    for query in ("q", "A"):
        rank = fuse_query(RankSet(query, (mkrank(query, "r1", ["A", "B"], depth=2),)), loaded)
        assert (rank.query, rank.ranker, rank.items()) == (query, "fusegraph", ())


def test_save_checks_the_label_table_before_its_renames(tmp_path, toy_fg_index):
    """The label table is the raw ranks' items: a graph vertex outside it, or an item no graph holds, fails the save."""
    index, fg_index = toy_fg_index
    directory = tmp_path / "idx"
    save_index(directory, fg_index)
    before = index_files(directory)
    # Z's graph holds W, which no raw rank holds
    outside = {**fg_index.graphs, "Z": FusionGraph("Z", {"A": 1.0, "W": 1.0}, {})}
    with pytest.raises(ValueError, match="^the graph of 'Z' has vertex 'W', which no raw rank of a graph item holds$"):
        save_index(directory, FusionGraphIndex(outside, 2, ("r1", "r2"), "WGU", fg_index.normalized, index))
    # no graph holds Y, an item of B's and C's raw ranks
    unheld = {**fg_index.graphs, "C": FusionGraph("C", {"C": 1.0}, {})}
    unheld["B"] = FusionGraph("B", {"B": 1.0, "X": 0.5}, {})
    with pytest.raises(ValueError, match="is a vertex of none of their graphs"):
        save_index(directory, FusionGraphIndex(unheld, 2, ("r1", "r2"), "WGU", fg_index.normalized, index))
    assert index_files(directory) == before


def test_save_of_a_raw_rank_without_its_normalized_rank_raises_missing_rank(tmp_path, toy_fg_index):
    index, fg_index = toy_fg_index
    normalized = CollectionRankIndex({"r1": {q: fg_index.normalized.get("r1", q) for q in "AC"}, "r2": {}})
    with pytest.raises(MissingRank, match="^no rank stored for query 'A' under ranker 'r2'$"):
        save_index(tmp_path / "idx", FusionGraphIndex(fg_index.graphs, 2, ("r1", "r2"), "WGU", normalized, index))
    assert not (tmp_path / "idx" / "manifest.json").exists()


def test_save_syncs_the_directory_after_its_renames(tmp_path, toy_fg_index, monkeypatch):
    _, fg_index = toy_fg_index
    directory = tmp_path / "idx"
    fsync = os.fsync
    synced = []  # per call: a directory descriptor?, the directory's names then

    def record(fd):
        synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), sorted(path.name for path in directory.iterdir())))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", record)
    save_index(directory, fg_index)
    assert synced[-1] == (True, sorted([*retrieval.INDEX_FILES.values(), retrieval.MANIFEST_NAME]))
    assert [is_dir for is_dir, _ in synced] == [False] * 5 + [True]


BAD_PERMUTATIONS = ([0, 0], [1, 1], [0, 2], [2, 1], [255, 0])


def test_load_rejects_bad_normalized_permutation(tmp_path, toy_fg_index):
    index, fg_index = toy_fg_index
    for slots in BAD_PERMUTATIONS:
        save_index(tmp_path / "idx", fg_index)
        edit_rank_record(tmp_path / "idx", "r1", "A", lambda r: r.update({"normalized": slots}))
        loaded = load_index(tmp_path / "idx")
        for lookup in (loaded.normalized, loaded.raw):
            with pytest.raises(MalformedGraphRecord, match="bad rank record of 'A' under 'r1'"):
                lookup.get("r1", "A")


def _replace_in_record(name, key, old, new):
    """A same-size edit: the first ``old`` in record ``key`` of data file ``name`` becomes ``new``."""

    def apply(directory):
        toc = json.loads((directory / "toc.json").read_bytes())
        start, end = record_span(toc, name.removesuffix(".bin"), key)
        path = directory / name
        data = path.read_bytes()
        record = data[start:end]
        assert old in record and len(old) == len(new)
        path.write_bytes(data[:start] + record.replace(old, new, 1) + data[end:])

    return apply


SILENT_EDITS = {
    # A's two edge weights, 1.0 and 1.0, keep their exact sum, so the graph's
    # size is unchanged: of the checks a search makes, only the digest sees it
    "an edge weight": (
        "graphs.bin", "A", struct.pack("<2d", 1.0, 1.0), struct.pack("<2d", 1.0 + 2**-52, 1.0 - 2**-52)
    ),
    # A's rank under r1: a count of 2, label slots 0 and 1, positions 0 and 1, which become 1 and 0
    "the normalized order": ("ranks.bin", "A", b"\x02\x00\x01\x00\x01", b"\x02\x00\x01\x01\x00"),
}


@pytest.mark.parametrize("case", sorted(SILENT_EDITS))
def test_load_rejects_edit_only_the_digest_catches(tmp_path, toy_fg_index, case):
    name, key, old, new = SILENT_EDITS[case]
    index, fg_index = toy_fg_index
    save_index(tmp_path / "idx", fg_index)
    _replace_in_record(name, key, old, new)(tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    with pytest.raises(MalformedGraphRecord, match=f"in '{name}' does not match its digest"):
        loaded.graphs["A"] if name == "graphs.bin" else loaded.raw.get("r1", "A")


def test_load_accepts_lenient_graph_with_ranker_subset(tmp_path):
    index = toy_collection_index()
    partial = CollectionRankIndex(
        {
            "r1": {q: index.get("r1", q) for q in ("A", "B", "C")},
            "r2": {q: index.get("r2", q) for q in ("A", "B")},
        }
    )
    lenient = index_collection(partial, ("r1", "r2"), 2, "WGU")
    save_index(tmp_path / "idx", lenient)
    loaded = load_index(tmp_path / "idx")
    assert loaded.graphs == lenient.graphs


def test_fused_rank_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate item 'A'"):
        ScoredRank("q", "fusegraph", (("A", 0.9), ("A", 0.8)), 2)


def _lookup_pairs(index):
    """Every (ranker, item) pair of ``index``, plus pairs no rank answers."""
    rankers = (*index.rankers, "r-unknown")
    items = (*index.collection_items(), "not-an-item")
    return [(ranker, item) for ranker in rankers for item in items]


def test_loaded_normalized_lookup_equals_normalize_collection(tmp_path):
    index = random_rank_index(random.Random(5), n_items=16, n_rankers=3, depth=4)
    # an item with no rank under r3 must come back as None, as it does eagerly
    index = CollectionRankIndex(
        {r: {q: index.get(r, q) for q in index.queries(r) if (r, q) != ("r3", "d004")}
         for r in index.rankers}
    )
    depth = 4
    save_index(tmp_path / "idx", index_collection(index, index.rankers, depth))
    loaded = load_index(tmp_path / "idx")
    eager = normalize_collection(index, index.rankers, depth)
    pairs = _lookup_pairs(index)
    assert any(eager.get(r, q) is None for r, q in pairs)
    for ranker, item in pairs:
        assert loaded.normalized.get(ranker, item) == eager.get(ranker, item)
        raw = index.get(ranker, item)
        got = loaded.raw.get(ranker, item)
        assert (got is None) == (raw is None)
        if raw is not None:
            # raw positions are kept; normalization reads nothing else of a raw rank
            assert got.items() == raw.items()
    # a rank is built from its kept record on every read, and the index keeps none of them
    for ranks in (loaded.normalized, loaded.raw):
        rank = ranks.get("r1", "d000")
        assert rank == ranks.get("r1", "d000")
        built = weakref.ref(rank)
        del rank
        assert built() is None


# weights over 300 decades, and uniform ones of one decade, whose sums round in their last place
BOUND_WEIGHTS = st.one_of(st.floats(min_value=1e-300, max_value=1.0), st.floats(min_value=0.1, max_value=1.0))


@st.composite
def small_graph(draw, query):
    """A graph over one small label pool, so that two of them usually share vertices."""
    vertices = draw(st.dictionaries(st.sampled_from("abcdefgh"), BOUND_WEIGHTS, min_size=1))
    pairs = [(a, b) for a in vertices for b in vertices if a != b]
    edges = draw(st.dictionaries(st.sampled_from(pairs), BOUND_WEIGHTS)) if pairs else {}
    return FusionGraph(query, vertices, edges)


@st.composite
def graph_pairs(draw):
    return draw(small_graph("q")), draw(small_graph("d"))


@st.composite
def graph_dicts(draw):
    """Small graphs by item, the items inserted in random order."""
    items = draw(st.lists(st.text("dexyz", min_size=1, max_size=3), unique=True, max_size=8))
    return {item: draw(small_graph(item)) for item in items}


@settings(max_examples=100, deadline=None)
@given(graphs=graph_dicts())
def test_vertex_postings_follow_the_graphs(graphs):
    postings = VertexPostings.of(graphs)
    assert postings.items == sorted(graphs)
    assert postings.sizes == {item: graph_size(graph) for item, graph in graphs.items()}
    expected: dict = {}
    for slot, item in enumerate(sorted(graphs)):
        graph = graphs[item]
        for label, mass in vertex_masses(graph).items():
            expected.setdefault(label, []).append((slot, mass))
    unpacked = {label: list(POSTING.iter_unpack(data)) for label, data in postings.by_label.items()}
    for rows in unpacked.values():
        slots = [row[0] for row in rows]
        assert slots == sorted(set(slots))
    assert unpacked == expected


TINY = 2.0**-53  # 1.0 + TINY + TINY sums to 1.0 in plain floats, to 1 + 2^-52 in fsum


@settings(max_examples=300, deadline=None)
@given(pair=graph_pairs())
@example(pair=(FusionGraph("q", {"a": 1.0, "b": TINY, "c": TINY}, {}),
               FusionGraph("d", {"a": 1.0, "b": TINY, "c": TINY}, {})))
@example(pair=(FusionGraph("q", {"a": 1.0, "b": 1.0}, {("a", "b"): TINY, ("b", "a"): TINY}),
               FusionGraph("d", {"a": 1.0, "b": 1.0}, {("a", "b"): TINY, ("b", "a"): TINY})))
# every edge shared in both directions, each of the item's weights the smaller: the bound is its size, tight
@example(pair=(FusionGraph("q", {"a": 1.0, "b": 0.75}, {("a", "b"): 1.0, ("b", "a"): 0.5}),
               FusionGraph("d", {"a": 0.1, "b": 0.7}, {("a", "b"): 0.2, ("b", "a"): 0.1})))
# the item's mass at a exceeds the query's only through a -> c, which the query lacks
@example(pair=(FusionGraph("q", {"a": 1.0, "b": 1.0}, {}),
               FusionGraph("d", {"a": 0.5, "b": 1.0, "c": 1.0}, {("a", "c"): 1.0})))
def test_common_bound_and_distance_floors_hold(pair):
    query, item = pair
    bounds = common_bounds(VertexPostings.of({"d": item}), vertex_record(query))
    common = graph_size(mcs(query, item))
    assert set(bounds) == ({"d"} if query.vertices.keys() & item.vertices.keys() else set())
    sizes = graph_size(query), graph_size(item)
    for bound in (*bounds.values(), common):
        assert bound >= common
        assert dist_mcs_floor(bound, *sizes) <= dist_mcs(query, item)
        assert dist_wgu_floor(bound, *sizes) <= dist_wgu(query, item)


def test_item_whose_bound_equals_the_lth_distance_is_scored(monkeypatch):
    # "w" is a subgraph of the query, so its MCS bound is exact: 3. "x" ties
    # with it on distance but has a looser bound, 4: its edge a -> c is not
    # the query's, yet it makes x's mass at a, 2, that of the query, whose
    # a -> b is charged there. So x is scored first. The L-th distance then
    # equals w's bound, and w must still be scored: it wins the tie by id.
    query = FusionGraph("q", {"a": 1.0, "b": 1.0, "c": 1.0}, {("a", "b"): 1.0, ("b", "c"): 1.0})
    graphs = {
        "x": FusionGraph("x", {"a": 1.0, "b": 1.0, "c": 1.0}, {("a", "c"): 1.0}),
        "w": FusionGraph("w", {"a": 1.0, "b": 1.0, "c": 1.0}, {}),
    }
    empty = CollectionRankIndex({})
    fg_index = FusionGraphIndex(graphs, 1, ("r1",), "MCS", empty, empty)
    bounds = common_bounds(fg_index.postings, vertex_record(query))
    floors = {item: dist_mcs_floor(bounds[item], 5.0, graph_size(graphs[item])) for item in graphs}
    assert floors["x"] < floors["w"] == dist_mcs(query, graphs["w"]) == dist_mcs(query, graphs["x"])
    monkeypatch.setattr(retrieval, "build_query_graph", lambda *args: query)
    assert fuse_query(RankSet("q", ()), fg_index).entries == (("w", 1.0 - floors["w"]),)


def count_collection_builds(monkeypatch) -> Counter:
    """Count, by item, the collection graphs built through retrieval; a query graph has no shared table."""
    built: Counter = Counter()
    build = retrieval.build_fusion_graph

    def counted(rs, *args, **kwargs):
        if kwargs.get("table") is not None:
            built[rs.query] += 1
        return build(rs, *args, **kwargs)

    monkeypatch.setattr(retrieval, "build_fusion_graph", counted)
    return built


def test_library_path_builds_each_graph_once(tmp_path, monkeypatch):
    collection, _ = synthetic_collection(3, n_items=60, n_classes=12)
    items, rankers = collection.collection_items(), collection.rankers
    queries = [assemble_rank_set(item, collection, rankers) for item in items[::20]]
    built = count_collection_builds(monkeypatch)

    # searched, then saved: the first search builds every graph once and keeps it, and the writer reads those
    fg_index = index_collection(collection, rankers, 10)
    assert not built
    builder = weakref.ref(fg_index.graphs)  # what builds the graphs, and the neighbour table it fills
    for _ in range(2):
        searched = [fuse_query(rs, fg_index) for rs in queries]
    gc.collect()
    assert builder() is None
    save_index(tmp_path / "searched_first", fg_index)
    assert [fuse_query(rs, fg_index) for rs in queries] == searched
    assert built == Counter(items)

    # saved, then searched as loaded: the writer builds every graph once; the searches decode only
    # the graphs written that they score, each once however often they read it
    built.clear()
    save_index(tmp_path / "saved_first", index_collection(collection, rankers, 10))
    assert built == Counter(items)
    loaded = load_index(tmp_path / "saved_first")
    decoded: Counter = Counter()
    decode = retrieval.deserialize_graph

    def counted(data, *tables, size):
        graph = decode(data, *tables, size=size)
        decoded[graph.query] += 1
        return graph

    monkeypatch.setattr(retrieval, "deserialize_graph", counted)
    for _ in range(2):
        assert [fuse_query(rs, loaded) for rs in queries] == searched
    assert built == Counter(items)
    assert 0 < len(decoded) < len(items) and set(decoded.values()) == {1}
    assert index_files(tmp_path / "searched_first") == index_files(tmp_path / "saved_first")


def test_save_leaves_graphs_and_postings_as_they_were(tmp_path, toy_fg_index, monkeypatch):
    _, fg_index = toy_fg_index
    built = count_collection_builds(monkeypatch)
    graphs = fg_index.graphs
    save_index(tmp_path / "built", fg_index)
    assert fg_index.graphs is graphs and "postings" not in vars(fg_index)  # none derived, none set
    assert built == Counter("ABC")
    assert list(fg_index.graphs.values()) and built == Counter("ABCABC")  # the save kept no graph it built
    loaded = load_index(tmp_path / "built")
    graphs, postings = loaded.graphs, loaded.postings
    save_index(tmp_path / "loaded", loaded)
    assert loaded.graphs is graphs and loaded.postings is postings


def drop_ranks(collection, seed: int) -> CollectionRankIndex:
    """``collection`` less a few ranks, so a lenient build skips rankers and items."""
    ranks = {r: {q: collection.get(r, q) for q in collection.queries(r)} for r in collection.rankers}
    rng = random.Random(seed)
    for ranker in ranks:
        for item in rng.sample(sorted(ranks[ranker]), 3):
            del ranks[ranker][item]
    return CollectionRankIndex(ranks)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@pytest.mark.parametrize("seed", range(1, 6))
def test_streamed_index_equals_that_of_dict_graphs(tmp_path, seed, strict):
    collection, _ = synthetic_collection(seed, n_items=36, n_classes=6)
    if not strict:
        collection = drop_ranks(collection, seed)
    rankers = ("r1", "r2", "r3")
    save_index(tmp_path / "streamed", index_collection(collection, rankers, 10, strict=strict))
    normalized = normalize_collection(collection, rankers, 10)
    graphs = {}
    for item in reversed(collection.collection_items()):  # the writer sorts a dict's items itself
        rs = assemble_rank_set(item, normalized, rankers, strict)
        if rs:
            graphs[item] = build_fusion_graph(rs, normalized)
    save_index(tmp_path / "dict", FusionGraphIndex(graphs, 10, rankers, "WGU", normalized, collection))
    assert index_files(tmp_path / "streamed") == index_files(tmp_path / "dict")
    # a loaded index, whose ranks answer get only and whose items may lack some rankers, saves the same files
    save_index(tmp_path / "resaved", load_index(tmp_path / "streamed"))
    assert index_files(tmp_path / "resaved") == index_files(tmp_path / "streamed")


def raised(call) -> tuple | None:
    try:
        call()
    except MissingRank as exc:
        return exc.ranker, exc.query
    return None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), drops=st.integers(0, 8))
def test_strict_index_collection_raises_what_building_every_graph_raises(seed, drops):
    rng = random.Random(seed)
    full = random_rank_index(rng, n_items=8, n_rankers=3, depth=3)
    ranks = {r: {q: full.get(r, q) for q in full.queries(r)} for r in full.rankers}
    for _ in range(drops):
        ranker = rng.choice(sorted(ranks))
        if ranks[ranker]:
            del ranks[ranker][rng.choice(sorted(ranks[ranker]))]
    index, rankers = CollectionRankIndex(ranks), full.rankers

    def build_every_graph():
        normalized = normalize_collection(index, rankers, 3)
        for item in index.collection_items():
            reference_build_fusion_graph(assemble_rank_set(item, normalized, rankers, True), normalized, strict=True)

    assert raised(lambda: index_collection(index, rankers, 3, strict=True)) == raised(build_every_graph)


def weights_hex(graph: FusionGraph) -> tuple:
    """A graph's query and every weight by float.hex, so equal means equal bit for bit."""
    return graph.query, {v: w.hex() for v, w in graph.vertices.items()}, {e: w.hex() for e, w in graph.edges.items()}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    synthetic=st.booleans(),
    strict=st.booleans(),
    loaded=st.booleans(),
)
def test_an_items_own_ranks_get_its_stored_graph(seed, synthetic, strict, loaded):
    """An item's ranks, rescored and in any ranker order, get its stored graph: bit for bit the one built."""
    rng = random.Random(seed)
    depth = rng.randint(2, 6)
    if synthetic:
        collection, _ = synthetic_collection(seed % 1000, n_items=24, n_classes=6, depth=depth)
    else:
        collection = random_rank_index(rng, n_items=rng.randint(4, 16), depth=depth, cluster_size=rng.choice([None, 3]))
    if not strict:
        collection = drop_ranks(collection, seed)
    fg_index = index_collection(collection, collection.rankers, depth, strict=strict)
    with tempfile.TemporaryDirectory() as directory:
        if loaded:
            save_index(directory, fg_index)
            fg_index = load_index(directory)
        matched = 0
        for item in fg_index.graphs:
            ranks = [collection.get(ranker, item) for ranker in collection.rankers]
            if None in ranks:  # a lenient item without a rank under some ranker is no query of the index
                continue
            rng.shuffle(ranks)
            scores = [sorted(rng.sample(range(1, 99), len(r)), reverse=True) for r in ranks]
            rs = RankSet(item, [mkrank(item, r.ranker, r.items(), s, depth) for r, s in zip(ranks, scores)])
            graph = build_query_graph(rs, fg_index)
            assert graph is fg_index.graphs[item]
            assert weights_hex(graph) == weights_hex(reference_query_graph(rs, fg_index))
            matched += 1
    assert matched or not strict


def count_normalizations(monkeypatch) -> list:
    """The query of every normalize_rank_set call that build_query_graph makes."""
    calls = []
    normalize = retrieval.normalize_rank_set

    def counted(rs, *args):
        calls.append(rs.query)
        return normalize(rs, *args)

    monkeypatch.setattr(retrieval, "normalize_rank_set", counted)
    return calls


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_other_queries_take_the_general_path(tmp_path, toy_fg_index, monkeypatch, loaded):
    index, fg_index = toy_fg_index
    if loaded:
        save_index(tmp_path, fg_index)
        fg_index = load_index(tmp_path)
    calls = count_normalizations(monkeypatch)
    own = assemble_rank_set("A", index, ("r1", "r2"))
    assert build_query_graph(own, fg_index) is fg_index.graphs["A"] and calls == []
    # normalization puts A back first, so the graph is A's own; the path is taken by order alone
    swapped = RankSet("A", (mkrank("A", "r1", ["B", "A"], depth=2), index.get("r2", "A")))
    unindexed = query_rank_set()
    for rs in (swapped, unindexed):
        graph = build_query_graph(rs, fg_index)
        assert calls == [rs.query]
        assert weights_hex(graph) == weights_hex(reference_query_graph(rs, fg_index))
        assert fuse_query(rs, fg_index) == reference_fuse_query(rs, fg_index)
        assert calls == [rs.query] * 2
        calls.clear()


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_any_querys_graph_from_the_public_normalize_and_build(tmp_path, loaded):
    """normalize_rank_set over fg.raw, then build_fusion_graph over fg.normalized, give build_query_graph's graph.

    For held-out queries, and for collection items with two items of one rank
    swapped, bit for bit.
    """
    collection, _ = synthetic_collection(4, n_items=36, n_classes=6)
    rankers, depth = collection.rankers, 10
    fg_index = index_collection(collection, rankers, depth)
    if loaded:
        save_index(tmp_path, fg_index)
        fg_index = load_index(tmp_path)
    queries = []
    for item in collection.collection_items()[::6]:
        own = assemble_rank_set(item, collection, rankers)
        held_out = RankSet("zq", (mkrank("zq", r.ranker, r.items(), depth=depth) for r in own))
        first = list(own.ranks[0].items())
        first[1], first[2] = first[2], first[1]
        swapped = RankSet(item, (mkrank(item, rankers[0], first, depth=depth), *own.ranks[1:]))
        queries += [held_out, swapped]
    for rs in queries:
        graph = build_fusion_graph(normalize_rank_set(rs, fg_index.raw, depth), fg_index.normalized)
        assert weights_hex(graph) == weights_hex(build_query_graph(rs, fg_index))


def test_fusing_a_collection_item_on_a_loaded_index_reads_its_one_rank_record(tmp_path):
    """The item's m ranks come from one rank record, read once."""
    collection, _ = synthetic_collection(2, n_items=36, n_classes=6)
    rankers = collection.rankers
    save_index(tmp_path, index_collection(collection, rankers, 10))
    loaded = load_index(tmp_path)
    records, read = loaded.raw.records, Counter()
    make = records.make

    def counted(key):
        read[key] += 1
        return make(key)

    records.make = counted
    item = collection.collection_items()[7]
    rs = assemble_rank_set(item, collection, rankers)
    fused = fuse_query(rs, loaded, exclude_self=True)
    assert len(rankers) == 3 and read == Counter([item])
    assert fused == reference_fuse_query(rs, loaded, exclude_self=True)  # which normalizes, so reads more
    assert len(read) > 1
