import itertools
import json
import math
import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusegraph.errors import EmptyGraph, MalformedGraphRecord, MissingRank
from fusegraph.graph import (
    BuildStats,
    FusionGraph,
    build_fusion_graph,
    deserialize_graph,
    graph_size,
    serialize_graph,
    vertex_record,
)
from fusegraph.model import CollectionRankIndex, RankSet, assemble_rank_set
from fusegraph.normalize import normalize_collection
from fusegraph.retrieval import index_collection

from helpers import (
    mkrank,
    normalize_graph_weights,
    random_rank_index,
    reference_build_fusion_graph,
    reference_serialize_graph,
    vertex_masses,
    worked_example_index,
)


def assert_weight_normalized(graph):
    """The largest vertex weight, and the largest edge weight if any, is 1.0."""
    assert max(graph.vertices.values()) == 1.0
    assert max(graph.edges.values(), default=1.0) == 1.0


@pytest.fixture
def worked_graph():
    index = worked_example_index()
    rs = RankSet("q", (index.get("r1", "q"), index.get("r2", "q")))
    return build_fusion_graph(rs, index)


def test_worked_example_weights(worked_graph):
    assert worked_graph.vertices == {"A": 1.0, "B": 0.05, "C": 0.05}
    assert worked_graph.edges == {("A", "B"): 1.0, ("A", "C"): 1.0}
    assert_weight_normalized(worked_graph)


def test_smallest_graph_single_self_rank():
    index_rank = mkrank("q", "r1", ["q"], scores=[1.0], depth=1)
    from fusegraph.model import CollectionRankIndex

    index = CollectionRankIndex({"r1": {"q": index_rank}})
    graph = build_fusion_graph(RankSet("q", (index_rank,)), index)
    assert graph.vertices == {"q": 1.0}
    assert graph.edges == {}


def test_build_deterministic(worked_graph):
    index = worked_example_index()
    rs = RankSet("q", (index.get("r1", "q"), index.get("r2", "q")))
    assert build_fusion_graph(rs, index) == worked_graph


def test_ranker_permutation_changes_nothing():
    rng = random.Random(11)
    index = random_rank_index(rng, n_items=14, n_rankers=4, depth=5)
    depth = 5
    normalized = normalize_collection(index, index.rankers, depth)
    rs = assemble_rank_set("d003", normalized, normalized.rankers)
    reference = build_fusion_graph(rs, normalized)
    for perm in itertools.permutations(rs.ranks):
        permuted = RankSet("d003", perm)
        graph = build_fusion_graph(permuted, normalized)
        assert graph.vertices == reference.vertices
        assert graph.edges == reference.edges


def test_vertex_bounds():
    rng = random.Random(5)
    index = random_rank_index(rng, n_items=20, n_rankers=3, depth=6)
    depth = 6
    normalized = normalize_collection(index, index.rankers, depth)
    for item in normalized.collection_items()[:8]:
        rs = assemble_rank_set(item, normalized, normalized.rankers)
        graph = build_fusion_graph(rs, normalized)
        assert set(graph.vertices) == {item for rank in rs for item in rank.items()}
        assert len(graph.vertices) <= len(rs) * depth
        assert graph.vertices
        assert max(graph.vertices.values()) == 1.0
        for (src, tgt) in graph.edges:
            assert src != tgt
            assert src in graph.vertices and tgt in graph.vertices


def test_lenient_vertex_without_ranks_has_no_out_edges(worked_graph):
    # X and Y never get indexed ranks; B's and C's edges to them exist, but
    # X/Y themselves emit nothing (exercised indirectly: the worked graph has
    # no edges out of B or C because their neighbors fall outside the vertex set)
    sources = {src for src, _ in worked_graph.edges}
    assert sources == {"A"}


def test_strict_mode_raises_for_rankless_vertex():
    index = worked_example_index()
    rs = RankSet("q", (index.get("r1", "q"), index.get("r2", "q")))
    # q's vertices are A, B, C, all ranked; make B and C unreachable instead
    partial = CollectionRankIndex({ranker: {q: index.get(ranker, q) for q in ("q", "A")} for ranker in index.rankers})
    with pytest.raises(MissingRank) as excinfo:  # strict mode raises in index_collection, before any graph is built
        index_collection(partial, index.rankers, 2, strict=True)
    assert (excinfo.value.ranker, excinfo.value.query) == ("r1", "B")
    lenient = build_fusion_graph(rs, partial)
    assert lenient.vertices == {"A": 1.0, "B": 0.05, "C": 0.05}


def test_normalize_graph_weights_values():
    graph = FusionGraph("q", {"A": 2.0, "B": 0.1, "C": 0.1}, {})
    out = normalize_graph_weights(graph)
    assert out.vertices == {"A": 1.0, "B": 0.05, "C": 0.05}
    assert_weight_normalized(out)


def test_normalize_graph_weights_idempotent(worked_graph):
    again = normalize_graph_weights(worked_graph)
    assert again.vertices == worked_graph.vertices
    assert again.edges == worked_graph.edges


def test_normalize_graph_weights_no_edges_ok():
    out = normalize_graph_weights(FusionGraph("q", {"A": 0.5}, {}))
    assert out.vertices == {"A": 1.0}
    assert out.edges == {}


def test_normalize_graph_weights_empty_graph():
    with pytest.raises(EmptyGraph):
        normalize_graph_weights(FusionGraph("q", {}, {}))


def test_graph_constructor_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-edge"):
        FusionGraph("q", {"A": 1.0}, {("A", "A"): 1.0})
    with pytest.raises(ValueError, match="endpoint"):
        FusionGraph("q", {"A": 1.0}, {("A", "B"): 1.0})


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0], ids=repr)
@pytest.mark.parametrize("key", ["B", ("A", "B")], ids=["vertex", "edge"])
def test_graph_constructor_rejects_weights_not_finite_and_positive(key, weight):
    # a graph of zero weights has size 0, on which dist_mcs and dist_wgu would divide by zero
    vertices, edges = {"A": 1.0, "B": 1.0}, {("A", "B"): 1.0}
    (edges if type(key) is tuple else vertices)[key] = weight
    with pytest.raises(ValueError, match=rf"weight of {re.escape(repr(key))} must be finite and positive"):
        FusionGraph("q", vertices, edges)


def test_serialize_round_trip(worked_graph):
    line, _ = serialize_graph(worked_graph)
    assert deserialize_graph(line) == worked_graph
    # byte-determinism of re-serialization
    assert serialize_graph(deserialize_graph(line))[0] == line


def test_deserialize_rejects_garbage():
    with pytest.raises(MalformedGraphRecord):
        deserialize_graph(b"{not json\n")
    with pytest.raises(MalformedGraphRecord):
        deserialize_graph(b'{"v": 99, "query": "q"}\n')
    with pytest.raises(MalformedGraphRecord):
        deserialize_graph(b"[1, 2, 3]\n")


def test_deserialize_truncated_record(worked_graph):
    line, _ = serialize_graph(worked_graph)
    with pytest.raises(MalformedGraphRecord):
        deserialize_graph(line[: len(line) // 2])


def test_deserialize_empty_vertex_map():
    with pytest.raises(EmptyGraph):
        deserialize_graph(b'{"query":"q","vertices":[]}\n')


def _record(header, weights, degrees, edge_weights, targets, tail=b"", slot="B"):
    """A graph record written independently of the codec: JSON header line, then the compressed sparse rows."""
    return b"".join((
        header if isinstance(header, bytes) else json.dumps(header).encode("utf-8"),
        b"\n",
        struct.pack(f"<{len(weights)}d", *weights),
        struct.pack(f"<{len(degrees)}{slot}", *degrees),
        struct.pack(f"<{len(edge_weights)}d", *edge_weights),
        struct.pack(f"<{len(targets)}{slot}", *targets),
        tail,
    ))


WORKED = {
    "header": {"query": "q", "vertices": ["A", "B", "C"]},
    "weights": (1.0, 0.05, 0.05),
    "degrees": (2, 0, 0),  # A -> B, A -> C
    "edge_weights": (1.0, 1.0),
    "targets": (1, 2),
}


def test_record_layout(worked_graph):
    header = b'{"query":"q","vertices":["A","B","C"]}'
    assert serialize_graph(worked_graph)[0] == _record(**{**WORKED, "header": header})


# the worked record's arrays take 9 bytes, a float64 and a one-byte slot or
# degree, per vertex and per edge: 45 bytes
CORRUPTIONS = {
    "header not json": ({"header": b"{not json"}, "header is not JSON"),
    "partial item": ({"tail": b"1234567"}, "52 bytes of arrays"),
    "weight count": ({"weights": (1.0, 0.5)}, "37 bytes of arrays"),
    "endpoint count": ({"targets": (1,)}, "44 bytes of arrays"),
    "degree count": ({"degrees": (2, 0)}, "44 bytes of arrays"),
    "slot out of range": ({"targets": (1, 3)}, "slot 3"),
    "target out of range": ({"targets": (255, 2)}, "slot 255, beyond its 3 labels"),
    "degrees short of the edges": ({"degrees": (1, 0, 0)}, "out-degrees that sum to 1, not its 2 edges"),
    "degrees beyond the edges": ({"degrees": (2, 1, 0)}, "out-degrees that sum to 3, not its 2 edges"),
    # a whole edge's bytes after the last array read as a third edge
    "bytes after the last array": ({"tail": bytes(9)}, "out-degrees that sum to 2, not its 3 edges"),
    "duplicate label": ({"header": {"query": "q", "vertices": ["A", "A", "C"]}}, "duplicate label"),
    "duplicate edge": ({"targets": (1, 1)}, "duplicate edge"),
    "non-string label": ({"header": {"query": "q", "vertices": ["A", 7, "C"]}}, "non-string label"),
    "self-edge": ({"targets": (0, 2)}, "self-edge"),
    "self-edge of a later source": ({"degrees": (1, 1, 0), "targets": (1, 1)}, "self-edge"),
    "negative weight": ({"weights": (1.0, -0.05, 0.05)}, "not finite and positive"),
    "zero vertex weight": ({"weights": (1.0, 0.0, 0.05)}, "not finite and positive"),
    "negative zero vertex weight": ({"weights": (1.0, -0.0, 0.05)}, "not finite and positive"),
    "zero edge weight": ({"edge_weights": (0.0, 1.0)}, "not finite and positive"),
    "negative zero edge weight": ({"edge_weights": (1.0, -0.0)}, "not finite and positive"),
    "weight not finite": ({"edge_weights": (math.inf, 1.0)}, "not finite"),
    "infinities of each sign": ({"weights": (math.inf, -math.inf, 0.05)}, "not finite and positive"),
    "two-byte slots under 257 labels": ({"slot": "H"}, "50 bytes of arrays"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_deserialize_rejects_corrupt_record(worked_graph, case):
    edit, message = CORRUPTIONS[case]
    with pytest.raises(MalformedGraphRecord, match=message):
        deserialize_graph(_record(**{**WORKED, **edit}))


def test_deserialize_checks_the_weights_against_a_given_size():
    record = _record(**WORKED)
    size = graph_size(deserialize_graph(record))
    assert deserialize_graph(record, size=size) == deserialize_graph(record)
    larger = math.nextafter(size, math.inf)
    with pytest.raises(MalformedGraphRecord) as caught:
        deserialize_graph(record, size=larger)
    assert str(caught.value) == f"graph record for 'q' has weights that disagree with its size {larger!r}"
    with pytest.raises(MalformedGraphRecord, match="a weight that is not finite and positive"):  # checked first
        deserialize_graph(_record(**{**WORKED, "edge_weights": (math.inf, 1.0)}), size=size)


# a three-label record with faults among the decoder's checks, which run in the order degrees,
# target range, duplicate label, self-edge, duplicate edge, weights: the full message of each, as
# recorded from the decoder that compared every edge's endpoints and took max(targets) first
A_C = {"query": "q", "vertices": ["A", "A", "C"]}
PRECEDENCE = {
    "degrees": ({"degrees": (1, 0, 0)}, "out-degrees that sum to 1, not its 2 edges"),
    "target": ({"targets": (1, 3)}, "an edge target at slot 3, beyond its 3 labels"),
    "duplicate label": ({"header": A_C}, "a duplicate label"),
    "self-edge": ({"targets": (0, 2)}, "a self-edge"),
    "duplicate edge": ({"targets": (1, 1)}, "a duplicate edge"),
    "weight": ({"weights": (1.0, -0.5, 0.25)}, "a weight that is not finite and positive"),
    "self-edge and duplicate edge": ({"targets": (0, 0)}, "a self-edge"),
    "self-edge of a later source and duplicate edge": ({"degrees": (0, 2, 0), "targets": (1, 1)}, "a self-edge"),
    "duplicate label and bad target": ({"header": A_C, "targets": (1, 9)},
                                       "an edge target at slot 9, beyond its 3 labels"),
    "bad target and self-edge": ({"targets": (0, 200)}, "an edge target at slot 200, beyond its 3 labels"),
    "two bad targets, the larger first": ({"targets": (9, 5)}, "an edge target at slot 9, beyond its 3 labels"),
    "two bad targets, the larger last": ({"targets": (5, 9)}, "an edge target at slot 9, beyond its 3 labels"),
    "degrees and bad target": ({"degrees": (3, 0, 0), "targets": (1, 9)}, "out-degrees that sum to 3, not its 2 edges"),
    "duplicate label and self-edge": ({"header": A_C, "targets": (0, 2)}, "a duplicate label"),
    "duplicate label and duplicate edge": ({"header": A_C, "targets": (1, 1)}, "a duplicate label"),
    "self-edge and weight": ({"edge_weights": (1.0, math.nan), "targets": (2, 0)}, "a self-edge"),
    "duplicate edge and weight": ({"edge_weights": (0.0, 0.5), "targets": (2, 2)}, "a duplicate edge"),
}


@pytest.mark.parametrize("case", PRECEDENCE)
def test_decoder_reports_the_first_fault_in_check_order(case):
    edit, problem = PRECEDENCE[case]
    with pytest.raises(MalformedGraphRecord) as caught:
        deserialize_graph(_record(**{**WORKED, "weights": (1.0, 0.5, 0.25), "edge_weights": (1.0, 0.5), **edit}))
    assert str(caught.value) == f"graph record for 'q' has {problem}"


@pytest.mark.parametrize("n_labels, slot", [(256, "B"), (257, "H"), (65536, "H"), (65537, "I")])
def test_slot_width_follows_the_label_count(n_labels, slot):
    """A slot or a degree takes 1 byte up to 256 labels, 2 up to 65536 and 4 beyond."""
    labels = [f"v{i:05d}" for i in range(n_labels)]
    vertices = dict.fromkeys(labels, 1.0)
    # the last slot, at the top of its width, as a source and as a target; no edges at the large sizes
    edges = {(labels[0], labels[-1]): 0.5, (labels[-1], labels[0]): 1.0} if n_labels < 1000 else {}
    graph = FusionGraph("q", vertices, edges)
    line, _ = serialize_graph(graph)
    body = line.partition(b"\n")[2]
    assert len(body) == (8 + struct.calcsize(slot)) * (n_labels + len(edges))
    restored = deserialize_graph(line)
    assert restored == graph
    assert serialize_graph(restored)[0] == line
    if edges:
        assert line == reference_serialize_graph(graph)


WEIGHTS = st.floats(min_value=5e-324, max_value=1.0)
LABELS = st.text(min_size=1, max_size=6)  # any code points, spaces included


@st.composite
def stored_graphs(draw):
    """A checked graph; now and then one of more than 256 vertices, whose record takes two-byte slots."""
    if draw(st.integers(0, 7)):
        vertices = draw(st.dictionaries(LABELS, WEIGHTS, min_size=1, max_size=8))
    else:
        weights = draw(st.lists(WEIGHTS, min_size=257, max_size=300))
        vertices = {f"v{i}": weight for i, weight in enumerate(weights)}
    labels, n = list(vertices), len(vertices)
    # a source and an offset from it: every ordered pair of distinct vertices
    pairs = st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1)))
    edge_keys = pairs.map(lambda p: (labels[p[0]], labels[(p[0] + p[1]) % n]))
    edges = draw(st.dictionaries(edge_keys, WEIGHTS, max_size=16)) if n > 1 else {}
    return FusionGraph(draw(LABELS), vertices, edges)


@settings(max_examples=200, deadline=None)
@given(graph=stored_graphs())
@example(graph=FusionGraph("q é", {"b c": 5e-324, "ü": 1.0}, {}))
@example(graph=FusionGraph("q", {"x y": 0.5, "日本": 1.0}, {("日本", "x y"): 5e-324}))
def test_serialize_round_trip_is_bit_exact(graph):
    line, _ = serialize_graph(graph)
    restored = deserialize_graph(line)
    assert restored == graph
    assert {k: v.hex() for k, v in restored.vertices.items()} == {
        k: v.hex() for k, v in graph.vertices.items()
    }
    assert {k: v.hex() for k, v in restored.edges.items()} == {
        k: v.hex() for k, v in graph.edges.items()
    }
    assert serialize_graph(restored)[0] == line


@st.composite
def shuffled_graphs(draw):
    """A stored graph whose edges are inserted in a drawn order, sorted or not."""
    graph = draw(stored_graphs())
    edges = dict(draw(st.permutations(list(graph.edges.items()))))
    return FusionGraph(graph.query, graph.vertices, edges)


@settings(max_examples=300, deadline=None)
@given(graph=shuffled_graphs())
@example(graph=FusionGraph("q", {"a": 0.5}, {}))
@example(graph=FusionGraph("q", {"a": 0.5, "b": 1.0}, {}))
@example(graph=FusionGraph("q", {"a": 0.5, "b": 1.0, "c": 0.25}, {("c", "a"): 1.0, ("a", "c"): 0.5, ("a", "b"): 0.1}))
def test_serialize_takes_the_vertex_record_of_the_specification(graph):
    """One walk packs the record and takes the vertex record: both bit for bit the specification's."""
    line, returned = serialize_graph(graph)
    assert line == reference_serialize_graph(graph)
    masses = vertex_masses(graph)
    for record in (returned, vertex_record(graph)):
        assert record.labels == sorted(graph.vertices)
        assert [m.hex() for m in record.mass] == [masses[label].hex() for label in record.labels]
        assert record.size.hex() == graph_size(graph).hex()


def test_serialize_graph_writes_nothing_into_the_graph(worked_graph):
    decoded = deserialize_graph(_record(**WORKED))
    for graph in (worked_graph, decoded):  # a builder graph, then one whose edges are a dict
        keys = sorted(graph.__dict__)
        serialize_graph(graph)
        vertex_record(graph)
        assert sorted(graph.__dict__) == keys
    assert "edges" not in worked_graph.__dict__  # packed from its arrays
    assert sorted(decoded.__dict__) == ["edges", "query", "vertices"]


def test_graph_equality_ignores_the_vertex_record_cache(worked_graph):
    decoded = deserialize_graph(serialize_graph(worked_graph)[0])
    assert worked_graph == decoded and decoded == worked_graph
    assert worked_graph != FusionGraph("q", worked_graph.vertices, {})
    assert worked_graph != FusionGraph("p", worked_graph.vertices, worked_graph.edges)


def test_serialize_graph_of_weights_fsum_cannot_sum_leaves_no_record():
    graph = FusionGraph("q", {"a": 1.7e308, "b": 1.7e308}, {})
    with pytest.raises(OverflowError):
        serialize_graph(graph)
    with pytest.raises(MalformedGraphRecord, match="not finite"):
        deserialize_graph(reference_serialize_graph(graph))


def test_two_part_edge_whose_sum_overflows_raises_as_fsum_does():
    index = CollectionRankIndex({r: {"A": mkrank("A", r, ["A", "B"], [1.0, 1e308])} for r in ("r1", "r2")})
    rs = RankSet("q", (mkrank("q", "r1", ["A", "B"], [1.0, 0.5]), mkrank("q", "r2", ["B"], [1.0])))
    for build in (build_fusion_graph, reference_build_fusion_graph):
        with pytest.raises(OverflowError):
            build(rs, index)


def test_build_stats_counts_visits():
    index = worked_example_index()
    rs = RankSet("q", (index.get("r1", "q"), index.get("r2", "q")))
    stats = BuildStats()
    build_fusion_graph(rs, index, stats=stats)
    m, L = 2, 2
    assert 0 < stats.entry_visits <= 4 * m * m * L * L


def test_build_emits_edges_in_sorted_order():
    index = random_rank_index(random.Random(13), n_items=20, n_rankers=3, depth=6)
    normalized = normalize_collection(index, index.rankers, 6)
    for item in normalized.collection_items():
        rs = assemble_rank_set(item, normalized, normalized.rankers)
        graph = build_fusion_graph(rs, normalized)
        assert graph.edges
        assert list(graph.edges) == sorted(graph.edges)


def hexes(weights):
    return {key: weight.hex() for key, weight in weights.items()}


@st.composite
def partial_collections(draw):
    """A random_rank_index collection with some ranks dropped, and a visiting order.

    Items outnumber the depth by at most four, so an item often occurs in
    several of a query's ranks, at different positions.
    """
    depth = draw(st.integers(1, 6))
    n_rankers = draw(st.integers(1, 4))
    n_items = draw(st.integers(max(depth, 2), depth + 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    full = random_rank_index(rng, n_items=n_items, n_rankers=n_rankers, depth=depth)
    items = full.collection_items()
    dropped = draw(
        st.sets(st.tuples(st.sampled_from(full.rankers), st.sampled_from(items)), max_size=n_items)
    )
    index = CollectionRankIndex(
        {
            ranker: {q: full.get(ranker, q) for q in items if (ranker, q) not in dropped}
            for ranker in full.rankers
        }
    )
    return index, draw(st.permutations(items))


@settings(max_examples=150, deadline=None)
@given(collection=partial_collections(), data=st.data())
def test_build_matches_reference_bit_for_bit(collection, data):
    index, order = collection
    table = {}  # one table for the whole collection, as index_collection shares it
    for item in order:
        available = [r for r in index.rankers if index.get(r, item) is not None]
        if not available:
            continue
        rs = assemble_rank_set(item, index, data.draw(st.permutations(available)))
        expected = reference_build_fusion_graph(rs, index)
        masses, size = vertex_masses(expected), graph_size(expected).hex()
        # with the shared table, and with a table of the graph's own
        for graph in (build_fusion_graph(rs, index, table=table), build_fusion_graph(rs, index)):
            record, head = serialize_graph(graph)  # from the builder's arrays, before its edges are read
            for vertices in (head, vertex_record(graph)):
                assert vertices.labels == sorted(masses)
                assert [mass.hex() for mass in vertices.mass] == [masses[label].hex() for label in vertices.labels]
                assert vertices.size.hex() == size
            assert "edges" not in graph.__dict__
            assert record == reference_serialize_graph(FusionGraph(graph.query, graph.vertices, dict(graph.edges)))
            assert graph.query == expected.query
            assert list(graph.edges) == sorted(expected.edges)
            assert hexes(graph.vertices) == hexes(expected.vertices)
            assert hexes(graph.edges) == hexes(expected.edges)
            FusionGraph(graph.query, graph.vertices, graph.edges)  # passes the public checks
