import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusegraph.errors import BothEmpty
from fusegraph.graph import FusionGraph
from fusegraph.similarity import (
    McsStats,
    dist_mcs,
    dist_wgu,
    graph_size,
    mcs,
)

from helpers import (
    TooLarge,
    brute_force_mcs,
    reference_dist_mcs,
    reference_dist_wgu,
    reference_mcs,
)


def graph(name, vertices, edges=None):
    return FusionGraph(name, dict(vertices), dict(edges or {}))


@pytest.fixture
def worked_pair():
    a = graph("a", {"A": 1.0, "B": 0.5}, {("A", "B"): 1.0})
    b = graph("b", {"A": 0.8, "C": 0.3})
    return a, b


def random_graph(rng: random.Random, name, labels, max_vertices=6, max_edges=6):
    chosen = rng.sample(labels, rng.randint(1, max_vertices))
    vertices = {v: rng.uniform(0.05, 1.0) for v in chosen}
    edges = {}
    if len(chosen) > 1:
        for _ in range(rng.randint(0, max_edges)):
            src, tgt = rng.sample(chosen, 2)
            edges[(src, tgt)] = rng.uniform(0.05, 1.0)
    return graph(name, vertices, edges)


def test_mcs_identity():
    g = graph("g", {"A": 1.0, "B": 0.4}, {("A", "B"): 0.7})
    common = mcs(g, g)
    assert common.vertices == g.vertices
    assert common.edges == g.edges


def test_mcs_disjoint():
    a = graph("a", {"A": 1.0})
    b = graph("b", {"B": 1.0})
    common = mcs(a, b)
    assert common.vertices == {} and common.edges == {}
    assert graph_size(common) == 0.0


def test_mcs_worked_pair(worked_pair):
    a, b = worked_pair
    common = mcs(a, b)
    assert common.vertices == {"A": 0.8}
    assert common.edges == {}


def test_mcs_takes_min_weights():
    a = graph("a", {"A": 0.9, "B": 0.2}, {("A", "B"): 0.6})
    b = graph("b", {"A": 0.3, "B": 0.8}, {("A", "B"): 0.9})
    common = mcs(a, b)
    assert common.vertices == {"A": 0.3, "B": 0.2}
    assert common.edges == {("A", "B"): 0.6}


def test_graph_size_values(worked_pair):
    a, b = worked_pair
    assert graph_size(a) == 2.5
    assert graph_size(b) == pytest.approx(1.1, abs=1e-15)
    assert graph_size(graph("e", {"A": 1.0})) >= 1.0
    assert graph_size(FusionGraph("e", {}, {})) == 0.0


def test_dist_values(worked_pair):
    a, b = worked_pair
    assert dist_mcs(a, b) == pytest.approx(0.68, abs=1e-9)
    assert dist_wgu(a, b) == pytest.approx(1 - 0.8 / 2.8, abs=1e-9)
    assert dist_mcs(a, a) == 0.0
    assert dist_wgu(b, b) == 0.0


def test_dist_disjoint_is_one():
    a = graph("a", {"A": 1.0, "B": 0.2})
    b = graph("b", {"C": 1.0})
    assert dist_mcs(a, b) == 1.0
    assert dist_wgu(a, b) == 1.0


def test_dist_both_empty():
    empty = FusionGraph("e", {}, {})
    with pytest.raises(BothEmpty):
        dist_mcs(empty, FusionGraph("f", {}, {}))
    with pytest.raises(BothEmpty):
        dist_wgu(empty, FusionGraph("f", {}, {}))
    # one empty side is fine: distance 1
    assert dist_mcs(empty, graph("g", {"A": 1.0})) == 1.0


def test_distance_axioms_random():
    rng = random.Random(99)
    labels = [f"v{i}" for i in range(9)]
    for _ in range(300):
        a = random_graph(rng, "a", labels)
        b = random_graph(rng, "b", labels)
        d_mcs, d_wgu = dist_mcs(a, b), dist_wgu(a, b)
        assert 0.0 <= d_mcs <= 1.0 and 0.0 <= d_wgu <= 1.0
        assert d_mcs == dist_mcs(b, a)
        assert d_wgu == dist_wgu(b, a)
        assert d_wgu >= d_mcs
        assert dist_mcs(a, a) == 0.0
        assert dist_wgu(b, b) == 0.0


def test_monotonicity_adding_shared_vertex():
    # adding the same label with the same positive weight to both graphs
    # never increases either distance
    rng = random.Random(42)
    labels = [f"v{i}" for i in range(8)]
    for _ in range(200):
        a = random_graph(rng, "a", labels, max_vertices=5)
        b = random_graph(rng, "b", labels, max_vertices=5)
        weight = rng.uniform(0.05, 1.0)
        extra = "shared_new"
        a2 = graph("a", {**a.vertices, extra: weight}, a.edges)
        b2 = graph("b", {**b.vertices, extra: weight}, b.edges)
        assert dist_mcs(a2, b2) <= dist_mcs(a, b) + 1e-12
        assert dist_wgu(a2, b2) <= dist_wgu(a, b) + 1e-12


def test_brute_force_matches_fast():
    rng = random.Random(1234)
    labels = [f"v{i}" for i in range(8)]
    for _ in range(60):
        a = random_graph(rng, "a", labels)
        b = random_graph(rng, "b", labels)
        assert graph_size(brute_force_mcs(a, b)) == graph_size(mcs(a, b))


def test_brute_force_small_cases():
    g = graph("g", {"A": 0.5, "B": 0.25, "C": 1.0}, {("A", "C"): 0.4})
    assert graph_size(brute_force_mcs(g, g)) == graph_size(g)
    a = graph("a", {"A": 1.0})
    b = graph("b", {"B": 1.0})
    result = brute_force_mcs(a, b)
    assert result.vertices == {} and result.edges == {}


def test_brute_force_cap():
    labels = [f"v{i}" for i in range(9)]
    big = graph("g", {v: 0.5 for v in labels})
    with pytest.raises(TooLarge):
        brute_force_mcs(big, big)


def test_mcs_comparison_budget():
    rng = random.Random(77)
    labels = [f"v{i}" for i in range(10)]
    for _ in range(100):
        a = random_graph(rng, "a", labels, max_vertices=8, max_edges=10)
        b = random_graph(rng, "b", labels, max_vertices=8, max_edges=10)
        stats = McsStats()
        mcs(a, b, stats)
        budget = len(a.vertices) * len(b.vertices) + len(a.edges) + len(b.edges)
        assert stats.comparisons <= budget


# weights from 1e-300 up to 1, spread over every decade in between, and
# uniform ones of one decade, whose sums round in their last place
WEIGHTS = st.one_of(
    st.floats(min_value=1e-300, max_value=1.0),
    st.floats(min_value=0.1, max_value=1.0),
    st.integers(min_value=-300, max_value=0).map(lambda e: 10.0**e),
    st.integers(min_value=-300, max_value=0).flatmap(
        lambda e: st.floats(min_value=1.0, max_value=9.99).map(lambda m: m * 10.0**e)
    ),
)


@st.composite
def weighted_graphs(draw, name):
    labels = draw(st.sets(st.sampled_from([f"v{i}" for i in range(8)]), min_size=1))
    vertices = {v: draw(WEIGHTS) for v in sorted(labels)}
    pairs = [(s, t) for s in sorted(labels) for t in sorted(labels) if s != t]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph(name, vertices, {pair: draw(WEIGHTS) for pair in chosen})


@st.composite
def graph_pairs(draw):
    """Two weighted graphs; half of the time the second has as many vertices and as many edges as the first."""
    a = draw(weighted_graphs("a"))
    if draw(st.booleans()):
        return a, draw(weighted_graphs("b"))
    labels = draw(st.lists(st.sampled_from([f"v{i}" for i in range(8)]), min_size=len(a.vertices),
                           max_size=len(a.vertices), unique=True))
    pairs = [(s, t) for s in labels for t in labels if s != t]
    edges = st.lists(st.sampled_from(pairs), min_size=len(a.edges), max_size=len(a.edges), unique=True)
    chosen = draw(edges) if pairs else []
    return a, graph("b", {v: draw(WEIGHTS) for v in labels}, {pair: draw(WEIGHTS) for pair in chosen})


# a pair whose union, summed from the three rounded sizes |a| + |b| - |mcs|, is one unit in the last place off
UNION_OF_SIZES_ROUNDS_AGAIN = (
    graph("a", {"v4": 6.284485019821408e-13, "v1": 0.7369075113003171, "v0": 1.0, "v2": 0.6866292037100178}),
    graph("b", {"v3": 0.43812894915290224, "v5": 0.11918673240587485, "v1": 1.0, "v4": 1.0}),
)


@settings(max_examples=300, deadline=None)
@given(graph_pairs())
@example(UNION_OF_SIZES_ROUNDS_AGAIN)
def test_fast_kernel_bit_equal_to_reference(pair):
    """mcs and both distances, in either argument order, with their sizes computed or given."""
    for a, b in (pair, pair[::-1]):
        stats, reference_stats = McsStats(), McsStats()
        common, expected = mcs(a, b, stats), reference_mcs(a, b, reference_stats)
        assert common.vertices == expected.vertices
        assert common.edges == expected.edges
        assert stats.comparisons == reference_stats.comparisons
        for distance, reference in ((dist_wgu, reference_dist_wgu), (dist_mcs, reference_dist_mcs)):
            assert distance(a, b).hex() == reference(a, b).hex()
            assert distance(a, b, graph_size(a), graph_size(b)).hex() == reference(a, b).hex()
