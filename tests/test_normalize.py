import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusegraph.errors import EmptyRank, InvalidRankSet
from fusegraph.model import CollectionRankIndex, RankSet, ScoredEntry, ScoredRank
from fusegraph.normalize import (
    delta,
    grid_score,
    gridded_rank,
    normalize_collection,
    normalize_rank,
    normalize_rank_set,
)

from helpers import mkrank, random_rank_index


def index_from(layout, depth):
    ranks = {}
    for ranker, per_query in layout.items():
        ranks[ranker] = {
            q: mkrank(q, ranker, items, depth=depth) for q, items in per_query.items()
        }
    return CollectionRankIndex(ranks)


def test_normalize_rank_rejects_depth_below_one():
    index = index_from({"r": {"q": ["A"], "A": ["A"]}}, depth=1)
    with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
        normalize_rank(index.get("r", "q"), index, 0)


def test_delta_hand_values():
    # j at position 2 of i's rank, i at position 3 of j's: 2 + 3 + 3 = 8
    index = index_from(
        {"r": {"i": ["x", "j", "y"], "j": ["x", "y", "i"]}}, depth=10
    )
    depth = 10
    assert delta(index.get("r", "i"), "j", index, depth) == 8
    assert delta(index.get("r", "j"), "i", index, depth) == 8  # symmetric


def test_delta_symmetric_top():
    index = index_from({"r": {"i": ["j", "x"], "j": ["i", "y"]}}, depth=10)
    assert delta(index.get("r", "i"), "j", index, 10) == 3


def test_delta_sentinel_for_absent():
    # j absent from i's rank (L=10, sentinel 11), i at position 2 of j's rank
    index = index_from({"r": {"i": ["x", "y"], "j": ["x", "i"]}}, depth=10)
    depth = 10
    assert delta(index.get("r", "i"), "j", index, depth) == 11 + 2 + 11


def test_delta_reads_the_rank_it_is_given():
    # i has no stored rank (a held-out query): j at position 1 of i's given rank, i at position 2 of j's
    index = index_from({"r": {"j": ["x", "i"], "q": ["q", "x"]}}, depth=10)
    held_out = mkrank("i", "r", ["j", "x"], depth=10)
    assert delta(held_out, "j", index, 10) == 1 + 2 + 2
    # j == i: both positions are i's in the given rank, never the index's stored rank of i
    stored = index.get("r", "q")
    given = mkrank("q", "r", ["x", "q"], depth=10)
    assert delta(stored, "q", index, 10) == 1 + 1 + 1
    assert delta(given, "q", index, 10) == 2 + 2 + 2


def test_delta_range():
    rng = random.Random(7)
    index = random_rank_index(rng, n_items=12, n_rankers=2, depth=4)
    depth = 4
    items = index.collection_items()
    for _ in range(200):
        i, j = rng.choice(items), rng.choice(items)
        value = delta(index.get("r1", i), j, index, depth)
        assert 3 <= value <= 3 * (depth + 1)


def test_reposition_stability_under_ties():
    # no item ranks any other, so every delta uses the same sentinel values
    index = index_from(
        {"r": {"q": ["A", "B", "C"], "A": ["A"], "B": ["B"], "C": ["C"]}}, depth=5
    )
    depth = 5
    out = normalize_rank(index.get("r", "q"), index, depth)
    assert out.items() == ("A", "B", "C")


def test_reposition_reorders_by_delta():
    # delta(q, A) = 1+4+4 = 9, delta(q, B) = 2+1+2 = 5, delta(q, C) = 3+11+11 = 25
    index = index_from(
        {
            "r": {
                "q": ["A", "B", "C"],
                "A": ["w", "x", "y", "q"],
                "B": ["q", "z"],
                "C": ["w"],
            }
        },
        depth=10,
    )
    depth = 10
    out = normalize_rank(index.get("r", "q"), index, depth)
    assert out.items() == ("B", "A", "C")


PINNED = {
    "r": {
        "d0": ["d5", "d3", "d1", "d2"],
        "d1": ["d4", "d3", "d5", "d2"],
        "d2": ["d2", "d1", "d4", "d0"],
        "d3": ["d3", "d2", "d0", "d5"],
        "d4": ["d4", "d2", "d0", "d3"],
        "d5": ["d5", "d3", "d1", "d2"],
    }
}


def stored_under_its_query(index: CollectionRankIndex, rank: ScoredRank) -> CollectionRankIndex:
    """``index`` with ``rank`` stored under its ranker and query, in place of any rank stored there."""
    stored = {ranker: {query: index.get(ranker, query) for query in index.queries(ranker)} for ranker in index.rankers}
    stored.setdefault(rank.ranker, {})[rank.query] = rank
    return CollectionRankIndex(stored)


def test_renormalizing_reads_the_normalized_rank():
    """A normalized rank given back is repositioned by its own positions, so it need not stay in order."""
    index = index_from(PINNED, depth=4)
    once = normalize_rank(index.get("r", "d0"), index, 4)
    assert once.items() == ("d3", "d5", "d2", "d1")
    twice = normalize_rank(once, index, 4)
    assert twice.items() == ("d3", "d2", "d5", "d1")
    assert twice == normalize_rank(once, stored_under_its_query(index, once), 4)


def test_reposition_truncates_prefix_first():
    index = index_from(
        {"r": {"q": ["A", "B", "C", "D"], "A": ["A"], "B": ["B"], "C": ["C"], "D": ["q"]}},
        depth=4,
    )
    depth = 2
    out = normalize_rank(index.get("r", "q"), index, depth)
    # D would sort first by delta, but only the top-2 prefix is considered
    assert set(out.items()) == {"A", "B"}


def test_rescale_grid_l5():
    out = gridded_rank("q", "r", ["a", "b", "c", "d", "e"], 5)
    scores = [e.score for e in out.entries]
    assert scores == pytest.approx([1.0, 0.775, 0.55, 0.325, 0.1], abs=1e-12)
    assert scores[0] == 1.0 and scores[-1] == 0.1  # endpoints exact


def test_rescale_l1_and_l2():
    assert [e.score for e in gridded_rank("q", "r", ["a"], 1).entries] == [1.0]
    assert [e.score for e in gridded_rank("q", "r", ["a", "b"], 2).entries] == [1.0, 0.1]


def test_rescale_short_rank_never_reaches_floor():
    out = gridded_rank("q", "r", ["a", "b", "c"], 5)
    scores = [e.score for e in out.entries]
    assert scores[0] == 1.0
    assert all(s > 0.1 for s in scores)
    assert scores == sorted(scores, reverse=True)


def test_rescale_empty_rank():
    empty = ScoredRank("q", "r", (), 3)
    with pytest.raises(EmptyRank, match="cannot rescale empty rank for query 'q'"):
        normalize_rank(empty, CollectionRankIndex({}), 3)


def test_normalize_rank_set_rejects_empty_set():
    with pytest.raises(InvalidRankSet):
        normalize_rank_set(RankSet("q", ()), random_rank_index(random.Random(0)), 5)


def test_normalize_rank_set_deterministic():
    rng = random.Random(3)
    index = random_rank_index(rng, n_items=15, n_rankers=2, depth=5)
    depth = 5
    rs = RankSet("d000", (index.get("r1", "d000"), index.get("r2", "d000")))
    assert normalize_rank_set(rs, index, depth) == normalize_rank_set(rs, index, depth)


@st.composite
def partial_collections(draw):
    """Ranks of a few items under two rankers, each ranker ranking some of them, with ids outside too."""
    items = "abcdef"
    rank_depth = draw(st.integers(1, 5))
    layout = {}
    for ranker in ("r1", "r2"):
        queries = draw(st.lists(st.sampled_from(items), unique=True, min_size=1))
        layout[ranker] = {
            q: [q] + draw(st.lists(st.sampled_from(items + "xy"), unique=True, max_size=rank_depth - 1).filter(
                lambda listed, q=q: q not in listed))
            for q in queries
        }
    return index_from(layout, rank_depth), draw(st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(drawn=partial_collections())
@example(drawn=(index_from({"r1": {"a": ["a", "b", "c"], "b": ["b", "a"], "c": ["c"]}, "r2": {"a": ["a"]}}, 3), 2))
def test_normalize_collection_orders_by_delta(drawn):
    index, depth = drawn
    normalized = normalize_collection(index, index.rankers, depth)
    for ranker in index.rankers:
        for query in index.queries(ranker):
            kept = index.get(ranker, query).items()[:depth]
            # sorted is stable, so tied deltas keep the rank's order
            order = sorted(kept, key=lambda item: delta(index.get(ranker, query), item, index, depth))
            assert normalized.get(ranker, query).items() == tuple(order)


@settings(max_examples=200, deadline=None)
@given(drawn=partial_collections(), data=st.data())
def test_normalizing_a_rank_reads_it_as_if_stored_under_its_query(drawn, data):
    """Normalizing against an index equals normalizing against it with the rank stored under its query."""
    index, depth = drawn
    # a query the ranker ranks, one it does not, or one no ranker does ("q")
    query = data.draw(st.sampled_from("abcdefq"), label="query")
    items = data.draw(st.lists(st.sampled_from("abcdefqxy"), unique=True, min_size=1, max_size=5), label="items")
    rank = mkrank(query, data.draw(st.sampled_from(index.rankers), label="ranker"), items)
    assert normalize_rank(rank, index, depth) == normalize_rank(rank, stored_under_its_query(index, rank), depth)


def test_gridded_entries_are_scored_entries():
    rank = gridded_rank("q", "r", ["a", "b", "c"], 4)
    expected = tuple(ScoredEntry(item, grid_score(pos, 4)) for pos, item in enumerate("abc", start=1))
    assert rank.entries == expected
    assert all(type(entry) is ScoredEntry for entry in rank.entries)
    assert [entry.item for entry in rank] == ["a", "b", "c"] and rank.entries[1].score == grid_score(2, 4)
