import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusegraph.errors import EmptyRank, InvalidRankSet, MissingRank
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
    assert delta("i", "j", index, "r", depth) == 8
    assert delta("j", "i", index, "r", depth) == 8  # symmetric


def test_delta_symmetric_top():
    index = index_from({"r": {"i": ["j", "x"], "j": ["i", "y"]}}, depth=10)
    assert delta("i", "j", index, "r", 10) == 3


def test_delta_sentinel_for_absent():
    # j absent from i's rank (L=10, sentinel 11), i at position 2 of j's rank
    index = index_from({"r": {"i": ["x", "y"], "j": ["x", "i"]}}, depth=10)
    depth = 10
    assert delta("i", "j", index, "r", depth) == 11 + 2 + 11


def test_delta_missing_rank_for_query():
    index = index_from({"r": {"j": ["i"]}}, depth=10)
    with pytest.raises(MissingRank):
        delta("i", "j", index, "r", 10)


def test_delta_range():
    rng = random.Random(7)
    index = random_rank_index(rng, n_items=12, n_rankers=2, depth=4)
    depth = 4
    items = index.collection_items()
    for _ in range(200):
        i, j = rng.choice(items), rng.choice(items)
        value = delta(i, j, index, "r1", depth)
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


def test_reposition_fixed_point():
    index = index_from(
        {"r": {"q": ["A", "B"], "A": ["q", "A"], "B": ["x", "B"]}}, depth=2
    )
    depth = 2
    once = normalize_rank(index.get("r", "q"), index, depth)
    twice = normalize_rank(once, index, depth)
    assert once.items() == twice.items()


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


def test_normalize_rank_set_deterministic_and_idempotent_order():
    rng = random.Random(3)
    index = random_rank_index(rng, n_items=15, n_rankers=2, depth=5)
    depth = 5
    rs = RankSet("d000", (index.get("r1", "d000"), index.get("r2", "d000")))
    once = normalize_rank_set(rs, index, depth)
    again = normalize_rank_set(rs, index, depth)
    assert once == again
    renormalized = normalize_rank_set(once, index, depth)
    for a, b in zip(once, renormalized):
        assert a.items() == b.items()


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
            order = sorted(kept, key=lambda item: delta(query, item, index, ranker, depth))
            assert normalized.get(ranker, query).items() == tuple(order)


def test_gridded_entries_are_scored_entries():
    rank = gridded_rank("q", "r", ["a", "b", "c"], 4)
    expected = tuple(ScoredEntry(item, grid_score(pos, 4)) for pos, item in enumerate("abc", start=1))
    assert rank.entries == expected
    assert all(type(entry) is ScoredEntry for entry in rank.entries)
    assert [entry.item for entry in rank] == ["a", "b", "c"] and rank.entries[1].score == grid_score(2, 4)
