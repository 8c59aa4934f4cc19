import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusegraph.errors import InvalidRankSet, MissingRank
from fusegraph.model import (
    CollectionRankIndex,
    RankSet,
    ScoredEntry,
    ScoredRank,
    assemble_rank_set,
)

from helpers import mkrank


def test_position_of_basic():
    rank = mkrank("q", "r1", ["A", "B", "C"])
    assert rank.positions.get("B") == 2
    assert rank.positions.get("A") == 1
    assert rank.positions.get("Z") is None


@given(st.permutations([f"d{i}" for i in range(8)]))
def test_position_of_consistency(items):
    rank = mkrank("q", "r1", list(items))
    for item in items:
        pos = rank.positions.get(item)
        assert pos is not None
        assert rank.entries[pos - 1].item == item
    assert rank.positions.get("absent") is None


def test_scored_rank_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        mkrank("q", "r1", ["A", "A"])


def test_scored_rank_accepts_negative_and_rejects_nonfinite_scores():
    assert ScoredRank("q", "r1", (ScoredEntry("A", -1.0),), 1).entries[0].score == -1.0
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="must be finite"):
            ScoredRank("q", "r1", (ScoredEntry("A", bad),), 1)


@pytest.mark.parametrize(
    "query, item, depth, message",
    [("", "A", 1, "query id must be non-empty"), ("q", "A", 0, "depth must be >= 1, got 0"),
     ("q", "", 1, "item id must be non-empty")],
    ids=["empty_query", "depth_zero", "empty_item"],
)
def test_scored_rank_rejects_empty_ids_and_depth_below_one(query, item, depth, message):
    with pytest.raises(ValueError, match=message):
        ScoredRank(query, "r1", ((item, 1.0),), depth)


def test_scored_rank_rejects_overlong():
    with pytest.raises(ValueError):
        mkrank("q", "r1", ["A", "B", "C"], depth=2)


def test_rank_set_validation():
    r1 = mkrank("q", "r1", ["A"])
    r2 = mkrank("q", "r1", ["B"])
    with pytest.raises(InvalidRankSet, match="duplicate ranker"):
        RankSet("q", (r1, r2))
    other = mkrank("p", "r2", ["A"])
    with pytest.raises(InvalidRankSet, match="rank set"):
        RankSet("q", (r1, other))


def _toy_index():
    return CollectionRankIndex(
        {
            "r1": {"q": mkrank("q", "r1", ["A", "B"])},
            "r2": {"q": mkrank("q", "r2", ["B", "C"])},
        }
    )


def test_assemble_rank_set_preserves_order():
    index = _toy_index()
    rs = assemble_rank_set("q", index, ["r2", "r1"])
    assert rs.ranker_names == ("r2", "r1")
    assert len(rs) == 2


def test_assemble_rank_set_empty_rankers():
    rs = assemble_rank_set("q", _toy_index(), [])
    assert len(rs) == 0


def test_assemble_rank_set_missing():
    with pytest.raises(MissingRank) as excinfo:
        assemble_rank_set("q", _toy_index(), ["r1", "x"])
    assert excinfo.value.ranker == "x"
    assert excinfo.value.query == "q"


def test_index_rejects_inconsistent_storage():
    rank = mkrank("q", "r1", ["A"])
    with pytest.raises(ValueError):
        CollectionRankIndex({"r1": {"other": rank}})
    with pytest.raises(ValueError):
        CollectionRankIndex({"r2": {"q": rank}})


def test_collection_items_and_size():
    index = CollectionRankIndex(
        {
            "r1": {"b": mkrank("b", "r1", ["A"]), "a": mkrank("a", "r1", ["A"])},
            "r2": {"c": mkrank("c", "r2", ["A"])},
        }
    )
    assert index.collection_items() == ("a", "b", "c")


def test_equality_compares_the_declared_fields_and_no_cache():
    rank, same = mkrank("q", "r1", ["A", "B"]), mkrank("q", "r1", ["A", "B"])
    assert rank.positions["B"] == 2  # caches the positions on rank alone
    assert rank == same and same == rank
    assert rank != mkrank("q", "r1", ["B", "A"]) and rank != rank.entries
    fused = ScoredRank("q", "fusegraph", [("A", 0.9), ("B", 0.8)], 2)
    assert fused == ScoredRank("q", "fusegraph", [("A", 0.9), ("B", 0.8)], 2)
    differing = (
        ScoredRank("p", "fusegraph", fused.entries, 2),
        ScoredRank("q", "borda", fused.entries, 2),
        ScoredRank("q", "fusegraph", fused.entries[:1], 2),
        ScoredRank("q", "fusegraph", fused.entries, 3),
    )
    assert all(fused != other for other in differing)
    rank_set = RankSet("q", (rank,))
    assert rank_set == RankSet("q", (same,))
    assert rank_set != RankSet("q", (mkrank("q", "r2", ["A", "B"]),)) and rank_set != RankSet("q", ())
    assert RankSet("q", ()) != RankSet("p", ())
