import itertools
import random
import statistics
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusegraph import baselines
from fusegraph.errors import EmptyRank, InvalidRankSet, TooManyItems
from fusegraph.model import RankSet, ScoredRank

from helpers import mkrank, mkrankset, reference_condorcet, reference_mra


def scores_of(fused):
    return dict(fused.entries)


ALL_METHODS = sorted(baselines.METHODS)


def test_borda_hand_example():
    rs = mkrankset("q", ["A", "B", "C"], ["B", "A", "C"])
    fused = baselines.borda(rs)
    assert fused.items() == ("A", "B", "C")
    assert scores_of(fused) == {"A": 5.0, "B": 5.0, "C": 2.0}


def test_borda_single_rank_identity():
    rs = mkrankset("q", ["C", "A", "B"])
    assert baselines.borda(rs).items() == ("C", "A", "B")


def test_borda_awards_no_points_below_the_cut():
    # an item below the cut scores as an absent one: no points from that rank, never negative ones
    lists = (["a", "b", "c", "d"], ["d", "c", "b", "a"])
    rs = mkrankset("q", *lists)
    assert baselines.borda(rs, depth=1).entries == (("a", 1.0),)
    for depth in range(1, 5):
        cut = mkrankset("q", *(items[:depth] for items in lists))
        assert baselines.borda(rs, depth=depth).entries == baselines.borda(cut, depth=depth).entries


def test_borda_excludes_unlisted_items():
    rs = mkrankset("q", ["A"], ["A"])
    assert "Z" not in baselines.borda(rs).items()


def test_rrf_hand_example():
    rs = mkrankset("q", ["A", "B"], ["B", "A"])
    fused = baselines.rrf(rs, k=60)
    expected = 1 / 61 + 1 / 62
    assert fused.items() == ("A", "B")  # tie broken by id
    assert scores_of(fused)["A"] == pytest.approx(expected, abs=1e-15)
    assert scores_of(fused)["B"] == pytest.approx(expected, abs=1e-15)


def test_rrf_single_rank_order_and_bound():
    rs = mkrankset("q", ["B", "C", "A"])
    fused = baselines.rrf(rs, k=60)
    assert fused.items() == ("B", "C", "A")
    top = mkrankset("q", ["A", "B"], ["A", "C"], ["A", "D"])
    assert scores_of(baselines.rrf(top, k=60))["A"] == pytest.approx(3 / 61, abs=1e-15)


def test_comb_variants_hand_example():
    # A is the max-scored item of rank 1 and the min-scored item of rank 2,
    # so its min-max normalized scores are {1.0, 0.0}
    rank1 = mkrank("q", "r1", ["A", "B"], scores=[5.0, 1.0])
    rank2 = mkrank("q", "r2", ["B", "A"], scores=[9.0, 3.0])
    rs = RankSet("q", (rank1, rank2))
    expected = {"SUM": 1.0, "MAX": 1.0, "MIN": 0.0, "MED": 0.5, "ANZ": 0.5, "MNZ": 2.0}
    for variant, value in expected.items():
        assert scores_of(baselines.comb(rs, variant))["A"] == pytest.approx(value, abs=1e-12)


def test_comb_single_rank_collapse():
    rs = mkrankset("q", ["A", "B", "C"])
    reference = baselines.comb(rs, "SUM")
    for variant in ("MAX", "MIN", "MED", "ANZ", "MNZ"):
        assert baselines.comb(rs, variant).entries == reference.entries


@st.composite
def scored_rank_sets(draw):
    """1 to 7 ranks over up to 8 items, with scores that often tie."""
    universe = [f"d{i}" for i in range(draw(st.integers(1, 8)))]
    ranks = []
    for r in range(draw(st.integers(1, 7))):
        items = draw(st.permutations(universe))[: draw(st.integers(1, len(universe)))]
        score = st.floats(-100, 100) | st.sampled_from([0.0, 0.5, 1.0, -1.5e308, 1.5e308])
        scores = sorted(draw(st.lists(score, min_size=len(items), max_size=len(items))), reverse=True)
        ranks.append(mkrank("q", f"r{r}", items, scores, depth=len(universe)))
    return RankSet("q", tuple(ranks))


@settings(max_examples=200, deadline=None)
@given(
    rs=scored_rank_sets(),
    depth=st.none() | st.integers(1, 9),
    method=st.sampled_from([method for method in ALL_METHODS if method != "kemeny"]),
)
@example(rs=mkrankset("q", ["a", "b", "c", "d"], ["d", "c", "b", "a"]), depth=1, method="borda")
@example(  # scores of both signs whose span overflows a float
    rs=RankSet("q", (mkrank("q", "r", ["a", "b", "c"], [1.5e308, 1e308, -1.5e308]),)), depth=None, method="combsum"
)
def test_fused_ranks_pass_the_public_constructor(rs, depth, method):
    """Each method builds its rank without ScoredRank's checks, also at a cut below the ranks' length."""
    fused = baselines.aggregate(method, rs, depth=depth)
    assert fused == ScoredRank(fused.query, fused.ranker, fused.entries, fused.depth)
    assert all(type(score) is float for _, score in fused)


@given(rs=scored_rank_sets())
def test_comb_med_is_the_statistics_median(rs):
    values = defaultdict(list)
    for rank in rs:
        for item, value in baselines._minmax(rank).items():
            values[item].append(value)
    expected = {item: statistics.median(item_values).hex() for item, item_values in values.items()}
    assert {item: score.hex() for item, score in baselines.comb(rs, "MED").entries} == expected


def test_comb_absent_rank_contributes_nothing():
    rank1 = mkrank("q", "r1", ["A", "B"], scores=[4.0, 2.0])
    rank2 = mkrank("q", "r2", ["B", "C"], scores=[4.0, 2.0])
    rs = RankSet("q", (rank1, rank2))
    # A appears once: ANZ divides by occurrence count 1, not by m
    assert scores_of(baselines.comb(rs, "ANZ"))["A"] == 1.0
    assert scores_of(baselines.comb(rs, "MNZ"))["A"] == 1.0


def test_comb_missing_scores():
    from fusegraph.model import ScoredRank

    rs = RankSet("q", (ScoredRank("q", "r1", (), 3),))
    with pytest.raises(EmptyRank):
        baselines.comb(rs, "SUM")


def test_mra_hand_example():
    rs = mkrankset("q", ["A", "B", "C"], ["B", "A", "C"], ["A", "C", "B"])
    assert baselines.mra(rs).items() == ("A", "B", "C")


def test_mra_identical_ranks():
    rs = mkrankset("q", ["B", "C", "A"], ["B", "C", "A"], ["B", "C", "A"])
    assert baselines.mra(rs).items() == ("B", "C", "A")


def test_mra_single_rank_identity():
    rs = mkrankset("q", ["C", "B", "A"])
    assert baselines.mra(rs).items() == ("C", "B", "A")


def test_condorcet_unanimous():
    rs = mkrankset("q", ["A", "B", "C"], ["A", "B", "C"], ["A", "B", "C"])
    fused = baselines.condorcet(rs)
    assert fused.items() == ("A", "B", "C")
    assert scores_of(fused) == {"A": 2.0, "B": 1.0, "C": 0.0}


def test_condorcet_cycle_falls_back_to_id_order():
    rs = mkrankset("q", ["A", "B", "C"], ["B", "C", "A"], ["C", "A", "B"])
    fused = baselines.condorcet(rs)
    assert scores_of(fused) == {"A": 1.0, "B": 1.0, "C": 1.0}
    assert fused.items() == ("A", "B", "C")


def test_condorcet_single_rank_identity():
    rs = mkrankset("q", ["B", "A", "C"])
    assert baselines.condorcet(rs).items() == ("B", "A", "C")


@st.composite
def condorcet_rank_sets(draw):
    """1 to 9 partial ranks over up to 12 items, one of them maybe listed by one rank only."""
    universe = [f"d{i:02d}" for i in range(draw(st.integers(1, 12)))]
    lists = []
    for _ in range(draw(st.integers(1, 9))):
        order = draw(st.permutations(universe))
        lists.append(order[: draw(st.integers(0, len(order)))])
    lone = draw(st.integers(0, len(lists)))
    if lone < len(lists):
        lists[lone].insert(draw(st.integers(0, len(lists[lone]))), "lone")
    return mkrankset("q", *lists, depth=len(universe) + 1)


# The lane width is len(rs).bit_length() + 1: 3 bits at m = 3, 4 at m = 4, 5 at m = 8.
@settings(max_examples=300, deadline=None)
@given(rs=condorcet_rank_sets(), depth=st.none() | st.integers(1, 13))
@example(rs=mkrankset("q", ["A", "B", "C"], ["B", "C", "A"], ["C", "A", "B"]), depth=None)
@example(rs=mkrankset("q", ["A", "B"], ["B"], ["C", "A", "B"], ["B", "A"], depth=3), depth=2)
@example(
    rs=mkrankset("q", *[["A", "B", "C"]] * 4, *[["A", "C", "B"]] * 3, ["A", "C", "B", "D"]),
    depth=None,
)
@example(rs=mkrankset("q", ["A"]), depth=None)
def test_condorcet_lanes_match_pair_loop(rs, depth):
    fused = baselines.condorcet(rs, depth)
    expected = reference_condorcet(rs, depth)
    assert fused.entries == expected.entries
    assert fused == expected


@settings(max_examples=300, deadline=None)
@given(rs=condorcet_rank_sets(), depth=st.sampled_from([None, 1, 2, 3, 5, 9]))
@example(rs=mkrankset("q", ["A", "B", "C"], ["B", "A", "C"], ["C", "B", "A"]), depth=None)
@example(rs=mkrankset("q", ["A", "B"], ["B"], ["C", "A", "B"], ["B", "A"], depth=3), depth=2)
def test_mra_matches_the_first_reach_specification(rs, depth):
    """An item placed at depth d first reached a majority at d, so the earliest-depth key orders nothing."""
    assert baselines.mra(rs, depth) == reference_mra(rs, depth)


def test_rlsim_full_score_top():
    rank1 = mkrank("q", "r1", ["A", "B"], scores=[8.0, 2.0])
    rank2 = mkrank("q", "r2", ["A", "C"], scores=[6.0, 3.0])
    fused = baselines.rlsim(RankSet("q", (rank1, rank2)))
    assert fused.items()[0] == "A"
    assert scores_of(fused)["A"] == 1.0


def test_rlsim_product_equality_tie():
    rank1 = mkrank("q", "r1", ["Q", "P", "Z"], scores=[10.0, 5.0, 0.0])
    rank2 = mkrank("q", "r2", ["P", "Q", "Z"], scores=[10.0, 5.0, 0.0])
    fused = baselines.rlsim(RankSet("q", (rank1, rank2)))
    values = scores_of(fused)
    assert values["P"] == pytest.approx(values["Q"], abs=1e-15)
    assert fused.items()[:2] == ("P", "Q")  # tie -> id order


def test_rlsim_absent_rank_multiplies_epsilon():
    rank1 = mkrank("q", "r1", ["A", "B"], scores=[4.0, 2.0])
    rank2 = mkrank("q", "r2", ["B", "C"], scores=[4.0, 2.0])
    fused = baselines.rlsim(RankSet("q", (rank1, rank2)))
    # A tops rank 1 (normalized 1.0) and is absent from rank 2
    assert scores_of(fused)["A"] == pytest.approx(0.01, abs=1e-15)


def test_kemeny_identical_ranks():
    rs = mkrankset("q", ["B", "A", "C"], ["B", "A", "C"])
    fused = baselines.kemeny_exact(rs)
    assert fused.items() == ("B", "A", "C")
    assert baselines.kendall_discordance(fused.items(), rs) == 0


def test_kemeny_two_item_tie_prefers_lexicographic():
    rs = mkrankset("q", ["A", "B"], ["B", "A"])
    assert baselines.kemeny_exact(rs).items() == ("A", "B")


def test_kemeny_cap():
    items = [f"i{k}" for k in range(9)]
    rs = mkrankset("q", items)
    with pytest.raises(TooManyItems):
        baselines.kemeny_exact(rs)


@pytest.mark.parametrize("cap", [0, baselines.KEMENY_MAX_CAP + 1])
def test_kemeny_cap_outside_its_range_is_rejected_before_any_search(cap, monkeypatch):
    def no_search(order, rs):
        raise AssertionError("a permutation was scored")

    monkeypatch.setattr(baselines, "kendall_discordance", no_search)
    rs = mkrankset("q", ["A", "B"])
    with pytest.raises(ValueError, match="kemeny cap"):
        baselines.kemeny_exact(rs, cap=cap)


def test_kemeny_accepts_the_largest_cap():
    rs = mkrankset("q", ["B", "A"])
    assert baselines.kemeny_exact(rs, cap=baselines.KEMENY_MAX_CAP).items() == ("B", "A")


def test_kemeny_beats_every_input_rank():
    rng = random.Random(13)
    universe = ["A", "B", "C", "D", "E"]
    for _ in range(20):
        lists = []
        for _ in range(3):
            items = universe[:]
            rng.shuffle(items)
            lists.append(items[: rng.randint(2, 5)])
        rs = mkrankset("q", *lists)
        fused = baselines.kemeny_exact(rs)
        best = baselines.kendall_discordance(fused.items(), rs)
        union = sorted({i for lst in lists for i in lst})
        for lst in lists:
            candidate = lst + [i for i in union if i not in lst]
            assert best <= baselines.kendall_discordance(candidate, rs)


def test_kemeny_minimal_on_all_4_item_two_rank_instances():
    items = ["A", "B", "C", "D"]
    perms = list(itertools.permutations(items))
    for p1 in perms:
        for p2 in perms[:6]:  # slice keeps the unit test quick; acceptance runs all
            rs = mkrankset("q", list(p1), list(p2))
            fused = baselines.kemeny_exact(rs)
            best = baselines.kendall_discordance(fused.items(), rs)
            brute = min(baselines.kendall_discordance(p, rs) for p in perms)
            assert best == brute


@pytest.mark.parametrize("method", ALL_METHODS)
def test_single_rank_identity_all_methods(method):
    rs = mkrankset("q", ["D", "B", "A", "C"])
    assert baselines.aggregate(method, rs).items() == ("D", "B", "A", "C")


@pytest.mark.parametrize("method", ALL_METHODS)
def test_ranker_order_invariance(method):
    rng = random.Random(7)
    lists = [["A", "C", "B"], ["B", "A", "D"], ["C", "D", "A"]]
    rs = mkrankset("q", *lists)
    reference = baselines.aggregate(method, rs)
    for perm in itertools.permutations(rs.ranks):
        shuffled = RankSet("q", perm)
        assert baselines.aggregate(method, shuffled).items() == reference.items()
    del rng


@pytest.mark.parametrize("method", ALL_METHODS)
def test_output_contract(method):
    rs = mkrankset("q", ["A", "B", "C"], ["C", "D", "A"])
    fused = baselines.aggregate(method, rs)
    assert type(fused) is ScoredRank
    assert (fused.query, fused.ranker, fused.depth) == ("q", method, 3)  # L from the input ranks
    assert fused == ScoredRank(fused.query, fused.ranker, fused.entries, fused.depth)
    scores = [score for _, score in fused]
    assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_depth_below_one_rejected(method):
    rs = mkrankset("q", ["A", "B", "C"], ["C", "D", "A"])
    for depth in (0, -1):
        with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
            baselines.aggregate(method, rs, depth=depth)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_empty_rank_set_rejected(method):
    with pytest.raises(InvalidRankSet):
        baselines.aggregate(method, RankSet("q", ()))


def test_aggregate_unknown_method():
    with pytest.raises(ValueError):
        baselines.aggregate("nope", mkrankset("q", ["A"]))
    with pytest.raises(ValueError, match="unknown Comb variant 'NOPE'"):
        baselines.comb(mkrankset("q", ["A"]), "nope")
