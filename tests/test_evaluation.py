import math
import re
import sys

import pytest

from fusegraph.analysis import (
    _t_tail,
    jaccard_corr,
    kendall_corr,
    paired_t_test,
    ranker_correlation,
    select_rankers,
    selection_measure,
    spearman_corr,
    winning_numbers,
)
from fusegraph.errors import (
    LengthMismatch,
    NotEnoughRankers,
    QuerySetMismatch,
    UnknownQuery,
)
from fusegraph.evaluation import Qrels, evaluate_runs, ndcg_at_k, ns_score

from helpers import TTEST_OVERFLOWS, mkrank


def qrels_for(relevant, query="q", universe=()):
    grades = {query: {doc: 1 for doc in relevant}}
    for doc in universe:
        grades[query].setdefault(doc, 0)
    return Qrels(grades)


def test_ndcg_perfect_rank():
    qrels = qrels_for(["a", "b", "c"])
    rank = mkrank("q", "r", ["a", "b", "c"])
    assert ndcg_at_k(rank, qrels, k=3) == pytest.approx(1.0, abs=1e-12)


def test_ndcg_hand_case():
    # [rel, non, rel] with 2 relevant total: DCG = 1 + 1/log2(4) = 1.5,
    # IDCG = 1 + 1/log2(3)
    qrels = qrels_for(["a", "c"])
    rank = mkrank("q", "r", ["a", "x", "c"])
    expected = 1.5 / (1.0 + 1.0 / math.log2(3))
    assert ndcg_at_k(rank, qrels, k=3) == pytest.approx(expected, abs=1e-12)
    assert ndcg_at_k(rank, qrels, k=3) == pytest.approx(0.91972, abs=1e-5)


def test_ndcg_no_relevant_items():
    qrels = Qrels({"q": {"x": 0}})
    rank = mkrank("q", "r", ["x", "y"])
    assert ndcg_at_k(rank, qrels, k=10) == 0.0


def test_ndcg_unknown_query():
    qrels = qrels_for(["a"], query="other")
    with pytest.raises(UnknownQuery):
        ndcg_at_k(mkrank("q", "r", ["a"]), qrels)


@pytest.mark.parametrize("qrels", [Qrels({}), Qrels.from_class_labels({})], ids=["grades", "labels"])
def test_qrels_without_judgments_know_no_query(qrels):
    with pytest.raises(UnknownQuery):
        qrels.relevance("q", "a")
    with pytest.raises(UnknownQuery):
        ndcg_at_k(mkrank("q", "r", ["a"]), qrels)


def test_ndcg_permutation_invariances():
    qrels = qrels_for(["a", "b"], universe=["x", "y", "z"])
    base = mkrank("q", "r", ["a", "x", "b", "y", "z"])
    below_k = mkrank("q", "r", ["a", "x", "b", "z", "y"])
    assert ndcg_at_k(base, qrels, k=3) == ndcg_at_k(below_k, qrels, k=3)
    equal_rel_swap = mkrank("q", "r", ["b", "x", "a", "y", "z"])
    assert ndcg_at_k(base, qrels, k=5) == ndcg_at_k(equal_rel_swap, qrels, k=5)


def test_ndcg_graded_relevance():
    qrels = Qrels({"q": {"a": 3, "b": 1}})
    rank = mkrank("q", "r", ["b", "a"])
    dcg = 1.0 + 3.0 / math.log2(3)
    idcg = 3.0 + 1.0 / math.log2(3)
    assert ndcg_at_k(rank, qrels, k=2) == pytest.approx(dcg / idcg, abs=1e-12)


def test_ns_score_counts_top_four():
    labels = {"q": "c1", "a": "c1", "b": "c1", "c": "c2", "d": "c1", "e": "c1"}
    qrels = Qrels.from_class_labels(labels)
    rank = mkrank("q", "r", ["a", "b", "c", "d", "e"])
    assert ns_score(rank, qrels) == 3.0
    perfect = mkrank("q", "r", ["q", "a", "b", "d"])
    assert ns_score(perfect, qrels) == 4.0
    short = mkrank("q", "r", ["a", "c"])
    assert ns_score(short, qrels) == 1.0


def test_jaccard_cases():
    a = mkrank("q", "r1", [f"d{i}" for i in range(10)])
    assert jaccard_corr(a, a) == 1.0
    b = mkrank("q", "r2", [f"e{i}" for i in range(10)])
    assert jaccard_corr(a, b) == 0.0
    shared = mkrank("q", "r2", [f"d{i}" for i in range(5)] + [f"e{i}" for i in range(5)])
    assert jaccard_corr(a, shared) == 1 / 3
    empty = mkrank("q", "r2", [], depth=1)
    assert jaccard_corr(empty, empty) == 1.0  # no item on either side: the ranks agree


def test_kendall_cases():
    a = mkrank("q", "r1", ["A", "B", "C"])
    assert kendall_corr(a, a) == 1.0
    reversed_rank = mkrank("q", "r2", ["C", "B", "A"])
    assert kendall_corr(a, reversed_rank) == 0.0
    swap = mkrank("q", "r2", ["A", "C", "B"])
    assert kendall_corr(a, swap) == pytest.approx(2 / 3, abs=1e-12)


def test_kendall_restricts_to_intersection():
    a = mkrank("q", "r1", ["A", "B", "X"])
    b = mkrank("q", "r2", ["B", "A", "Y"])
    assert kendall_corr(a, b) == 0.0  # one shared pair, discordant
    disjoint = mkrank("q", "r2", ["Y", "Z"])
    assert kendall_corr(a, disjoint) == 0.0
    single = mkrank("q", "r2", ["A", "Y", "Z"])
    assert kendall_corr(a, single) == 1.0


def test_spearman_cases():
    a = mkrank("q", "r1", ["A", "B", "C"])
    reversed_rank = mkrank("q", "r2", ["C", "B", "A"])
    assert spearman_corr(a, a) == 1.0
    assert spearman_corr(a, reversed_rank) == pytest.approx(2 / 3, abs=1e-12)
    single_shared = mkrank("q", "r2", ["A", "Y"])
    assert spearman_corr(a, single_shared) == 1.0
    disjoint = mkrank("q", "r2", ["Y"])
    assert spearman_corr(a, disjoint) == 0.0


def test_correlations_symmetric():
    a = mkrank("q", "r1", ["A", "B", "C", "D"])
    b = mkrank("q", "r2", ["B", "D", "A", "E"])
    assert jaccard_corr(a, b) == jaccard_corr(b, a)
    assert kendall_corr(a, b) == kendall_corr(b, a)
    assert spearman_corr(a, b) == spearman_corr(b, a)


def test_ranker_correlation_diagonal_and_mean():
    runs = {q: mkrank(q, "r1", ["A", "B"]) for q in ("q1", "q2")}
    assert ranker_correlation(runs, runs, "jaccard") == 1.0
    other = {
        "q1": mkrank("q1", "r2", ["A", "B"]),
        "q2": mkrank("q2", "r2", ["X", "Y"]),
    }
    assert ranker_correlation(runs, other, "jaccard") == 0.5


def test_ranker_correlation_mismatch():
    runs = {"q1": mkrank("q1", "r1", ["A"])}
    other = {"q2": mkrank("q2", "r2", ["A"])}
    with pytest.raises(QuerySetMismatch):
        ranker_correlation(runs, other)


def test_selection_measure_values():
    assert selection_measure(0.9, 0.8, 0.5) == pytest.approx(1.72 / 1.5, abs=1e-12)
    assert selection_measure(0.9, 0.8, 0.5) == pytest.approx(1.14667, abs=1e-5)
    assert selection_measure(0.3, 0.7, 0.2) == selection_measure(0.7, 0.3, 0.2)
    assert selection_measure(0.0, 0.0, 0.0) == 1.0


BRODATZ_EFFS = {"LAS": 0.850533, "CCOM": 0.726186, "LBP": 0.652759}
BRODATZ_CORR = {
    "CCOM": {"CCOM": 1.00, "LAS": 0.38, "LBP": 0.25},
    "LAS": {"CCOM": 0.38, "LAS": 1.00, "LBP": 0.30},
    "LBP": {"CCOM": 0.25, "LAS": 0.30, "LBP": 1.00},
}


def test_select_rankers_brodatz_fixture():
    top_two = select_rankers(BRODATZ_EFFS, None, "top-two")
    assert set(top_two) == {"LAS", "CCOM"}
    best_pair = select_rankers(BRODATZ_EFFS, BRODATZ_CORR, "best-pair")
    assert set(best_pair) == {"LAS", "LBP"}


def test_select_rankers_all_and_degenerate():
    assert select_rankers({"only": 0.5}, None, "all") == ("only",)
    two = {"a": 0.4, "b": 0.6}
    assert set(select_rankers(two, None, "top-two")) == set(select_rankers(two, None, "all"))
    assert select_rankers(BRODATZ_EFFS, None, "top-three") == ("LAS", "CCOM", "LBP")


def test_select_rankers_reads_a_pair_from_either_row():
    correlations = {"a": {"c": 1.0}, "b": {"a": 0.0, "c": 1.0}}  # a matrix file may lack a row: (a, b) is in b's
    assert select_rankers({"a": 0.5, "b": 0.6, "c": 0.9}, correlations, "best-pair") == ("a", "b")


def test_best_pair_of_measures_that_overflow_is_the_first_pair():
    """Every pair's measure is -inf here: (1 + -1e200 * 1e200) / (1 + cor)."""
    corr = {"a": {"b": 0.5}}
    assert select_rankers({"b": 1e200, "a": -1e200}, corr, "best-pair") == ("a", "b")


def test_best_pair_of_equal_measures_is_the_first_pair_in_name_order():
    effectiveness = {"d": 0.5, "c": 0.5, "b": 0.5, "a": 0.5}
    corr = {x: {y: 0.2 for y in effectiveness} for x in effectiveness}
    assert select_rankers(effectiveness, corr, "best-pair") == ("a", "b")
    corr["a"] = {"b": 0.3, "c": 0.3, "d": 0.3}  # (b, c), (b, d) and (c, d) now tie above every pair of a
    assert select_rankers(effectiveness, corr, "best-pair") == ("b", "c")


def test_select_rankers_not_enough():
    with pytest.raises(NotEnoughRankers):
        select_rankers({"a": 0.5}, None, "top-two")
    with pytest.raises(NotEnoughRankers):
        select_rankers({"a": 0.5, "b": 0.4}, None, "top-three")


def test_select_rankers_rejects_correlation_of_minus_one():
    corr = {"a": {"b": -1.0}}
    with pytest.raises(ValueError, match=r"matrix value -1.0 for \('a', 'b'\) is not in \[0, 1\]"):
        select_rankers({"a": 0.5, "b": 0.6}, corr, "best-pair")


def test_select_rankers_rejects_nan_correlation():
    corr = {"a": {"b": math.nan, "c": 0.2}, "b": {"c": 0.3}}
    with pytest.raises(ValueError, match=r"matrix value nan for \('a', 'b'\) is not in \[0, 1\]"):
        select_rankers({"a": 0.5, "b": 0.6, "c": 0.7}, corr, "best-pair")


def test_select_rankers_rejects_effectiveness_that_is_not_finite():
    with pytest.raises(ValueError, match="effectiveness of 'b' must be finite, got nan"):
        select_rankers({"a": 0.5, "b": math.nan, "c": 0.9}, None, "top-two")


def test_winning_numbers_cases():
    cells = [("d1", "c1"), ("d1", "c2"), ("d2", "c1")]
    table = {cell: {"m1": 0.9, "m2": 0.5, "m3": 0.1} for cell in cells}
    wins = winning_numbers(table)
    assert wins == {"m1": 6, "m2": 3, "m3": 0}
    assert wins["m1"] == len(cells) * (3 - 1)
    equal = {cell: {"m1": 0.5, "m2": 0.5} for cell in cells}
    assert winning_numbers(equal) == {"m1": 0, "m2": 0}
    split = {("d1", "c1"): {"m1": 0.9, "m2": 0.1}, ("d1", "c2"): {"m1": 0.1, "m2": 0.9}}
    assert winning_numbers(split) == {"m1": 1, "m2": 1}


def test_winning_numbers_antisymmetric_bound():
    table = {
        ("d1", "c1"): {"m1": 0.3, "m2": 0.3, "m3": 0.9},
        ("d2", "c1"): {"m1": 0.4, "m2": 0.2, "m3": 0.2},
    }
    wins = winning_numbers(table)
    cells, m = 2, 3
    assert sum(wins.values()) <= cells * m * (m - 1) / 2


def test_winning_numbers_rejects_incomplete():
    with pytest.raises(ValueError):
        winning_numbers({("d", "c1"): {"m1": 0.1}, ("d", "c2"): {"m2": 0.1}})


# a call on one bad input -> the error it raises and the start of its message
BAD_INPUTS = {
    "negative_grade": (lambda: Qrels({"q": {"a": -1}}), ValueError, "negative relevance grade for ('q', 'a')"),
    "ndcg_k_zero": (lambda: ndcg_at_k(mkrank("q", "r", ["a"]), qrels_for(["a"]), k=0), ValueError,
                    "k must be >= 1, got 0"),
    "ndcg_of_an_item_list": (lambda: ndcg_at_k(["a"], qrels_for(["a"])), TypeError, "ndcg_at_k needs a ScoredRank"),
    "ns_of_an_item_list": (lambda: ns_score(["a"], qrels_for(["a"])), TypeError, "ns_score needs a ScoredRank"),
    "unknown_measure": (lambda: ranker_correlation({}, {}, "pearson"), ValueError,
                        "unknown correlation measure 'pearson'"),
    "no_queries_to_correlate": (lambda: ranker_correlation({}, {}), QuerySetMismatch, "no queries to correlate"),
    "matrix_missing_pair": (lambda: select_rankers({"a": 0.5, "b": 0.6}, {"a": {"a": 1.0}}, "best-pair"),
                            ValueError, "correlation matrix missing pair ('a', 'b')"),
    "unknown_strategy": (lambda: select_rankers({"a": 0.5}, None, "worst"), ValueError, "unknown strategy 'worst'"),
    "best_pair_of_one": (lambda: select_rankers({"a": 0.5}, None, "best-pair"), NotEnoughRankers,
                         "best-pair selection needs at least 2 rankers"),
    "empty_table": (lambda: winning_numbers({}), ValueError, "effectiveness table is empty"),
    **{
        f"ttest_{name}_overflows": (lambda a=a, b=b: paired_t_test(a, b), ValueError, message)
        for name, (a, b, message) in TTEST_OVERFLOWS.items()
    },
}


@pytest.mark.parametrize("call, error, message", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_raises_its_error(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_ttest_identical_lists_tie():
    values = [0.5, 0.6, 0.7]
    assert paired_t_test(values, values).verdict == "Tie"


def test_ttest_constant_shift_degenerate_variance():
    b = [0.1 * i for i in range(30)]
    a = [x + 1.0 for x in b]
    result = paired_t_test(a, b)
    assert result.verdict == "ABetter"
    assert paired_t_test(b, a).verdict == "BBetter"


@pytest.mark.parametrize("a, b, verdict, t", [(0.1, 0.0, "ABetter", math.inf), (0.0, 0.1, "BBetter", -math.inf)])
def test_ttest_equal_nonzero_differences_take_the_zero_variance_fallback(a, b, verdict, t):
    """fsum([0.1] * 3) / 3 is 0.10000000000000002, whose residues would give t = 1.02e16."""
    result = paired_t_test([a] * 3, [b] * 3)
    assert result == (verdict, t, 0.0, a - b, 3)
    assert result.mean_difference.hex() == (a - b).hex()


def test_ttest_small_perturbation_not_significant():
    a = [0.50, 0.60, 0.70, 0.80, 0.90]
    b = [0.51, 0.59, 0.71, 0.79, 0.91]
    assert paired_t_test(a, b, alpha=0.01).verdict == "Tie"


def test_ttest_clear_difference_significant():
    a = [0.9, 0.91, 0.89, 0.92, 0.9, 0.91, 0.9, 0.89]
    b = [0.5, 0.52, 0.49, 0.51, 0.5, 0.53, 0.48, 0.5]
    result = paired_t_test(a, b, alpha=0.01)
    assert result.verdict == "ABetter"
    assert result.p_value < 0.01


def test_ttest_length_mismatch():
    with pytest.raises(LengthMismatch):
        paired_t_test([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatch):
        paired_t_test([1.0], [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ttest_rejects_values_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="per-query values must be finite"):
        paired_t_test([0.5, bad, 0.7], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="per-query values must be finite"):
        paired_t_test([0.5, 0.6, 0.7], [0.1, 0.2, bad])


def test_ttest_against_scipy():
    from scipy import stats

    a = [0.61, 0.55, 0.72, 0.68, 0.59, 0.66, 0.71, 0.58]
    b = [0.52, 0.56, 0.61, 0.63, 0.55, 0.60, 0.70, 0.51]
    ours = paired_t_test(a, b)
    t, p = stats.ttest_rel(a, b)
    assert ours.t_statistic == pytest.approx(float(t), abs=1e-10)
    assert ours.p_value == pytest.approx(float(p), abs=1e-10)


def test_t_tail_against_closed_forms():
    # nu = 1: p = (2/pi) atan(1/t); nu = 2: p = 1 - t/sqrt(2 + t^2), here without its cancellation
    for k in range(-64, 49):
        t = 10 ** (k / 8)
        root = math.sqrt(2 + t * t)
        assert _t_tail(t, 1) == pytest.approx(2 / math.pi * math.atan(1 / t), rel=1e-13, abs=0)
        assert _t_tail(t, 2) == pytest.approx(2 / (root * (root + t)), rel=1e-13, abs=0)
        assert _t_tail(-t, 2) == _t_tail(t, 2)
    assert _t_tail(0.0, 5) == 1.0


def test_t_tail_against_scipy_grid():
    from scipy import stats

    for df in [*range(1, 31), *(round(10 ** (k / 8)) for k in range(12, 33))]:
        for k in range(61):
            t = 0.05 * 1000 ** (k / 60)
            # below the smallest normal float, where scipy's tail can read zero, only the gap counts
            expected = 2.0 * float(stats.t.sf(t, df))
            assert _t_tail(t, df) == pytest.approx(expected, rel=1e-9, abs=sys.float_info.min)


def test_evaluate_runs_checks_the_metric_before_reading_any_run():
    qrels = Qrels.from_class_labels({"q1": "c", "q2": "c"})
    for runs in ({}, {"q1": mkrank("q1", "r", ["q2"])}):
        with pytest.raises(ValueError, match="unknown metric 'bogus'"):
            evaluate_runs(runs, qrels, metric="bogus")


def test_evaluate_runs_report():
    qrels = Qrels.from_class_labels({"q1": "c", "q2": "c", "x": "d"})
    runs = {
        "q1": mkrank("q1", "r", ["q1", "q2", "x"]),
        "q2": mkrank("q2", "r", ["x", "q1", "q2"]),
    }
    report = evaluate_runs(runs, qrels, metric="ndcg", k=3)
    assert report.metric == "ndcg@3"
    assert set(report.per_query) == {"q1", "q2"}
    assert report.mean == pytest.approx(
        sum(report.per_query.values()) / 2, abs=1e-15
    )
    ns_report = evaluate_runs(runs, qrels, metric="ns")
    assert ns_report.per_query["q1"] == 2.0
