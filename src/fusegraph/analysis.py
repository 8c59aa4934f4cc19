"""Ranker correlations, ranker selection, winning numbers and the paired t-test,
with the report files the correlate, select, winners and ttest commands read and write."""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from .errors import LengthMismatch, NotEnoughRankers, ParseError, QuerySetMismatch
from .io import _fields, _not_utf8, _number
from .model import ItemId, ScoredRank

if TYPE_CHECKING:  # an annotation only: analysis loads no evaluation
    from .evaluation import EvalReport


def jaccard_corr(a: ScoredRank, b: ScoredRank) -> float:
    """Overlap of the two ranks' item sets: |intersection| / |union|."""
    set_a = set(a.items())
    set_b = set(b.items())
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


def _common_positions(a: ScoredRank, b: ScoredRank) -> tuple[list[int], list[int]]:
    """Positions (1-indexed, re-ranked) of the shared items in each rank."""
    items_a, items_b = a.items(), b.items()
    common = set(items_a) & set(items_b)
    sub_a = [item for item in items_a if item in common]
    sub_b = [item for item in items_b if item in common]
    pos_b = {item: p for p, item in enumerate(sub_b, start=1)}
    return list(range(1, len(sub_a) + 1)), [pos_b[item] for item in sub_a]


def kendall_corr(a: ScoredRank, b: ScoredRank) -> float:
    """1 minus the fraction of discordant pairs, over the shared items.

    Ranks over different item sets are restricted to their intersection;
    an empty intersection yields 0, a single shared item 1.
    """
    _, positions_b = _common_positions(a, b)
    n = len(positions_b)
    if n == 0:
        return 0.0
    if n == 1:
        return 1.0
    discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            if positions_b[i] > positions_b[j]:
                discordant += 1
    return 1.0 - discordant / (n * (n - 1) / 2)


def spearman_corr(a: ScoredRank, b: ScoredRank) -> float:
    """1 minus the total position disparity over n(n+1), on the shared items.

    As with kendall_corr, differing item sets are restricted to their
    intersection (re-ranked 1..n); empty intersection yields 0.
    """
    positions_a, positions_b = _common_positions(a, b)
    n = len(positions_a)
    if n == 0:
        return 0.0
    disparity = sum(abs(pa - pb) for pa, pb in zip(positions_a, positions_b))
    return 1.0 - disparity / (n * (n + 1))


CORRELATIONS: dict[str, Callable[[ScoredRank, ScoredRank], float]] = {
    "jaccard": jaccard_corr,
    "kendall": kendall_corr,
    "spearman": spearman_corr,
}


def ranker_correlation(
    runs_a: Mapping[ItemId, ScoredRank], runs_b: Mapping[ItemId, ScoredRank], measure: str = "jaccard"
) -> float:
    """Mean per-query correlation between two rankers' runs, by the CORRELATIONS ``measure``.

    Both runs must cover exactly the same query set.
    """
    correlation = CORRELATIONS.get(measure.lower())
    if correlation is None:
        raise ValueError(f"unknown correlation measure {measure!r}")
    if set(runs_a) != set(runs_b):
        raise QuerySetMismatch(
            f"query sets differ: {len(runs_a)} vs {len(runs_b)} queries, "
            f"{len(set(runs_a) ^ set(runs_b))} not shared"
        )
    if not runs_a:
        raise QuerySetMismatch("no queries to correlate")
    return math.fsum(correlation(runs_a[q], runs_b[q]) for q in sorted(runs_a)) / len(runs_a)


def selection_measure(ef_x: float, ef_y: float, cor: float) -> float:
    """Balance of joint effectiveness against correlation for a ranker pair:
    (1 + ef_x * ef_y) / (1 + cor). Symmetric in the pair."""
    return (1.0 + ef_x * ef_y) / (1.0 + cor)


SELECTION_STRATEGIES = ("all", "top-two", "best-pair", "top-three")


def _pair_correlation(corr: Mapping[str, Mapping[str, float]], x: str, y: str) -> float:
    value = corr.get(x, {}).get(y)
    if value is None:  # a caller's matrix may hold the pair in the other name's row only
        value = corr.get(y, {}).get(x)
    if value is None:
        raise ValueError(f"correlation matrix missing pair ({x!r}, {y!r})")
    if not 0.0 <= value <= 1.0:  # false for NaN too
        raise ValueError(f"matrix value {value!r} for ({x!r}, {y!r}) is not in [0, 1]")
    return value


def select_rankers(
    effectiveness: Mapping[str, float],
    correlations: Mapping[str, Mapping[str, float]] | None,
    strategy: str,
) -> tuple[str, ...]:
    """Pick a ranker subset: all of them, the top two or three by
    effectiveness, or the pair maximizing the selection measure.

    Ordering within the result and all tie-breaks are deterministic
    (effectiveness descending, then ranker name). Effectiveness must be
    finite and a correlation in [0, 1], else ValueError.
    """
    strategy = strategy.lower()
    if strategy not in SELECTION_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {SELECTION_STRATEGIES}")
    for ranker, value in effectiveness.items():
        if not math.isfinite(value):
            raise ValueError(f"effectiveness of {ranker!r} must be finite, got {value!r}")
    by_effectiveness = sorted(effectiveness, key=lambda r: (-effectiveness[r], r))
    if strategy == "all":
        return tuple(by_effectiveness)
    if strategy in ("top-two", "top-three"):
        k = 2 if strategy == "top-two" else 3
        if len(by_effectiveness) < k:
            raise NotEnoughRankers(f"{strategy} selection needs at least {k} rankers")
        return tuple(by_effectiveness[:k])
    if len(by_effectiveness) < 2:
        raise NotEnoughRankers("best-pair selection needs at least 2 rankers")
    if correlations is None:
        raise ValueError("best-pair selection needs a correlation matrix")
    best_pair: tuple[str, str] | None = None
    best_value = -math.inf
    names = sorted(effectiveness)
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            value = selection_measure(effectiveness[x], effectiveness[y], _pair_correlation(correlations, x, y))
            if value > best_value:
                best_pair, best_value = (x, y), value
    assert best_pair is not None
    return best_pair


def winning_numbers(table: Mapping[tuple[str, str], Mapping[str, float]]) -> dict[str, int]:
    """Count, per method, the (dataset, configuration, rival) cells it
    strictly beats. Every cell must score the same method set."""
    methods: set[str] | None = None
    for cell, values in table.items():
        if methods is None:
            methods = set(values)
        elif set(values) != methods:
            raise ValueError(f"cell {cell!r} does not cover the declared method set")
    if not methods:
        raise ValueError("effectiveness table is empty")
    wins = {method: 0 for method in sorted(methods)}
    for values in table.values():
        for method in methods:
            for rival in methods:
                if method != rival and values[method] > values[rival]:
                    wins[method] += 1
    return wins


VERDICT_A_BETTER = "ABetter"
VERDICT_B_BETTER = "BBetter"
VERDICT_TIE = "Tie"


class TTestResult(NamedTuple):
    verdict: str
    t_statistic: float
    p_value: float
    mean_difference: float
    n: int


def paired_t_test(
    per_query_a: Sequence[float],
    per_query_b: Sequence[float],
    alpha: float = 0.01,
) -> TTestResult:
    """Two-sided paired t-test on per-query metric values.

    Returns a Tie unless the difference is significant at ``alpha``, in which
    case the verdict follows the sign of the mean difference. When every
    difference is identical (zero variance) the t statistic is undefined, so
    the verdict falls back to exact comparison: Tie at zero, otherwise the
    strict direction, with t infinite and that difference as the mean. The
    p-value is ``_t_tail``'s two-sided Student-t tail, within a relative
    1e-9 of scipy's up to 10⁴ degrees of freedom. ``alpha`` must lie
    strictly between 0 and 1, and every value must be finite.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if len(per_query_a) != len(per_query_b):
        raise LengthMismatch(f"paired lists differ in length: {len(per_query_a)} vs {len(per_query_b)}")
    n = len(per_query_a)
    if n < 2:
        raise LengthMismatch(f"need at least 2 paired values, got {n}")
    if not all(map(math.isfinite, [*per_query_a, *per_query_b])):
        raise ValueError("per-query values must be finite")
    diffs = [a - b for a, b in zip(per_query_a, per_query_b)]
    mean = diffs[0] if diffs.count(diffs[0]) == n else math.fsum(diffs) / n  # fsum(n equal terms) / n may round
    variance = math.fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    if variance == 0.0:
        if mean == 0.0:
            return TTestResult(VERDICT_TIE, 0.0, 1.0, 0.0, n)
        verdict = VERDICT_A_BETTER if mean > 0 else VERDICT_B_BETTER
        return TTestResult(verdict, math.inf if mean > 0 else -math.inf, 0.0, mean, n)
    t_stat = mean / math.sqrt(variance / n)
    p_value = _t_tail(t_stat, n - 1)
    if p_value >= alpha:
        return TTestResult(VERDICT_TIE, t_stat, p_value, mean, n)
    verdict = VERDICT_A_BETTER if mean > 0 else VERDICT_B_BETTER
    return TTestResult(verdict, t_stat, p_value, mean, n)


def _t_tail(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom: the regularized
    incomplete beta I_x(df/2, 1/2) at x = df/(df + t²), from its continued fraction
    (Press et al., Numerical Recipes, §6.4). Where that converges slowly, it is
    1 - I_y(1/2, df/2) with y = 1 - x computed as t²/(df + t²), which does not cancel.
    """
    a, t2 = df / 2, t * t
    x, y = df / (df + t2), t2 / (df + t2)
    log_front = math.lgamma(a + 0.5) - math.lgamma(a) - math.lgamma(0.5) - a * math.log1p(t2 / df)
    front = math.exp(log_front) * math.sqrt(y)
    if x < (a + 1) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, y)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by Lentz's method, two terms a step,
    until a step changes it by less than 1e-15; for x < (a + 1)/(a + b + 2) it
    converges in O(sqrt(a)) steps, and its denominators stay positive."""
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    fraction, m, step = d, 0, 0.0
    while abs(step - 1.0) >= 1e-15:
        m += 1
        for term in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + term * d)
            c = 1.0 + term / c
            step = d * c
            fraction *= step
    return fraction


def _keyed_values(path: str | Path, count: int, empty: str) -> dict[tuple[str, ...], float]:
    """Leading fields -> value for each line whose last of ``count`` fields is a finite float.

    Raises ParseError at a line whose leading fields repeat an earlier line's.
    """
    path = Path(path)
    values: dict[tuple[str, ...], float] = {}
    for line_no, fields in _fields(path, count):
        value, key = _number(float, fields[-1], path, line_no, "value"), tuple(fields[:-1])
        if not math.isfinite(value):
            raise ParseError(str(path), line_no, f"value must be finite, got {fields[-1]}")
        if key in values:
            raise ParseError(str(path), line_no, f"duplicate entry for {' '.join(key)!r}")
        values[key] = value
    if not values:
        raise ParseError(str(path), 0, empty)
    return values


def write_per_query_metrics(path: str | Path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(report.per_query):
            fh.write(f"{qid}\t{report.per_query[qid]!r}\n")


def parse_per_query_metrics(path: str | Path) -> dict[ItemId, float]:
    """Parse ``qid value`` lines as written by the eval command."""
    rows = _keyed_values(path, 2, "per-query metric file is empty")
    return {qid: value for (qid,), value in rows.items()}


def parse_effectiveness_table(path: str | Path) -> dict[tuple[str, str], dict[str, float]]:
    """Parse ``dataset config method value`` lines into the winners table."""
    table: dict[tuple[str, str], dict[str, float]] = {}
    for (dataset, config, method), value in _keyed_values(path, 4, "effectiveness table is empty").items():
        table.setdefault((dataset, config), {})[method] = value
    return table


def parse_ranker_effectiveness(path: str | Path) -> dict[str, float]:
    """Parse ``ranker value`` lines (per-ranker effectiveness for selection)."""
    rows = _keyed_values(path, 2, "effectiveness file is empty")
    return {ranker: value for (ranker,), value in rows.items()}


def format_correlation_matrix(names: list[str], matrix: Mapping[str, Mapping[str, float]]) -> str:
    """The TSV matrix the correlate command prints or writes: a header line, then one line per ranker."""
    rows = [[name, *(f"{matrix[name][col]:.6f}" for col in names)] for name in names]
    return "".join("\t".join(fields) + "\n" for fields in [["ranker", *names], *rows])


def write_correlation_matrix(path: str | Path, names: list[str], matrix: Mapping[str, Mapping[str, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_correlation_matrix(names, matrix))


def parse_correlation_matrix(path: str | Path) -> dict[str, dict[str, float]]:
    """Parse the TSV matrix the correlate command writes: a row per column, values in [0, 1]; blank lines skipped."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(line_no, line.rstrip("\n")) for line_no, line in enumerate(fh, start=1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    if not lines:
        raise ParseError(str(path), 0, "correlation matrix is empty")
    header_no, header = lines[0][0], lines[0][1].split("\t")
    if len(header) < 2:
        raise ParseError(str(path), header_no, "matrix header needs at least one ranker column")
    names = header[1:]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParseError(str(path), header_no, f"duplicate matrix column {name!r}")
    matrix: dict[str, dict[str, float]] = {}
    for line_no, line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != len(names) + 1:
            raise ParseError(str(path), line_no, f"expected {len(names) + 1} fields, got {len(fields)}")
        row = fields[0]
        if row in matrix:
            raise ParseError(str(path), line_no, f"duplicate matrix row {row!r}")
        try:
            matrix[row] = {col: float(v) for col, v in zip(names, fields[1:])}
        except ValueError:
            raise ParseError(str(path), line_no, "bad matrix value") from None
        for col, value in matrix[row].items():
            if not 0.0 <= value <= 1.0:  # false for NaN too
                raise ParseError(str(path), line_no, f"matrix value {value!r} for {col!r} is not in [0, 1]")
        if row not in names:
            raise ParseError(str(path), line_no, f"matrix row {row!r} is not one of its columns")
    for name in names:
        if name not in matrix:
            raise ParseError(str(path), header_no, f"matrix row {name!r} is missing")
    return matrix
