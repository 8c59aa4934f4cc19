"""Classical rank-aggregation methods used as comparison points.

Order-based: BordaCount, RRF, MRA, Condorcet, exact Kemeny (brute force,
tiny instances only). Score-based: the six Comb* combiners and RLSim, which
min-max normalize each rank's scores before combining.

Each method returns the query's fused rank as a ScoredRank under the
method's METHODS name, scores descending and cut to the depth (by default
the deepest input rank's).

Where the classical descriptions leave absent items open, this module fixes
them as follows: Borda gives an absent item, or one below the cut, 0 points
from that rank; Comb* lets an absent rank contribute nothing (it also lowers
the occurrence count); Condorcet treats absence as ranked worst; RLSim
multiplies in the floor RLSIM_EPSILON. Ties are always broken by ascending item
id, so every method is deterministic and invariant to ranker order.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from functools import partial
from typing import Callable, Sequence

from .errors import EmptyRank, InvalidRankSet, TooManyItems
from .model import ItemId, RankSet, ScoredRank, unchecked_rank

RRF_DEFAULT_K = 60.0
RLSIM_EPSILON = 0.01
KEMENY_DEFAULT_CAP = 8
KEMENY_MAX_CAP = 9  # the search is factorial: 9 items take seconds per query


def _check(rs: RankSet) -> int:
    if len(rs) == 0:
        raise InvalidRankSet(f"rank set for {rs.query!r} has no ranks")
    return len(rs)


def _depth(rs: RankSet, depth: int | None) -> int:
    """The cut: ``depth``, which must be at least 1, or else the deepest rank's depth."""
    if depth is None:
        return max(rank.depth for rank in rs)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return depth


def _finalize(rs: RankSet, scores: dict[ItemId, float], depth: int | None, method: str) -> ScoredRank:
    """The fused rank of ``method``: items by descending score, ties by id, cut to the depth.

    Every method's scores are finite floats >= 0, so the rank skips ScoredRank's checks."""
    ordered = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
    length = _depth(rs, depth)
    return unchecked_rank(rs.query, method, ordered[:length], length)


def _order_to_rank(rs: RankSet, order: Sequence[ItemId], depth: int | None, method: str) -> ScoredRank:
    """The fused rank of ``method`` for a bare item order, scored 1/position so that it keeps the order."""
    return _finalize(rs, {item: 1.0 / pos for pos, item in enumerate(order, start=1)}, depth, method)


def borda(rs: RankSet, depth: int | None = None) -> ScoredRank:
    """BordaCount: an item earns L - position + 1 points per rank listing it within the top L."""
    _check(rs)
    length = _depth(rs, depth)
    scores: dict[ItemId, float] = defaultdict(float)
    for rank in rs:
        for pos, entry in enumerate(rank.entries[:length], start=1):
            scores[entry.item] += length - pos + 1
    return _finalize(rs, scores, depth, "borda")


def check_rrf_k(k: float) -> None:
    """ValueError unless ``k`` is a finite, positive RRF constant."""
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"rrf constant must be finite and positive, got {k}")


def check_kemeny_cap(cap: int) -> None:
    """ValueError unless ``cap`` lies in 1..KEMENY_MAX_CAP."""
    if not 1 <= cap <= KEMENY_MAX_CAP:
        raise ValueError(f"kemeny cap must be in 1..{KEMENY_MAX_CAP}, got {cap}")


def rrf(rs: RankSet, k: float = RRF_DEFAULT_K, depth: int | None = None) -> ScoredRank:
    """Reciprocal rank fusion: sum of 1 / (k + position) over the ranks."""
    _check(rs)
    check_rrf_k(k)
    scores: dict[ItemId, float] = defaultdict(float)
    for rank in rs:
        for pos, entry in enumerate(rank, start=1):
            scores[entry.item] += 1.0 / (k + pos)
    return _finalize(rs, scores, depth, "rrf")


def _minmax(rank: ScoredRank, floor: float = 0.0) -> dict[ItemId, float]:
    """Min-max normalize one rank's scores onto [floor, 1].

    A rank whose scores are all equal maps every item to 1.0.
    """
    if not rank.entries:
        raise EmptyRank(f"rank for {rank.query!r} under {rank.ranker!r} has no scores")
    values = [entry.score for entry in rank]
    lo, hi = min(values), max(values)
    if hi == lo:
        return {entry.item: 1.0 for entry in rank}
    scale = 0.5 if math.isinf(hi - lo) else 1.0  # halved, no span overflows to make a NaN; 1.0 changes no bit
    span = hi * scale - lo * scale
    out = {}
    for entry in rank:
        if entry.score == hi:
            out[entry.item] = 1.0
        elif entry.score == lo:
            out[entry.item] = floor
        else:
            out[entry.item] = floor + (1.0 - floor) * (entry.score * scale - lo * scale) / span
    return out


def _median(values: list[float]) -> float:
    """The middle value, or the mean of the two middle ones, as statistics.median computes it."""
    data, i = sorted(values), len(values) // 2
    return data[i] if len(data) % 2 else (data[i - 1] + data[i]) / 2


COMB_REDUCERS: dict[str, Callable[[list[float]], float]] = {
    "SUM": sum,
    "MIN": min,
    "MAX": max,
    "MED": _median,
    "ANZ": lambda vals: sum(vals) / len(vals),
    "MNZ": lambda vals: sum(vals) * len(vals),
}
COMB_VARIANTS = tuple(COMB_REDUCERS)


def comb(rs: RankSet, variant: str, depth: int | None = None) -> ScoredRank:
    """Comb* score combiners over per-rank min-max normalized scores.

    SUM/MIN/MAX/MED reduce the item's normalized scores from the ranks that
    contain it; ANZ divides the sum by that occurrence count, MNZ multiplies
    by it. A rank not containing the item contributes nothing (not a zero).
    """
    _check(rs)
    variant = variant.upper()
    reduce = COMB_REDUCERS.get(variant)
    if reduce is None:
        raise ValueError(f"unknown Comb variant {variant!r}, expected one of {COMB_VARIANTS}")
    per_item: dict[ItemId, list[float]] = defaultdict(list)
    for rank in rs:
        for item, value in _minmax(rank).items():
            per_item[item].append(value)
    scores = {item: float(reduce(values)) for item, values in per_item.items()}
    return _finalize(rs, scores, depth, f"comb{variant.lower()}")


def rlsim(rs: RankSet, depth: int | None = None) -> ScoredRank:
    """Product of per-rank scores, min-max normalized onto [RLSIM_EPSILON, 1].

    The floor keeps a single zero from annihilating an item; a rank that does
    not contain the item multiplies in the floor as well.
    """
    _check(rs)
    normalized = [_minmax(rank, floor=RLSIM_EPSILON) for rank in rs]
    items: set[ItemId] = set()
    for mapping in normalized:
        items.update(mapping)
    scores = {}
    for item in items:
        product = 1.0
        for mapping in normalized:
            product *= mapping.get(item, RLSIM_EPSILON)
        scores[item] = product
    return _finalize(rs, scores, depth, "rlsim")


def mra(rs: RankSet, depth: int | None = None) -> ScoredRank:
    """Median rank aggregation: majority sweep over increasing depths.

    At each depth d, items seen in positions <= d by more than half of the
    ranks are appended (most occurrences first, then item id). Items that
    never reach a majority follow by total occurrence count, then item id.
    """
    m = _check(rs)
    length = _depth(rs, depth)
    threshold = m / 2.0
    counts: dict[ItemId, int] = defaultdict(int)
    placed: list[ItemId] = []
    placed_set: set[ItemId] = set()
    max_len = max(len(rank) for rank in rs)
    for d in range(1, max_len + 1):
        for rank in rs:
            if len(rank) >= d:
                counts[rank.entries[d - 1].item] += 1
        qualifying = [item for item, c in counts.items() if c > threshold and item not in placed_set]
        qualifying.sort(key=lambda item: (-counts[item], item))
        for item in qualifying:
            placed.append(item)
            placed_set.add(item)
            if len(placed) == length:
                break
        if len(placed) == length:
            break  # the cut is full, so no leftover reaches it: counts need not cover the deeper positions
    leftovers = sorted(counts.keys() - placed_set, key=lambda item: (-counts[item], item))
    return _order_to_rank(rs, placed + leftovers, depth, "mra")


def condorcet(rs: RankSet, depth: int | None = None) -> ScoredRank:
    """Order items by pairwise wins; a pair is won by strict majority.

    A rank votes on a pair when it lists at least one of the two items, for
    the one it lists first; an absent item loses to a listed one. A rank that
    lists neither abstains. Cycles fall back to the item-id tie rule.

    Votes are counted in bit lanes: the i-th item in id order owns the
    ``width`` bits at offset ``width * i`` of an int. One walk per rank adds
    to ``worse[x]`` a 1 in the lane of every item x beats there, and to
    ``better[x]`` a 1 in the lane of every item that beats x. With each lane
    biased to ``2**(width - 1) - 1``, lane y of ``bias + worse[x] - better[x]``
    stays in ``[0, 2**width)``, so no lane carries into the next, and its top
    bit is set exactly when x wins the pair: x's wins are its set top bits.
    Cost: O(k·m) operations on (k·width)-bit ints for k items and m ranks,
    where a loop over item pairs makes O(k²·m) lookups.
    """
    _check(rs)
    items = sorted({entry.item for rank in rs for entry in rank})
    width = len(rs).bit_length() + 1
    lane = {item: 1 << (width * i) for i, item in enumerate(items)}
    ones = sum(lane.values())
    worse = dict.fromkeys(items, 0)
    better = dict.fromkeys(items, 0)
    for rank in rs:
        above = 0  # lanes of the items this rank lists before the current one
        for entry in rank:
            better[entry.item] += above
            above += lane[entry.item]
            worse[entry.item] += ones - above  # every later item, absent ones included
        for item in items:
            if not above & lane[item]:  # absent: every listed item beats it
                better[item] += above
    bias = ones * ((1 << (width - 1)) - 1)
    top = ones << (width - 1)
    wins = {
        item: float(((bias + worse[item] - better[item]) & top).bit_count()) for item in items
    }
    return _finalize(rs, wins, depth, "condorcet")


def kendall_discordance(order: Sequence[ItemId], rs: RankSet) -> int:
    """Total number of item pairs each rank orders opposite to ``order``.

    Items absent from a rank count as tied at the bottom: a pair with both
    absent is tied (no discordance either way); with one absent, the present
    item is ranked better.
    """
    total = 0
    for rank in rs:
        positions = rank.positions
        for i, x in enumerate(order):
            px = positions.get(x)
            for y in order[i + 1 :]:
                py = positions.get(y)
                if px is None and py is None:
                    continue
                if px is None or (py is not None and py < px):
                    total += 1
    return total


def kemeny_exact(
    rs: RankSet, cap: int = KEMENY_DEFAULT_CAP, depth: int | None = None
) -> ScoredRank:
    """Exact Kemeny consensus by exhaustive permutation search.

    Minimizes total discordance to the input ranks; among optimal
    permutations the lexicographically smallest is returned. Instances with
    more than ``cap`` distinct items are rejected (the search is factorial),
    and so is a cap outside 1..KEMENY_MAX_CAP.
    """
    check_kemeny_cap(cap)
    _check(rs)
    items = sorted({entry.item for rank in rs for entry in rank})
    if len(items) > cap:
        raise TooManyItems(f"{len(items)} distinct items exceed the Kemeny cap of {cap}")
    # permutations of sorted items come in lexicographic order, and min keeps the first of equal costs
    best_order = min(itertools.permutations(items), key=lambda order: kendall_discordance(order, rs))
    return _order_to_rank(rs, best_order, depth, "kemeny")


METHODS: dict[str, Callable[..., ScoredRank]] = {
    "borda": borda,
    "rrf": rrf,
    **{f"comb{variant.lower()}": partial(comb, variant=variant) for variant in COMB_VARIANTS},
    "mra": mra,
    "condorcet": condorcet,
    "rlsim": rlsim,
    "kemeny": kemeny_exact,
}


def aggregate(method: str, rs: RankSet, **params) -> ScoredRank:
    """Dispatch to an aggregation method by (case-insensitive) name."""
    key = method.lower()
    if key not in METHODS:
        raise ValueError(f"unknown aggregation method {method!r}; known: {sorted(METHODS)}")
    return METHODS[key](rs, **params)
