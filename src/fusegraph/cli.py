"""Command-line surface for the whole pipeline.

Subcommands mirror the offline/online split plus the evaluation machinery:

    extract    runs -> fusion-graph index directory
    search     query run rows + index -> fused TREC run
    verify     index directory -> every record of it checked
    baseline   runs -> fused TREC run via a named aggregation method
    eval       run + qrels (or class labels) -> NDCG@k / N-S report
    correlate  run set -> pairwise ranker-correlation matrix
    select     effectiveness (+ correlations) -> chosen ranker subset
    winners    effectiveness table -> winning number per method
    ttest      two per-query metric files -> significance verdict

Any library failure, and any invalid value the library rejects with
ValueError, exits non-zero after printing one JSON line to stderr with the
machine-readable error category (the exception class name); an argument
error prints one such line with the category UsageError and exits 2. Every
command runs on one thread, and the program reads no environment variable.

Each command imports only the modules it runs, in its ``_cmd_*`` function: with
no bytecode cache a process compiles every module it imports, which costs more
than the work of most commands.
"""

from __future__ import annotations

import argparse
import sys

from .errors import FusionError, NotEnoughRankers, QuerySetMismatch

DEFAULT_TAG = "FG"


def _cmd_extract(args: argparse.Namespace) -> int:
    from .config import load_config, load_runs
    from .model import CollectionRankIndex
    from .retrieval import index_collection, save_index

    config = load_config(args.config)
    fg_index = index_collection(
        CollectionRankIndex(load_runs(config)),
        config.ranker_names,
        config.depth,
        comparator=config.comparator,
        strict=config.strict,
    )
    save_index(args.out, fg_index)
    print(f"indexed {len(fg_index.graphs)} items into {args.out}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .config import load_config, load_runs, rank_sets_from_runs
    from .io import check_run_tag, write_run_file
    from .retrieval import fuse_query, load_index

    check_run_tag(args.tag)  # before any input is read
    fg_index = load_index(args.index)
    config = load_config(args.queries)
    query_runs = load_runs(config, fg_index.depth)
    rank_sets = rank_sets_from_runs(query_runs, tuple(config.ranker_names), strict=True)
    fused = {qid: fuse_query(rank_sets[qid], fg_index, exclude_self=args.exclude_self) for qid in sorted(rank_sets)}
    write_run_file(args.out, fused, args.tag)
    print(f"searched {len(fused)} queries into {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .retrieval import verify_index

    graphs, postings, ranks = verify_index(args.index)
    print(f"verified {graphs} graphs, {postings} posting lists and {ranks} ranks in {args.index}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    from . import baselines
    from .config import load_config, load_runs, rank_sets_from_runs
    from .io import write_run_file

    # both values are checked whatever the method, before any input is read
    baselines.check_rrf_k(args.rrf_k)
    baselines.check_kemeny_cap(args.kemeny_cap)
    config = load_config(args.config)
    runs = load_runs(config)
    rank_sets = rank_sets_from_runs(runs, config.ranker_names, strict=config.strict)
    params = {}
    if args.method == "rrf":
        params["k"] = args.rrf_k
    if args.method == "kemeny":
        params["cap"] = args.kemeny_cap
    fused = {
        qid: baselines.aggregate(args.method, rank_sets[qid], depth=config.depth, **params)
        for qid in sorted(rank_sets)
    }
    write_run_file(args.out, fused, args.method)
    print(f"aggregated {len(fused)} queries with {args.method} into {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import evaluate_runs
    from .io import parse_class_labels, parse_qrels, parse_run_file

    runs = parse_run_file(args.run, ranker="run")
    qrels = parse_qrels(args.qrels) if args.qrels else parse_class_labels(args.class_labels)
    report = evaluate_runs(runs, qrels, metric=args.metric, k=args.k)
    if args.per_query:
        from .analysis import write_per_query_metrics  # the format ttest reads

        write_per_query_metrics(args.per_query, report)
    print(f"mean {report.metric} {report.mean:.6f} over {len(report.per_query)} queries")
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    from .analysis import format_correlation_matrix, ranker_correlation, write_correlation_matrix
    from .config import load_config, load_runs

    config = load_config(args.config)
    runs = load_runs(config)
    names = list(config.ranker_names)
    if len(names) < 2:
        raise NotEnoughRankers("need at least two rankers to correlate")
    matrix = {
        a: {b: ranker_correlation(runs[a], runs[b], args.measure) for b in names}
        for a in names
    }
    if args.out:
        write_correlation_matrix(args.out, names, matrix)
    else:
        print(format_correlation_matrix(names, matrix), end="")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    from .analysis import parse_correlation_matrix, parse_ranker_effectiveness, select_rankers

    effectiveness = parse_ranker_effectiveness(args.effectiveness)
    correlations = parse_correlation_matrix(args.correlations) if args.correlations else None
    chosen = select_rankers(effectiveness, correlations, args.strategy)
    print(" ".join(chosen))
    return 0


def _cmd_winners(args: argparse.Namespace) -> int:
    from .analysis import parse_effectiveness_table, winning_numbers

    table = parse_effectiveness_table(args.table)
    wins = winning_numbers(table)
    for method in sorted(wins, key=lambda m: (-wins[m], m)):
        print(f"{method}\t{wins[method]}")
    return 0


def _cmd_ttest(args: argparse.Namespace) -> int:
    from .analysis import paired_t_test, parse_per_query_metrics

    values_a = parse_per_query_metrics(args.a)
    values_b = parse_per_query_metrics(args.b)
    if set(values_a) != set(values_b):
        raise QuerySetMismatch("metric files cover different queries")
    qids = sorted(values_a)
    result = paired_t_test(
        [values_a[q] for q in qids], [values_b[q] for q in qids], alpha=args.alpha
    )
    print(
        f"{result.verdict}\tt={result.t_statistic:.6f}\tp={result.p_value:.6f}"
        f"\tmean_diff={result.mean_difference:.6f}\tn={result.n}"
    )
    return 0


def _print_error(category: str, message: str) -> None:
    """Print the one JSON error line of a failed command to stderr."""
    import json  # only a failing command loads json

    print(json.dumps({"error": category, "message": message}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Reports an argument error as one JSON line on stderr, exit code 2."""

    def error(self, message: str):
        _print_error("UsageError", f"{self.prog}: {message}")
        sys.exit(2)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``. A subcommand whose choices or defaults come from a
    library module gets its arguments only when ``argv`` names it, so that no
    other command loads the module."""
    # the top level takes no option value: its first non-option word is the subcommand
    command = next((word for word in argv if not word.startswith("-")), None)
    parser = _Parser(
        prog="fusegraph",
        description="Graph-based rank fusion, classical aggregation baselines, "
        "and retrieval evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="build the fusion-graph index (offline)")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True, help="index directory to create")
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("search", help="rank the collection for query runs (online)")
    p.add_argument("--index", required=True, help="index directory from extract")
    p.add_argument("--queries", required=True, help="config JSON listing query run files")
    p.add_argument("--out", required=True, help="output TREC run file")
    p.add_argument("--tag", default=DEFAULT_TAG, help="run tag: non-empty, no whitespace")
    p.add_argument("--exclude-self", action="store_true")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify", help="check every record of an index")
    p.add_argument("--index", required=True, help="index directory from extract")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("baseline", help="aggregate runs with a classical method")
    if command == "baseline":
        from . import baselines

        p.add_argument("method", choices=sorted(baselines.METHODS))
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--rrf-k", type=float, default=baselines.RRF_DEFAULT_K)
        p.add_argument("--kemeny-cap", type=int, default=baselines.KEMENY_DEFAULT_CAP)
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser("eval", help="score a run against judgments")
    p.add_argument("--run", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--qrels")
    group.add_argument("--class-labels")
    p.add_argument("--metric", choices=("ndcg", "ns"), default="ndcg")
    p.add_argument("--k", type=int, help="NDCG cutoff (default 10); N-S always reads 4")
    p.add_argument("--per-query", help="write per-query values to this file")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("correlate", help="pairwise ranker correlations")
    if command == "correlate":
        from .analysis import CORRELATIONS

        p.add_argument("--config", required=True)
        p.add_argument("--measure", choices=sorted(CORRELATIONS), default="jaccard")
        p.add_argument("--out", help="write TSV matrix here instead of stdout")
    p.set_defaults(fn=_cmd_correlate)

    p = sub.add_parser("select", help="choose rankers to fuse")
    if command == "select":
        from .analysis import SELECTION_STRATEGIES

        p.add_argument("--effectiveness", required=True, help="lines: ranker value")
        p.add_argument("--correlations", help="TSV matrix from correlate")
        p.add_argument("--strategy", choices=SELECTION_STRATEGIES, required=True)
    p.set_defaults(fn=_cmd_select)

    p = sub.add_parser("winners", help="winning numbers over an effectiveness table")
    p.add_argument("--table", required=True, help="lines: dataset config method value")
    p.set_defaults(fn=_cmd_winners)

    p = sub.add_parser("ttest", help="paired t-test on two per-query metric files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.set_defaults(fn=_cmd_ttest)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.fn(args)
    except (FusionError, ValueError, OSError) as exc:
        _print_error(type(exc).__name__ if isinstance(exc, (FusionError, ValueError)) else "IOError", str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
