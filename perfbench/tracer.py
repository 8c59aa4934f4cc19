"""Run one fusegraph CLI command with spans around each module's public functions.

Usage::

    python3 perfbench/tracer.py SPANS.json <fusegraph CLI arguments...>

The wrappers are installed from outside the program: after ``fusegraph.cli``
is imported, every name bound to a traced function, in any fusegraph module
namespace or module-level dict (such as the comparator table), is replaced by
a wrapper. A span is [name, start, end, parent index, query id]; spans are
kept in memory and written, with the counters, to SPANS.json when the
command ends. The command's exit code is passed through.

A traced function, module, stats class or ``stats`` parameter that no longer
exists is listed under "missing" in SPANS.json, and the benchmark fails the
run: its metrics would otherwise read 0 without a warning.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

clock = time.perf_counter
spans: list[list] = []
stack: list[int] = []
counters: dict[str, float] = {}


def count(name: str, amount: float = 1) -> None:
    counters[name] = counters.get(name, 0) + amount


def open_span(name: str, qid) -> int:
    parent = stack[-1] if stack else -1
    if qid is None and parent >= 0:
        qid = spans[parent][4]
    spans.append([name, clock(), 0.0, parent, qid])
    stack.append(len(spans) - 1)
    return stack[-1]


def close_span(idx: int) -> None:
    spans[idx][2] = clock()
    stack.pop()


def traced(name, fn, qid_of=None, after=None, stats_kw=None, span=True):
    """Wrap fn: optional span, optional stats object injection, optional result hook.

    ``name`` is the span name, or a function of (args, kwargs) returning it.
    """
    params = list(inspect.signature(fn).parameters)
    takes_stats = stats_kw is not None
    stats_pos = params.index("stats") if takes_stats else -1

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if takes_stats and len(args) <= stats_pos and kwargs.get("stats") is None:
            kwargs["stats"] = stats_kw
        if not span:
            result = fn(*args, **kwargs)
        else:
            span_name = name(args, kwargs) if callable(name) else name
            idx = open_span(span_name, qid_of(args, kwargs) if qid_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _graph_size(_args, graph):
    count("graph.graphs")
    count("graph.vertices", len(graph.vertices))
    count("graph.edges", len(graph.edges))


def _useful_pair(_args, distance):
    if distance < 1.0:
        count("similarity.useful_pairs")


def _lines_parsed(_args, runs):
    count("io.lines_parsed", sum(len(rank) for rank in runs.values()))


def _ranks_normalized(_args, _rank):
    count("normalize.ranks_normalized")


def _query_of_rank_set(args, kwargs):
    rs = args[0] if args else kwargs.get("query_ranks")
    return getattr(rs, "query", None)


def _aggregate_name(args, kwargs):
    method = args[0] if args else kwargs.get("method")
    return f"baselines.aggregate.{str(method).lower()}"


def _module(name: str):
    try:
        return importlib.import_module(f"fusegraph.{name}")
    except ImportError:
        return None


def install(missing: list[str]) -> dict:
    """Wrap the traced functions in every fusegraph module; return the stats objects.

    Each traced module is imported first, so a module the CLI imports lazily
    is traced too. Names that cannot be found are appended to ``missing``.
    """
    stats = {}
    for key, layer, cls in (("build", "graph", "BuildStats"), ("mcs", "similarity", "McsStats")):
        make = getattr(_module(layer), cls, None)
        if callable(make):
            stats[key] = make()
        else:
            missing.append(f"{layer}.{cls}")

    plan = [
        ("io", "parse_run_file", {"after": _lines_parsed}),
        ("io", "write_run_file", {}),
        ("io", "parse_class_labels", {}),
        ("io", "parse_qrels", {}),
        ("io", "load_config", {}),
        ("io", "rank_sets_from_runs", {}),
        ("normalize", "normalize_collection", {}),
        ("normalize", "normalize_rank_set", {}),
        ("normalize", "normalize_rank", {"after": _ranks_normalized, "span": False}),
        ("graph", "build_fusion_graph",
         {"after": _graph_size, "stats_kw": stats.get("build")}),
        ("graph", "deserialize_graph", {"after": _graph_size}),
        ("graph", "serialize_graph", {}),
        ("similarity", "dist_wgu", {"after": _useful_pair}),
        ("similarity", "dist_mcs", {"after": _useful_pair}),
        ("similarity", "mcs", {"stats_kw": stats.get("mcs"), "span": False}),
        ("retrieval", "load_index", {}),
        ("retrieval", "save_index", {}),
        ("retrieval", "index_collection", {}),
        ("retrieval", "fuse_query", {"qid_of": _query_of_rank_set}),
        ("retrieval", "build_query_graph", {}),
        ("baselines", "aggregate",
         {"name": _aggregate_name, "qid_of": lambda a, k: _query_of_rank_set(a[1:], k)}),
        ("evaluation", "evaluate_runs", {}),
    ]
    for layer, fname, opts in plan:
        fn = getattr(_module(layer), fname, None)
        if not callable(fn):
            missing.append(f"{layer}.{fname}")
            continue
        if "stats_kw" in opts and (opts["stats_kw"] is None
                                   or "stats" not in inspect.signature(fn).parameters):
            missing.append(f"{layer}.{fname}(stats)")
            del opts["stats_kw"]
        opts.setdefault("name", f"{layer}.{fname}")
        wrapper = traced(fn=fn, **opts)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fusegraph"]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn:
                            value[dkey] = wrapper
    return stats


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    idx = open_span("cli.import", None)
    cli = importlib.import_module("fusegraph.cli")
    close_span(idx)
    missing: list[str] = []
    stats = install(missing)
    idx = open_span("cli.main", None)
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        close_span(idx)
        if "build" in stats:
            counters["graph.entry_visits"] = stats["build"].entry_visits
        if "mcs" in stats:
            counters["similarity.mcs_comparisons"] = stats["mcs"].comparisons
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counters": counters, "missing": missing}, fh,
                      separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
