"""fusegraph benchmark: the real CLI, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload build --profile tiny --seconds 1 --trace 1

Each run generates its inputs (see ``datagen.py``), then repeats rounds over
the workload: at least three, and more while another fits in ``--seconds``.
A round runs, one child process at a time and with the default worker
count, ``python -m fusegraph.cli`` against the checkout's ``src/``:

    extract -> search (one or more processes) -> eval --metric ns --k 4
            -> baseline <method> for each of the workload's methods

Every round runs every command, so each time metric is the median of at
least three samples spread over the run.

Each child's time is its own user + system CPU time and its peak RSS, both
read from ``os.wait4``; its wall time (``perf_counter``) is printed in the
report. CPU time leaves out the time a child spends waiting for a processor
or for a disk read, which on a shared machine depends on the neighbours, not
on the program: the CLI runs with one worker (and numpy's BLAS with one
thread), so its CPU time is its busy time. The speed of a shared machine's
processors still drifts by tens of percent within a minute, so every timed
child is followed by a run of a fixed calibration process (``CALIBRATION``:
interpreter start, imports, pure Python work; nothing from ``src/``), and its
CPU time is reported in reference seconds: CPU time x
``CALIBRATION_REFERENCE_S`` / the median CPU time of the four calibrations
nearest to it, two before and two after. A change to the program moves the
child and not the calibration; a slower machine moves both.

Every ranked output is checked against the sha256 recorded in
``golden.json``, and N-S@4 against its recorded value; the outputs do not
depend on ``--seed``, which only changes the layout of the input files.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics (medians over rounds). With ``--trace 1`` the run makes one
untraced round and one round under ``tracer.py`` and reports per-layer metrics
and the tracing overhead; the spans of the traced round are written to
``.perfbench-work/trace-<profile>-<workload>-<seed>.json``. Lines before the JSON are
a human-readable report. See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import datagen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
GOLDEN = BENCH_DIR / "golden.json"
RANKERS = 3
DEADLINE_S = 170.0
MIN_ROUNDS = 3
SETUPS = 5
METHODS = ("borda", "rrf", "combmnz", "condorcet")
CALIBRATION = """
import argparse, decimal, json, numpy
table = {}
for i in range(150_000):
    table[i % 997] = table.get(i % 997, 0.0) + i / 7.0
rows = sorted(table.items(), key=lambda kv: -kv[1])
assert len(json.loads(json.dumps(rows))) == 997
"""
# CPU time of one CALIBRATION process on an idle 2-vCPU Xeon virtual machine,
# so that reference seconds read about like CPU seconds there.
CALIBRATION_REFERENCE_S = 0.25


@dataclass(frozen=True)
class Workload:
    """Sizes and command mix of one workload.

    Search queries are every ``stride``-th collection item, searched with
    --exclude-self in one process, or, when ``held_out`` is non-zero, that
    many extra queries, each searched in a process of its own.
    Baselines fuse the search queries' rows, or the whole collection when
    ``baseline_collection`` is set. A traced run fuses with every method in
    ``METHODS``, so that each has its per-layer time.
    """

    n: int
    depth: int
    comparator: str
    data_seed: int
    stride: int = 0
    held_out: int = 0
    baselines: tuple[str, ...] = ("borda",)
    baseline_collection: bool = False


PROFILES = {
    "full": {
        "scan": Workload(n=600, depth=10, comparator="WGU", data_seed=1901, stride=24),
        "coldstart": Workload(n=400, depth=20, comparator="WGU", data_seed=1902, held_out=1),
        "build": Workload(n=400, depth=20, comparator="MCS", data_seed=1903, stride=100,
                          baselines=("condorcet",), baseline_collection=True),
    },
    "tiny": {
        "scan": Workload(n=200, depth=10, comparator="WGU", data_seed=1901, stride=20),
        "coldstart": Workload(n=100, depth=20, comparator="WGU", data_seed=1902, held_out=1),
        "build": Workload(n=200, depth=20, comparator="MCS", data_seed=1903, stride=100,
                          baselines=("condorcet",), baseline_collection=True),
    },
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def traced_spec(spec: Workload) -> Workload:
    """The workload as both rounds of a traced run make it: every baseline method."""
    return dataclasses.replace(spec, baselines=METHODS)


class Abort(Exception):
    """A command failed in a way that leaves nothing further to run."""


@dataclass
class Inputs:
    directory: Path
    collection: Path
    labels: Path
    search_configs: list[tuple[Path, int]]  # (config, number of queries)
    baseline_config: Path
    baseline_queries: int
    exclude_self: bool


@dataclass
class Call:
    kind: str
    wall: float
    cpu: float
    after: int  # index of the calibration run just after this call
    rss_mb: float
    ok: bool
    stdout: str
    ref_s: float = 0.0  # CPU time in reference seconds, set by Runner.settle


@dataclass
class Round:
    calls: list[Call] = field(default_factory=list)
    index_files: dict[str, int] = field(default_factory=dict)
    index_roles: dict[str, str] = field(default_factory=dict)  # manifest "files" map
    checksums: list[tuple[str, str]] = field(default_factory=list)  # (output, sha256)
    ns_at_4: float = 0.0
    spans: list[dict] = field(default_factory=list)


class Runner:
    """Starts CLI children one at a time and keeps the books on them."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.env = {k: v for k, v in os.environ.items() if k != "FUSEGRAPH_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        # numpy's BLAS would otherwise start a thread per core in every child.
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = "1"
        self.calibrations: list[float] = []

    def _wait(self, proc: subprocess.Popen) -> tuple[int, os.struct_rusage]:
        """Reap ``proc`` (killed at the deadline): (exit code, its own rusage)."""
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def calibrate(self) -> None:
        """Run the calibration process once and record its CPU time."""
        env = {k: v for k, v in self.env.items() if k != "PYTHONPATH"}
        proc = subprocess.Popen([sys.executable, "-c", CALIBRATION], cwd=BENCH_DIR, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        code, usage = self._wait(proc)
        if code != 0:
            raise Abort(f"calibration process exited {code}")
        self.calibrations.append(usage.ru_utime + usage.ru_stime)

    def timed(self, measure):
        """Call ``measure()`` between calibrations: (its result, index of the one after it).

        The calibration after one measurement is the one before the next.
        """
        if not self.calibrations:
            self.calibrate()
        result = measure()
        self.calibrate()
        return result, len(self.calibrations) - 1

    def scale(self, after: int) -> float:
        """Reference seconds per CPU second for the measurement before calibration ``after``."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.calibrations[max(0, after - 2):
                                                                            after + 2])

    def settle(self, rounds: list[Round]) -> None:
        """Convert the CPU time of every call to reference seconds, once the run is over."""
        for call in (c for r in rounds for c in r.calls):
            call.ref_s = call.cpu * self.scale(call.after)

    def run(self, argv: list[str], cwd: Path, log: Path) -> tuple[float, float, float, int, str, str]:
        """Run one child to completion: (wall s, CPU s, peak RSS MB, exit code, stdout, stderr)."""
        with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            code, usage = self._wait(proc)
            wall = time.perf_counter() - start
            out.seek(0)
            err.seek(0)
            cpu = usage.ru_utime + usage.ru_stime
            return wall, cpu, usage.ru_maxrss / 1024.0, code, out.read(), err.read()

    def cli(self, kind: str, args: list[str], cwd: Path, spans: Path | None) -> Call:
        """Run a fusegraph subcommand; a non-zero exit or JSON error line fails it."""
        if spans is None:
            argv = [sys.executable, "-m", "fusegraph.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), *args]
        self.attempted += 1
        (wall, cpu, rss, code, stdout, stderr), after = self.timed(
            lambda: self.run(argv, cwd, cwd / f"{kind}-{self.attempted}"))
        ok = code == 0 and not any(_is_error_line(line) for line in stderr.splitlines())
        if not ok:
            self.failed += 1
            print(f"# FAILED {kind} (exit {code}): {stderr.strip()[-500:]}")
        return Call(kind, wall, cpu, after, rss, ok, stdout)


def _is_error_line(line: str) -> bool:
    try:
        record = json.loads(line)
    except ValueError:
        return False
    return isinstance(record, dict) and "error" in record


def set_up(spec: Workload, seed: int, directory: Path) -> Inputs:
    """Generate the workload's data and write every input file into ``directory``."""
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    coll = datagen.make_collection(spec.data_seed, spec.n, spec.depth, RANKERS, spec.held_out)
    layout = random.Random(seed)

    def query_set(name: str, queries: list[str]) -> Path:
        return datagen.write_query_set(directory, name, coll, queries, spec.depth,
                                       spec.comparator, layout)

    collection = query_set("collection", coll.items)
    queries = coll.held_out if spec.held_out else coll.items[:: spec.stride]
    query_config = query_set("queries", queries)
    if spec.held_out:
        search_configs = [(query_set(q, [q]), 1) for q in queries]
    else:
        search_configs = [(query_config, len(queries))]
    labels = directory / "labels.txt"
    datagen.write_labels(labels, coll.labels)
    if spec.baseline_collection:
        baseline_config, baseline_queries = collection, len(coll.items)
    else:
        baseline_config, baseline_queries = query_config, len(queries)
    return Inputs(directory, collection, labels, search_configs, baseline_config,
                  baseline_queries, exclude_self=not spec.held_out)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_round(runner: Runner, spec: Workload, inputs: Inputs, tag: str, traced: bool) -> Round:
    """One round over the workload's commands; outputs go to a fresh directory."""
    result = Round()
    out = inputs.directory / tag
    out.mkdir()

    def call(kind: str, args: list[str]) -> Call:
        spans = out / f"spans-{len(result.calls)}.json" if traced else None
        done = runner.cli(kind, args, out, spans)
        if not done.ok:
            raise Abort(f"{kind} failed")
        result.calls.append(done)
        if spans is not None:
            result.spans.append(json.loads(spans.read_text()))
        return done

    index = out / "index"
    call("extract", ["extract", "--config", str(inputs.collection), "--out", str(index)])
    result.index_files = {p.name: p.stat().st_size for p in sorted(index.iterdir()) if p.is_file()}
    result.index_roles = _manifest_files(index)

    parts = []
    for k, (config, _) in enumerate(inputs.search_configs):
        part = out / f"search-{k:03d}.run"
        args = ["search", "--index", str(index), "--queries", str(config), "--out", str(part)]
        if inputs.exclude_self:
            args.append("--exclude-self")
        call("search", args)
        parts.append(part)
    search_run = out / "search.run"
    # Each part holds whole queries in ascending order, and parts ascend too.
    search_run.write_bytes(b"".join(p.read_bytes() for p in parts))
    result.checksums.append(("search", sha256(search_run)))

    evaluated = call("eval", ["eval", "--run", str(search_run), "--class-labels",
                              str(inputs.labels), "--metric", "ns", "--k", "4"])
    words = evaluated.stdout.split()
    if len(words) < 3 or words[:2] != ["mean", "ns"]:
        raise Abort(f"unexpected eval output {evaluated.stdout.strip()!r}")
    result.ns_at_4 = float(words[2])

    for method in spec.baselines:
        fused = out / f"{method}.run"
        call("baseline", ["baseline", method, "--config", str(inputs.baseline_config),
                          "--out", str(fused)])
        result.checksums.append((method, sha256(fused)))
    shutil.rmtree(index)
    return result


def verify(runner: Runner, rounds: list[Round], golden: dict | None) -> bool:
    """Check every round against the recorded goldens; a mismatch fails its command.

    A mismatch prints the full digest, which is what golden.json records.
    """
    if golden is None:
        print("# no golden outputs recorded for this workload and profile")
        return False
    correct = True
    verified = 0
    for r in rounds:
        for name, digest in r.checksums:
            expected = golden["sha256"].get(name)
            if digest == expected:
                verified += 1
            else:
                print(f"# MISMATCH {name}: sha256 {digest}, expected {expected}")
                runner.failed += 1
                correct = False
        if r.ns_at_4 == golden["ns_at_4"]:
            verified += 1
        else:
            print(f"# MISMATCH ns_at_4: {r.ns_at_4!r}, expected {golden['ns_at_4']!r}")
            runner.failed += 1
            correct = False
    print(f"# verified {verified} outputs against golden "
          f"{', '.join(sorted(golden['sha256']))} and ns_at_4 = {golden['ns_at_4']}")
    return correct


def e2e_metrics(spec: Workload, inputs: Inputs, setup_s: float,
                rounds: list[Round]) -> dict[str, float]:
    """End-to-end metrics: medians over rounds (search call time over all calls).

    Every time is the child's CPU time in reference seconds; see the module docstring.
    """

    def per_round(fn):
        return statistics.median(fn(r) for r in rounds)

    def times(r: Round, kind: str) -> list[float]:
        return [c.ref_s for c in r.calls if c.kind == kind]

    def peak(r: Round, kind: str) -> float:
        return max(c.rss_mb for c in r.calls if c.kind == kind)

    n_queries = sum(q for _, q in inputs.search_configs)
    fused = inputs.baseline_queries * len(spec.baselines)
    return {
        "setup_s": setup_s,
        "search_qps": per_round(lambda r: n_queries / sum(times(r, "search"))),
        "search_call_p50_s": statistics.median(t for r in rounds for t in times(r, "search")),
        "search_peak_rss_mb": per_round(lambda r: peak(r, "search")),
        "eval_s": per_round(lambda r: times(r, "eval")[0]),
        "ns_at_4": per_round(lambda r: r.ns_at_4),
        "extract_items_per_s": per_round(lambda r: spec.n / times(r, "extract")[0]),
        "extract_peak_rss_mb": per_round(lambda r: peak(r, "extract")),
        "index_bytes_per_item": per_round(lambda r: sum(r.index_files.values()) / spec.n),
        "baseline_qps": per_round(lambda r: fused / sum(times(r, "baseline"))),
    }


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile (q=5 is the median); 0 when there are no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def layer_metrics(traced: Round, untraced: Round) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced round, and the traced names it could not find.

    Times are totals over the round. A name is missing when a traced function,
    a stats object or an index manifest role no longer exists; its metrics
    would read 0, so the caller fails the run instead.
    """
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    scoring_self: list[float] = []
    counters: dict[str, float] = defaultdict(float)
    n_spans = 0
    missing = {f"index manifest files.{role}" for role in ("graphs", "ranks")
               if untraced.index_roles.get(role) not in untraced.index_files}
    for trace in traced.spans:
        missing.update(trace["missing"])
        spans = trace["spans"]
        n_spans += len(spans)
        for name, value in trace["counters"].items():
            counters[name] += value
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            dur = end - start
            total[name] += dur
            if name != "cli.import":
                self_time[name.split(".")[0]] += dur - child[i]
            durations[name].append(dur)
            if name == "retrieval.fuse_query":
                scoring_self.append(dur - child[i])

    pair_times = durations["similarity.dist_wgu"] + durations["similarity.dist_mcs"]
    graphs = counters["graph.graphs"]
    traced_s = sum(c.ref_s for c in traced.calls)
    untraced_s = sum(c.ref_s for c in untraced.calls)
    metrics = {
        "cli.import_s": total["cli.import"],
        "io.parse_run_file_s": total["io.parse_run_file"],
        "io.lines_parsed": counters["io.lines_parsed"],
        "io.write_run_file_s": total["io.write_run_file"],
        "normalize.normalize_collection_s": total["normalize.normalize_collection"],
        "normalize.ranks_normalized": counters["normalize.ranks_normalized"],
        "graph.entry_visits": counters["graph.entry_visits"],
        "graph.deserialize_s": total["graph.deserialize_graph"],
        "graph.vertices_mean": counters["graph.vertices"] / graphs if graphs else 0.0,
        "graph.edges_mean": counters["graph.edges"] / graphs if graphs else 0.0,
        "similarity.pairs_scored": len(pair_times),
        "similarity.useful_pair_ratio":
            counters["similarity.useful_pairs"] / len(pair_times) if pair_times else 0.0,
        "similarity.mcs_comparisons": counters["similarity.mcs_comparisons"],
        "similarity.pair_us_p50": _quantile(pair_times, 5) * 1e6,
        "retrieval.load_index_s": total["retrieval.load_index"],
        "retrieval.index_collection_s": total["retrieval.index_collection"],
        "retrieval.save_index_s": total["retrieval.save_index"],
        "retrieval.fuse_query_ms_p50": _quantile(durations["retrieval.fuse_query"], 5) * 1e3,
        "retrieval.fuse_query_ms_p90": _quantile(durations["retrieval.fuse_query"], 9) * 1e3,
        "retrieval.build_query_graph_ms_p50":
            _quantile(durations["retrieval.build_query_graph"], 5) * 1e3,
        "retrieval.scoring_self_ms_p50": _quantile(scoring_self, 5) * 1e3,
        "retrieval.index_bytes.graphs": _role_bytes(untraced, "graphs"),
        "retrieval.index_bytes.ranks": _role_bytes(untraced, "ranks"),
        **{f"baselines.aggregate_s.{m}": total[f"baselines.aggregate.{m}"] for m in METHODS},
        "evaluation.evaluate_runs_s": total["evaluation.evaluate_runs"],
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "trace.spans": float(n_spans),
    }
    for layer in ("cli", "io", "normalize", "graph", "similarity", "retrieval", "baselines",
                  "evaluation"):
        metrics[f"{layer}.self_s"] = self_time[layer]
    return metrics, sorted(missing)


def _manifest_files(index: Path) -> dict[str, str]:
    """The index manifest's role -> file name map, if the format has one."""
    try:
        files = json.loads((index / "manifest.json").read_text())["files"]
    except (OSError, ValueError, KeyError, TypeError):
        return {}
    return {str(k): str(v) for k, v in files.items()} if isinstance(files, dict) else {}


def _role_bytes(r: Round, role: str) -> float:
    return float(r.index_files.get(r.index_roles.get(role, ""), 0))


def header(args, spec: Workload, inputs: Inputs) -> None:
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    print(f"# perfbench workload={args.workload} profile={args.profile} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# python {sys.version.split()[0]}  nproc {len(os.sched_getaffinity(0))}  "
          f"commit {commit}  src_lines {src_lines}")
    queries = sum(q for _, q in inputs.search_configs)
    print(f"# sizes n={spec.n} L={spec.depth} m={RANKERS} comparator={spec.comparator} "
          f"search_queries={queries} search_calls={len(inputs.search_configs)} "
          f"baselines={','.join(spec.baselines)} baseline_queries={inputs.baseline_queries}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES["full"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "fusegraph" / "cli.py").is_file():
        print(f"perfbench: no fusegraph sources under {SRC}", file=sys.stderr)
        return 2
    began = time.monotonic()
    runner = Runner(deadline=began + DEADLINE_S)
    spec = PROFILES[args.profile][args.workload]
    directory = WORK / f"{args.profile}-{args.workload}-{args.seed}-{os.getpid()}"
    try:

        def set_ups() -> tuple[Inputs, list[float]]:
            times = []
            for _ in range(SETUPS):
                start = time.process_time()
                inputs = set_up(spec, args.seed, directory)
                times.append(time.process_time() - start)
            return inputs, times

        (inputs, setups), after = runner.timed(set_ups)
        header(args, spec, inputs)
        return measure(args, spec, inputs, (setups, after), runner)
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def measure(args, spec: Workload, inputs: Inputs, setups: tuple[list[float], int],
            runner: Runner) -> int:
    """Run the rounds and print the report; ``setups`` is (set-up CPU times, calibration after)."""
    rounds: list[Round] = []
    metrics: dict[str, float] = {}
    correct = True
    try:
        if args.trace:
            spec = traced_spec(spec)
            untraced = run_round(runner, spec, inputs, "round-1", traced=False)
            traced = run_round(runner, spec, inputs, "round-2", traced=True)
            rounds = [untraced, traced]
            runner.settle(rounds)
            metrics, missing = layer_metrics(traced, untraced)
            if missing:
                print(f"# MISSING traced names: {', '.join(missing)}")
                correct = False
            trace_file = WORK / f"trace-{args.profile}-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps(traced.spans, separators=(",", ":")))
            units = LAYER_UNITS
        else:
            start = time.perf_counter()
            while True:
                rounds.append(run_round(runner, spec, inputs, f"round-{len(rounds) + 1}", False))
                elapsed = time.perf_counter() - start
                per_round = elapsed / len(rounds)
                if len(rounds) >= MIN_ROUNDS and elapsed + per_round > args.seconds:
                    break
                if time.monotonic() + 2 * per_round > runner.deadline:
                    break
            runner.settle(rounds)
            setup_cpu, after = setups
            setup_s = statistics.median(setup_cpu) * runner.scale(after)
            metrics = e2e_metrics(spec, inputs, setup_s, rounds)
            units = E2E_UNITS
    except Abort as exc:
        print(f"# aborted: {exc}")
        runner.settle(rounds)
        units = {}
        correct = False
    else:
        golden = json.loads(GOLDEN.read_text()).get(args.profile, {}).get(args.workload)
        correct = verify(runner, rounds, golden) and correct and runner.failed == 0
        if not args.trace:
            metrics["ok_ratio"] = (runner.attempted - runner.failed) / runner.attempted
    print(f"# rounds {len(rounds)}  commands {runner.attempted}  failed {runner.failed}  "
          f"failed_ratio {runner.failed / max(1, runner.attempted):.4f}")
    for kind in ("extract", "search", "eval", "baseline"):
        calls = [c for r in rounds for c in r.calls if c.kind == kind]
        if calls:
            print(f"# {kind:9s} calls {len(calls):3d}  median wall "
                  f"{statistics.median(c.wall for c in calls):7.3f} s  CPU "
                  f"{statistics.median(c.cpu for c in calls):7.3f} s  reference "
                  f"{statistics.median(c.ref_s for c in calls):7.3f} s")
    if runner.calibrations:
        print(f"# calibration runs {len(runner.calibrations)}  CPU s min "
              f"{min(runner.calibrations):.3f} median {statistics.median(runner.calibrations):.3f} "
              f"max {max(runner.calibrations):.3f}")
    for name, unit in units.items():
        print(f"# {name:36s} {metrics[name]:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, runner.attempted),
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
