"""Smoke test of the benchmark itself on the tiny profile (n of 100 to 200).

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

For every workload, untraced and traced, it checks that the run exits 0, that
the last stdout line is the result object with every metric BENCHMARK.json
names for that mode, each with its unit and a finite value, that every output
was verified against its golden checksum, and that the report header carries
the Python version, nproc, commit and source line count. Every per-layer
metric must be non-zero on at least one workload, so that a traced name that
stopped measuring anything shows. Finally it checks that the benchmark
fails, printing no result, when the sources are absent.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def expected_outputs(spec: run.Workload, rounds: int) -> int:
    """Checksums plus N-S values verified per run."""
    return rounds * (2 + len(spec.baselines))


def smoke_run(workload: str, trace: int) -> dict[str, float]:
    """One tiny run, checked; returns its metric values."""
    label = f"{workload} trace={trace}"
    done = bench("--workload", workload, "--profile", "tiny", "--seed", "7", "--seconds", "1",
                 "--trace", str(trace))
    check(done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{label}: not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted}, f"{label}: metric names")
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        check(got["unit"] == metric["unit"], f"{label}: unit of {metric['name']}")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{label}: value of {metric['name']}")
    rounds = int(next(line for line in lines if line.startswith("# rounds")).split()[2])
    verified = next(line for line in lines if line.startswith("# verified"))
    spec = run.PROFILES["tiny"][workload]
    want = expected_outputs(run.traced_spec(spec) if trace else spec, rounds)
    check(int(verified.split()[2]) == want, f"{label}: {verified!r}, expected {want} outputs")
    check(any(line.startswith("# python ") and "nproc" in line and "commit" in line
              and "src_lines" in line for line in lines), f"{label}: report header")
    print(f"ok {label}: {len(wanted)} metrics, {want} outputs verified")
    return {name: got["value"] for name, got in result["metrics"].items()}


def smoke_without_sources() -> None:
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "scan", "--profile", "tiny", "--seconds", "1", cwd=bare)
        check(done.returncode != 0, "a checkout without sources must fail")
        check(not done.stdout.strip(), "a checkout without sources must print no result")
        print("ok without sources: exit", done.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    nonzero: set[str] = set()
    for workload in sorted(run.PROFILES["tiny"]):
        for trace in (0, 1):
            nonzero.update(name for name, value in smoke_run(workload, trace).items() if value)
    zero = sorted(m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in nonzero)
    check(not zero, f"per-layer metrics that are 0 on every workload: {', '.join(zero)}")
    print("ok every per-layer metric is non-zero on some workload")
    smoke_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
