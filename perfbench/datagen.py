"""Seeded synthetic inputs for the benchmark: TREC run files, configs, class labels.

The collection is UKBench-shaped: classes of four items, each item a point
near its class center. Each of m rankers sees the points through its own
noise, mild for the classes it is good at (round-robin by class) and strong
otherwise, so fusing them helps. A ranker's run lists, for every query, the
L nearest collection items by squared distance, with positional scores bent
by a random per-query curvature. Held-out queries are extra points drawn the
same way but ranked against the collection only.

This is a port of the test suite's ``synthetic_collection`` kept inside the
benchmark, so that editing the test helpers cannot move the baseline.

Two seeds are involved. The data seed is fixed per workload, so the ranked
outputs are the same on every run and can be checked against recorded
checksums. The layout seed comes from ``--seed`` and changes the bytes of
every run file the program reads: the order of its lines and, per line,
whether the score is written as ``repr`` or ``%.17g`` (both parse to the
same double).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIMS = 6
PER_CLASS = 4
BLOCK = 256


@dataclass(frozen=True)
class Collection:
    items: list[str]
    labels: dict[str, str]
    held_out: list[str]
    # runs[ranker][query] = [(doc, score), ...] in rank order
    runs: dict[str, dict[str, list[tuple[str, float]]]]


def _nearest(view: np.ndarray, points: np.ndarray, depth: int) -> np.ndarray:
    """Indices of the ``depth`` collection points nearest to each point.

    Ties go to the lower index, as with a stable argsort of the whole row.
    Squared distances are summed coordinate by coordinate so the arithmetic,
    and with it the ranking, does not depend on how numpy vectorizes a
    reduction.
    """
    out = np.empty((len(points), depth), dtype=np.int64)
    for start in range(0, len(points), BLOCK):
        block = points[start : start + BLOCK]
        dist = np.zeros((len(block), len(view)))
        for k in range(DIMS):
            dist += (view[None, :, k] - block[:, None, k]) ** 2
        cutoff = np.partition(dist, depth - 1, axis=1)[:, depth - 1]
        for row in range(len(block)):
            near = np.flatnonzero(dist[row] <= cutoff[row])
            out[start + row] = near[np.argsort(dist[row, near], kind="stable")][:depth]
    return out


def make_collection(data_seed: int, n: int, depth: int, rankers: int, held_out: int) -> Collection:
    """n collection items in n/4 classes plus ``held_out`` extra queries."""
    rng = np.random.default_rng(data_seed)
    n_classes = n // PER_CLASS
    centers = rng.normal(0.0, 4.0, size=(n_classes, DIMS))
    class_of = np.repeat(np.arange(n_classes), PER_CLASS)
    vectors = centers[class_of] + rng.normal(0.0, 0.6, size=(len(class_of), DIMS))
    items = [f"c{c:04d}_{k}" for c in range(n_classes) for k in range(PER_CLASS)]
    labels = {item: f"class{c:04d}" for item, c in zip(items, class_of)}

    hq_class = rng.integers(0, n_classes, size=held_out)
    hq_vectors = centers[hq_class] + rng.normal(0.0, 0.6, size=(held_out, DIMS))
    hq_ids = [f"h{j:03d}" for j in range(held_out)]
    labels.update({q: f"class{c:04d}" for q, c in zip(hq_ids, hq_class)})

    grid = np.linspace(1.0, 0.05, num=depth)
    runs: dict[str, dict[str, list[tuple[str, float]]]] = {}
    for r in range(rankers):
        noise = np.where(class_of % rankers == r, 0.7, 2.6)
        view = vectors + rng.normal(0.0, 1.0, size=vectors.shape) * noise[:, None]
        hq_noise = np.where(hq_class % rankers == r, 0.7, 2.6)
        hq_view = hq_vectors + rng.normal(0.0, 1.0, size=hq_vectors.shape) * hq_noise[:, None]
        queries = items + hq_ids
        points = np.concatenate([view, hq_view])
        order = _nearest(view, points, depth)
        curvature = rng.uniform(0.2, 5.0, size=len(queries))
        scores = grid[None, :] ** curvature[:, None]
        runs[f"r{r + 1}"] = {
            q: [(items[j], s) for j, s in zip(order[qi].tolist(), scores[qi].tolist())]
            for qi, q in enumerate(queries)
        }
    return Collection(items, labels, hq_ids, runs)


def write_run(path: Path, ranker: str, runs: dict[str, list[tuple[str, float]]],
              queries: list[str], layout: random.Random) -> int:
    """Write one ranker's rows for ``queries`` in a seed-shuffled layout; return line count."""
    lines = []
    for q in queries:
        for pos, (doc, score) in enumerate(runs[q], start=1):
            text = repr(score) if layout.random() < 0.5 else format(score, ".17g")
            lines.append(f"{q} Q0 {doc} {pos} {text} {ranker}\n")
    layout.shuffle(lines)
    path.write_text("".join(lines), encoding="utf-8")
    return len(lines)


def write_config(path: Path, run_names: dict[str, str], depth: int, comparator: str) -> None:
    config = {
        "rankers": [
            {"name": ranker, "run": run, "polarity": "similarity"}
            for ranker, run in run_names.items()
        ],
        "depth": depth,
        "comparator": comparator,
    }
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")


def write_query_set(directory: Path, name: str, coll: Collection, queries: list[str],
                    depth: int, comparator: str, layout: random.Random) -> Path:
    """Write ``name.<ranker>.run`` for every ranker plus ``name.json``; return the config."""
    run_names = {}
    for ranker, runs in coll.runs.items():
        run_names[ranker] = f"{name}.{ranker}.run"
        write_run(directory / run_names[ranker], ranker, runs, queries, layout)
    config = directory / f"{name}.json"
    write_config(config, run_names, depth, comparator)
    return config


def write_labels(path: Path, labels: dict[str, str]) -> None:
    path.write_text("".join(f"{item} {label}\n" for item, label in sorted(labels.items())),
                    encoding="utf-8")
