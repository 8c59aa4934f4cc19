"""Pipeline configuration: the JSON file naming each ranker's run file, and the runs it loads."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from .errors import ConfigError
from .io import POLARITIES, POLARITY_SIMILARITY, parse_run_file
from .model import CollectionRankIndex, ItemId, RankSet, ScoredRank, assemble_rank_set


class RankerSpec:
    __slots__ = ("name", "run", "polarity")  # the config keys of a ranker

    def __init__(self, name: str, run: str, polarity: str = POLARITY_SIMILARITY):
        if not name:
            raise ConfigError("ranker name must be non-empty")
        if polarity not in POLARITIES:
            raise ConfigError(f"ranker {name!r}: polarity must be one of {POLARITIES}, got {polarity!r}")
        self.name, self.run, self.polarity = name, run, polarity


class PipelineConfig:
    """Everything the pipeline commands need; loaded from a JSON file.

    Schema (see README for the full description)::

        {
          "rankers": [{"name": ..., "run": ..., "polarity": "similarity"}, ...],
          "depth": 10,
          "comparator": "WGU",
          "strict": false
        }

    A field outside this schema is a ConfigError.
    """

    __slots__ = ("rankers", "depth", "comparator", "strict")  # the config keys

    def __init__(self, rankers: tuple[RankerSpec, ...], depth: int = 10, comparator: str = "WGU", strict: bool = False):
        if not rankers:
            raise ConfigError("config must declare at least one ranker")
        if depth < 1:
            raise ConfigError(f"depth must be >= 1, got {depth}")
        if comparator not in ("MCS", "WGU"):
            raise ConfigError(f"comparator must be MCS or WGU, got {comparator!r}")
        names = [spec.name for spec in rankers]
        if len(set(names)) != len(names):
            raise ConfigError("ranker names must be unique")
        self.rankers, self.depth, self.comparator, self.strict = rankers, depth, comparator, strict

    @property
    def ranker_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.rankers)


def _typed(data: dict, key: str, default: object, kind: type, what: str):
    """``data[key]``, or ``default`` when absent; ConfigError unless its type is exactly ``kind``."""
    value = data.get(key, default)
    if type(value) is not kind:
        raise ConfigError(f"config field {key!r} must be {what}, got {value!r}")
    return value


def _known_fields(data: dict, spec: type, where: str = "") -> None:
    """ConfigError naming the first key of ``data`` that is not one of the ``__slots__`` of ``spec``."""
    unknown = sorted(data.keys() - set(spec.__slots__))
    if unknown:
        raise ConfigError(f"config field {unknown[0]!r}{where} is unknown")


def load_config(path: str | Path) -> PipelineConfig:
    """Read a pipeline config, checking every field's name and JSON type; nothing is coerced."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, RecursionError, UnicodeDecodeError, json.JSONDecodeError) as exc:  # too deep, not UTF-8, not JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _known_fields(data, PipelineConfig)
    raw_rankers = data.get("rankers")
    if not isinstance(raw_rankers, list):
        raise ConfigError("config needs a 'rankers' list")
    rankers = []
    base = path.parent
    for entry in raw_rankers:
        if not isinstance(entry, dict) or "name" not in entry or "run" not in entry:
            raise ConfigError("each ranker needs 'name' and 'run' fields")
        _known_fields(entry, RankerSpec, " of a ranker")
        run_path = _typed(entry, "run", None, str, "a string")
        if not Path(run_path).is_absolute():
            run_path = str(base / run_path)
        rankers.append(
            RankerSpec(
                name=_typed(entry, "name", None, str, "a string"),
                run=run_path,
                polarity=_typed(entry, "polarity", POLARITY_SIMILARITY, str, "a string"),
            )
        )
    return PipelineConfig(
        rankers=tuple(rankers),
        depth=_typed(data, "depth", 10, int, "an integer"),
        comparator=data.get("comparator", "WGU"),
        strict=_typed(data, "strict", False, bool, "true or false"),
    )


def load_runs(config: PipelineConfig, depth: int | None = None) -> dict[str, dict[ItemId, ScoredRank]]:
    """Parse every ranker's run file at ``depth``, by default the configured depth."""
    return {
        spec.name: parse_run_file(spec.run, spec.name, spec.polarity, config.depth if depth is None else depth)
        for spec in config.rankers
    }


def rank_sets_from_runs(
    runs: Mapping[str, Mapping[ItemId, ScoredRank]],
    ranker_names: tuple[str, ...],
    strict: bool = True,
) -> dict[ItemId, RankSet]:
    """Group per-ranker runs into one RankSet per query, by assemble_rank_set, in query order.

    In strict mode every ranker must cover every query; in lenient mode a
    query's rank set holds whichever ranks exist (queries with none are
    dropped).
    """
    index = CollectionRankIndex({name: runs.get(name, {}) for name in ranker_names})
    rank_sets = (assemble_rank_set(qid, index, ranker_names, strict) for qid in index.collection_items())
    return {rs.query: rs for rs in rank_sets if rs}
