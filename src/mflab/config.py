"""Declarative batch runs: one JSON config in, one report file per experiment.

Config schema (all paths relative to the invoking directory):

    {
      "experiments": [
        {"id": "mobius_exponential", "name": "dav_gold",
         "params": {"theta_over_2pi": 0.618...}, "n_grid": [100000, 1000000]}
      ],
      "output_dir": "reports",
      "cache_dir": null,
      "allow_large": false,
      "golden_file": "goldens/decay_battery.json"
    }

Exit code semantics of run(): 0 all good, 1 a golden comparison failed,
2 the config did not parse or validate, 3 a *.bin file in cache_dir is
malformed or corrupt.  Window lengths above 1e7 are refused unless
allow_large is set.  Keys other than the ones above, params the experiment
does not accept and missing params it requires are refused too, so a
misspelled key cannot silently change a run.

A golden file maps experiment names to expected indicator values:

    {"dav_gold": {"final_abs": 0.0123, "tol": 1e-4, "require_decreasing": true}}

final_abs is compared within tol; require_decreasing checks strict grid-wise
decay, require_endpoint_decay only compares the last magnitude against the
first, and max_final_abs is an absolute ceiling on the final magnitude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .cache import read_cache  # unused; kept for perfbench/spans.py, which wraps it by name
from .errors import CacheChecksumError, CacheFormatError, ConfigError
from .experiments import (
    DEFAULT_GRID,
    LARGE_N_LIMIT,
    check_params,
    load_caches,
    run_experiment,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_CACHE = 3


@dataclass
class ExperimentSpec:
    id: str
    name: str
    params: dict = field(default_factory=dict)
    n_grid: list[int] = field(default_factory=lambda: list(DEFAULT_GRID))


@dataclass
class RunConfig:
    experiments: list[ExperimentSpec]
    output_dir: str = "reports"
    cache_dir: str | None = None
    allow_large: bool = False
    golden_file: str | None = None


def _reject_unknown_keys(obj: dict, known: type, where: str) -> None:
    unknown = sorted(set(obj) - {f.name for f in fields(known)})
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} in {where}")


def parse_config(obj: dict) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig; raises ConfigError.

    The keys of the root and of each experiment entry are the fields of
    RunConfig and ExperimentSpec; any other key, any param the experiment
    does not accept and any it requires but lacks, is refused rather than
    ignored.
    """
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown_keys(obj, RunConfig, "the config root")
    raw = obj.get("experiments")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config needs a non-empty 'experiments' list")
    allow_large = bool(obj.get("allow_large", False))
    specs: list[ExperimentSpec] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError(f"experiment #{i} must be an object with an 'id'")
        exp_id = entry["id"]
        _reject_unknown_keys(entry, ExperimentSpec, f"experiment #{i}")
        name = str(entry.get("name", exp_id))
        if name in seen:
            raise ConfigError(f"duplicate experiment name {name!r}")
        seen.add(name)
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"params of {name!r} must be an object")
        try:
            check_params(exp_id, params)
        except ValueError as exc:
            raise ConfigError(f"experiment {name!r}: {exc}") from exc
        grid = entry.get("n_grid", list(DEFAULT_GRID))
        if (not isinstance(grid, list) or not grid
                or not all(isinstance(n, int) and n >= 1 for n in grid)):
            raise ConfigError(f"n_grid of {name!r} must be a list of positive integers")
        if max(grid) > LARGE_N_LIMIT and not allow_large:
            raise ConfigError(
                f"n_grid of {name!r} exceeds {LARGE_N_LIMIT}; set allow_large to opt in")
        specs.append(ExperimentSpec(exp_id, name, params, sorted(grid)))
    return RunConfig(
        experiments=specs,
        output_dir=str(obj.get("output_dir", "reports")),
        cache_dir=obj.get("cache_dir"),
        allow_large=allow_large,
        golden_file=obj.get("golden_file"),
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(obj)


def _compare_golden(report, golden: dict) -> list[str]:
    failures = []
    expected = golden.get("final_abs")
    tol = golden.get("tol", 0.0)
    if expected is not None:
        got = report.indicators["final_abs"]
        if abs(got - expected) > tol:
            failures.append(
                f"final_abs {got!r} differs from golden {expected!r} beyond tol {tol!r}")
    if golden.get("require_decreasing") and not report.indicators["decreasing_abs"]:
        failures.append("|value| is not non-increasing along the N grid")
    if golden.get("require_endpoint_decay") and not report.indicators["endpoint_decay"]:
        failures.append("|value| at the last N exceeds |value| at the first N")
    ceiling = golden.get("max_final_abs")
    if ceiling is not None and report.indicators["final_abs"] > ceiling:
        failures.append(f"final_abs {report.indicators['final_abs']!r} above {ceiling!r}")
    return failures


def run(config: RunConfig) -> int:
    """Execute a batch: load every cache in cache_dir first (EXIT_CACHE if
    one is bad), then write one report per experiment and compare goldens."""
    try:
        if config.cache_dir is not None:
            load_caches(config.cache_dir)
    except (CacheFormatError, CacheChecksumError) as exc:
        print(f"cache error: {exc}")
        return EXIT_CACHE

    goldens = {}
    if config.golden_file is not None:
        try:
            goldens = json.loads(Path(config.golden_file).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: cannot read golden file: {exc}")
            return EXIT_CONFIG

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    for spec in config.experiments:
        report = run_experiment(spec.id, spec.params, spec.n_grid)
        report.write(out_dir / f"{spec.name}.json")
        for problem in _compare_golden(report, goldens.get(spec.name, {})):
            failures.append(f"{spec.name}: {problem}")
    for line in failures:
        print(f"tolerance failure: {line}")
    return EXIT_TOLERANCE if failures else EXIT_OK
