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

Exit code semantics of run(): 0 all good, 1 a golden comparison failed
and nothing else, 2 the config or the golden file did not parse or
validate, an experiment needs a window longer than the limit, or a path
could not be read or written, 3 a *.bin file in cache_dir is malformed or
corrupt.  exit_code is the one map from an error to 2 or 3; the mfl
command and the scripts use it too.
Keys other than the ones above, params the experiment does not accept and
missing params it requires are refused, so a misspelled key cannot
silently change a run.

The window limit applies to the real window an experiment reads, which
starts at n = 1 and ends at N plus its reach (N + h for two_point, 2N + H
for short_interval): no window grows past experiments.WINDOW_LIMIT
(2**25 indices) unless allow_large is set, which raises it to a sixth of
the physical memory for the batch.  The check is made by the window store
when a window must grow, before anything is sieved, so a batch stops with
exit 2 at the first entry whose window would pass the limit; the reports
of the entries before it stay written.  A cache in cache_dir longer than
that limit exits 2 before any payload is read.

Values are typed as in JSON: output_dir is a string, cache_dir and
golden_file a string or null, allow_large true or false, n_grid a list of
integers >= 1 (not booleans), and name a plain file name (no path
separator, not "." or "..").  Integer params (h, H, k, shifts, exponents)
must be JSON integers, so 1.5 and true are refused rather than truncated;
number params (theta, theta_over_2pi, alpha, delta, poly terms) must be
finite numbers, not strings, booleans or null.  h, H, k >= 1,
0 < delta < 1, and squarefree_shifts shifts are a list of integers >= 1.
parse_config and run check the root and every entry before any cache is
loaded, any window sieved or any report written, so a bad value anywhere
in the batch exits 2 first, also in a RunConfig built by hand.

A golden file maps experiment names to expected indicator values:

    {"dav_gold": {"final_abs": 0.0123, "tol": 1e-4, "require_decreasing": true}}

final_abs is compared within tol; require_decreasing checks strict grid-wise
decay, require_endpoint_decay only compares the last magnitude against the
first, and max_final_abs is an absolute ceiling on the final magnitude.
It is checked as strictly as the config, before any cache is loaded: an
object of objects with only these five keys, finite numbers and booleans.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .cache import read_cache  # unused; kept for perfbench/spans.py, which wraps it by name
from .errors import CacheChecksumError, CacheFormatError, ConfigError, WindowLimitError
from . import experiments
from .experiments import DEFAULT_GRID, build_experiment, check_grid, load_caches, run_experiment

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


def _check_root(obj: dict) -> None:
    """ConfigError unless obj's experiments is a non-empty list and its other
    root keys have their types (see the module docstring)."""
    if not isinstance(obj.get("experiments"), list) or not obj["experiments"]:
        raise ConfigError("config needs a non-empty 'experiments' list")
    for key, kinds, what in (("allow_large", bool, "true or false"),
                             ("output_dir", str, "a string"),
                             ("cache_dir", (str, type(None)), "a string or null"),
                             ("golden_file", (str, type(None)), "a string or null")):
        if key in obj and not isinstance(obj[key], kinds):
            raise ConfigError(f"{key} must be {what}, got {obj[key]!r}")


def _check_specs(specs: list[ExperimentSpec]) -> None:
    """ConfigError unless each entry has a plain file name no other entry
    has, params that build (see build_experiment) and an n_grid that
    check_grid accepts."""
    seen: set[str] = set()
    for spec in specs:
        name = spec.name
        if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
            raise ConfigError(f"experiment name {name!r} must be a plain file name")
        if name in seen:
            raise ConfigError(f"duplicate experiment name {name!r}")
        seen.add(name)
        if not isinstance(spec.params, dict):
            raise ConfigError(f"params of {name!r} must be an object")
        try:
            build_experiment(spec.id, spec.params)
        except (ValueError, OverflowError) as exc:  # OverflowError: an integer too large for float
            raise ConfigError(f"experiment {name!r}: {exc}") from exc
        try:
            check_grid(spec.n_grid)
        except ValueError as exc:
            raise ConfigError(f"n_grid of {name!r}: {exc}") from exc


def parse_config(obj: dict) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig; raises ConfigError.

    The keys of the root and of each experiment entry are the fields of
    RunConfig and ExperimentSpec; any other key, any param the experiment
    does not accept and any it requires but lacks, is refused rather than
    ignored.  The root and every entry are checked here as run checks them
    (root types, names, params built by build_experiment, n_grid), so a bad
    value is refused before run touches a cache, a window or a report.
    """
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown_keys(obj, RunConfig, "the config root")
    _check_root(obj)
    specs: list[ExperimentSpec] = []
    for i, entry in enumerate(obj["experiments"]):
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError(f"experiment #{i} must be an object with an 'id'")
        _reject_unknown_keys(entry, ExperimentSpec, f"experiment #{i}")
        specs.append(ExperimentSpec(**{"name": entry["id"], **entry}))
    _check_specs(specs)
    # every key is now a RunConfig field of the right type; absent ones take its defaults
    return RunConfig(**{**obj, "experiments": specs})


def _read_json(path: str | Path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    return parse_config(_read_json(path, "config"))


_GOLDEN_KEYS = {"final_abs": float, "tol": float, "max_final_abs": float,
                "require_decreasing": bool, "require_endpoint_decay": bool}


def _load_goldens(path: str | Path) -> dict:
    """The golden file at path, checked as the module docstring says; ConfigError if not."""
    goldens = _read_json(path, "golden file")
    if not isinstance(goldens, dict) or not all(isinstance(g, dict) for g in goldens.values()):
        raise ConfigError("golden file must map experiment names to objects")
    for name, golden in goldens.items():
        for key, value in golden.items():
            kind = _GOLDEN_KEYS.get(key)
            if kind is None:
                raise ConfigError(f"unknown key {key!r} in golden {name!r}")
            if kind is bool and not isinstance(value, bool):
                raise ConfigError(f"golden {name!r}: {key} must be true or false, got {value!r}")
            if kind is float and (not isinstance(value, (int, float)) or isinstance(value, bool)
                                  or not math.isfinite(value)):
                raise ConfigError(f"golden {name!r}: {key} must be a finite number, got {value!r}")
    return goldens


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


def exit_code(exc: Exception) -> int:
    """Print the one-line message for an error that refused a run and
    return its exit code: EXIT_CACHE for a malformed or corrupt cache,
    EXIT_CONFIG for any other ValueError, OverflowError, OSError or
    MemoryError (an array larger than the machine grants)."""
    if isinstance(exc, (CacheFormatError, CacheChecksumError)):
        print(f"cache error: {exc}")
        return EXIT_CACHE
    print(f"{'config error' if isinstance(exc, ConfigError) else 'error'}: {exc}")
    return EXIT_CONFIG


def run(config: RunConfig) -> int:
    """Execute a batch: check the root and every entry (a RunConfig built
    by hand has not been through parse_config) and the golden file, then,
    under the limit allow_large sets, load the caches in cache_dir, write one
    report per experiment and compare goldens.  An error stops the batch with
    the code exit_code gives it, a window past the limit as a config error
    (see the module docstring).  Reports written before an error stay."""
    store, limit = experiments.WINDOWS, experiments.WINDOWS.limit  # swapped-in stores apply
    try:
        _check_root(vars(config))
        _check_specs(config.experiments)
        goldens = {} if config.golden_file is None else _load_goldens(config.golden_file)
        store.limit = max(limit, experiments.LARGE_LIMIT) if config.allow_large else limit
        if config.cache_dir is not None:
            load_caches(config.cache_dir)
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        failures: list[str] = []
        for spec in config.experiments:
            try:
                report = run_experiment(spec.id, spec.params, spec.n_grid)
            except WindowLimitError as exc:
                raise ConfigError(f"experiment {spec.name!r}: {exc}") from exc
            report.write(out_dir / f"{spec.name}.json")
            for problem in _compare_golden(report, goldens.get(spec.name, {})):
                failures.append(f"{spec.name}: {problem}")
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        return exit_code(exc)
    finally:
        store.limit = limit
    for line in failures:
        print(f"tolerance failure: {line}")
    return EXIT_TOLERANCE if failures else EXIT_OK
