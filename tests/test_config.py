"""Config parsing, golden comparison, and batch-run exit codes."""

import json

import numpy as np
import pytest

from mflab.config import (
    EXIT_CACHE,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TOLERANCE,
    ExperimentSpec,
    RunConfig,
    load_config,
    parse_config,
    run,
)
from mflab.errors import ConfigError
import mflab.experiments as ex
from mflab.experiments import run_experiment, sign_window, two_point_correlation


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return path


def test_parse_minimal_config():
    cfg = parse_config({"experiments": [{"id": "two_point", "params": {"h": 1}}]})
    assert cfg.experiments[0].name == "two_point"
    assert cfg.output_dir == "reports"


def test_parse_config_rejections():
    with pytest.raises(ConfigError):
        parse_config([])
    with pytest.raises(ConfigError):
        parse_config({"experiments": []})
    with pytest.raises(ConfigError):
        parse_config({"experiments": [{"id": "mertens"}]})
    with pytest.raises(ConfigError):
        parse_config({"experiments": [
            {"id": "two_point", "name": "a", "params": {"h": 1}},
            {"id": "two_point", "name": "a", "params": {"h": 2}},
        ]})
    with pytest.raises(ConfigError):
        parse_config({"experiments": [{"id": "two_point", "params": {"h": 1}, "n_grid": [0]}]})
    # keys and params nothing reads are refused, naming the key
    tp = {"id": "two_point", "params": {"h": 1}}
    with pytest.raises(ConfigError, match="'alow_large'"):
        parse_config({"experiments": [tp], "alow_large": True})
    with pytest.raises(ConfigError, match="'n_gird'"):
        parse_config({"experiments": [{**tp, "n_gird": [5]}]})
    with pytest.raises(ConfigError, match="'workers'"):
        parse_config({"experiments": [tp], "workers": 2})
    with pytest.raises(ConfigError, match="'theta_over_2pl'"):
        parse_config({"experiments": [
            {"id": "mobius_exponential", "params": {"theta_over_2pl": 0.618}}]})
    with pytest.raises(ConfigError, match="'theta'"):
        parse_config({"experiments": [{"id": "two_point", "params": {"h": 1, "theta": 0.5}}]})
    with pytest.raises(ConfigError, match="not both"):
        parse_config({"experiments": [
            {"id": "mobius_exponential", "params": {"theta": 1.0, "theta_over_2pi": 0.5}}]})
    # a required param that is missing, with or without a params object
    with pytest.raises(ConfigError, match="needs param 'h'"):
        parse_config({"experiments": [{"id": "two_point"}]})
    with pytest.raises(ConfigError, match="needs param 'alpha'"):
        parse_config({"experiments": [{"id": "rotation", "params": {"poly": []}}]})


def test_parse_config_large_n_gate():
    entry = {"id": "two_point", "params": {"h": 1}, "n_grid": [10**8]}
    with pytest.raises(ConfigError):
        parse_config({"experiments": [entry]})
    cfg = parse_config({"experiments": [entry], "allow_large": True})
    assert cfg.experiments[0].n_grid == [10**8]


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = _write_json(tmp_path / "bad.json", None)
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_run_happy_path_with_goldens(tmp_path):
    expected = two_point_correlation(1, 2000)
    golden = _write_json(tmp_path / "golden.json", {
        "tp": {"final_abs": expected, "tol": 0.0,
               "max_final_abs": 1.0}})
    cfg = RunConfig(
        experiments=[ExperimentSpec("two_point", "tp", {"h": 1}, [1000, 2000])],
        output_dir=str(tmp_path / "out"),
        golden_file=str(golden),
    )
    assert run(cfg) == EXIT_OK
    report = json.loads((tmp_path / "out" / "tp.json").read_text())
    assert report["indicators"]["final_abs"] == expected


def test_run_flags_tolerance_failure(tmp_path, capsys):
    golden = _write_json(tmp_path / "golden.json", {
        "tp": {"final_abs": 0.5, "tol": 1e-6}})
    cfg = RunConfig(
        experiments=[ExperimentSpec("two_point", "tp", {"h": 1}, [1000])],
        output_dir=str(tmp_path / "out"),
        golden_file=str(golden),
    )
    assert run(cfg) == EXIT_TOLERANCE
    assert "tolerance failure" in capsys.readouterr().out


def test_run_flags_endpoint_decay(tmp_path):
    # two-point magnitudes rise from N=1e5 to 1e6, so demanding endpoint
    # decay on that prefix of the grid must fail
    golden = _write_json(tmp_path / "golden.json", {
        "tp": {"require_endpoint_decay": True}})
    cfg = RunConfig(
        experiments=[ExperimentSpec("two_point", "tp", {"h": 1},
                                    [10**5, 10**6])],
        output_dir=str(tmp_path / "out"),
        golden_file=str(golden),
    )
    assert run(cfg) == EXIT_TOLERANCE


def test_run_missing_golden_file_is_config_error(tmp_path):
    cfg = RunConfig(
        experiments=[ExperimentSpec("two_point", "tp", {"h": 1}, [1000])],
        output_dir=str(tmp_path / "out"),
        golden_file=str(tmp_path / "absent.json"),
    )
    assert run(cfg) == EXIT_CONFIG


def test_run_detects_corrupt_cache(tmp_path):
    from mflab.cache import write_cache
    from mflab.sieve import sieve

    cache_dir = tmp_path / "caches"
    cache_dir.mkdir()
    path = cache_dir / "mobius.bin"
    write_cache(path, sieve("mobius", 1, 2048))
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0xFF
    path.write_bytes(bytes(blob))
    cfg = RunConfig(
        experiments=[ExperimentSpec("two_point", "tp", {"h": 1}, [1000])],
        output_dir=str(tmp_path / "out"),
        cache_dir=str(cache_dir),
    )
    assert run(cfg) == EXIT_CACHE


def test_run_seeds_windows_from_cache(tmp_path, fresh_windows, sieve_calls, monkeypatch):
    from mflab.cache import write_cache
    from mflab.sieve import LABELS, sieve

    cache_dir = tmp_path / "caches"
    cache_dir.mkdir()
    for label in LABELS:
        write_cache(cache_dir / f"{label}.bin", sieve(label, 1, 3001))
    cfg = RunConfig(
        experiments=[ExperimentSpec("two_point", "tp", {"h": 1}, [1000, 2999])],
        output_dir=str(tmp_path / "out"),
        cache_dir=str(cache_dir),
    )
    assert run(cfg) == EXIT_OK

    def no_read(path):
        raise AssertionError(f"{path} read again after the batch preloaded it")

    monkeypatch.setattr(ex, "read_cache", no_read)
    for label in LABELS:
        assert np.array_equal(sign_window(label, 3000), sieve(label, 1, 3001).values)
    assert sieve_calls == []


def test_run_without_goldens_is_ok(tmp_path):
    cfg = RunConfig(
        experiments=[ExperimentSpec("short_interval", "si", {"H": 5}, [1000])],
        output_dir=str(tmp_path / "out"),
    )
    assert run(cfg) == EXIT_OK
    assert (tmp_path / "out" / "si.json").exists()
