"""Config parsing, golden comparison, and batch-run exit codes."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mflab.config import (
    EXIT_CACHE,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TOLERANCE,
    ExperimentSpec,
    RunConfig,
    exit_code,
    load_config,
    parse_config,
    run,
)
from mflab.cli import main
from mflab.errors import CacheChecksumError, CacheFormatError, ConfigError, WindowLimitError
import mflab.experiments as ex
from mflab.cache import write_cache
from mflab.experiments import WindowStore, run_experiment, sign_window, two_point_correlation
from mflab.sieve import SEGMENT, sieve


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
    # root and entry values of the wrong JSON type
    big = {**tp, "n_grid": [10**8]}
    with pytest.raises(ConfigError, match="allow_large"):
        parse_config({"experiments": [big], "allow_large": "false"})
    with pytest.raises(ConfigError, match="output_dir"):
        parse_config({"experiments": [tp], "output_dir": 5})
    with pytest.raises(ConfigError, match="cache_dir"):
        parse_config({"experiments": [tp], "cache_dir": False})
    with pytest.raises(ConfigError, match="golden_file"):
        parse_config({"experiments": [tp], "golden_file": ["goldens.json"]})
    with pytest.raises(ConfigError, match="n_grid"):
        parse_config({"experiments": [{**tp, "n_grid": [100, True]}]})
    with pytest.raises(ConfigError, match="'rotation'"):
        parse_config({"experiments": [{"id": "rotation", "params": {"alpha": 10**400}}]})
    # a report name cannot leave output_dir
    for name in ["../escaped", "sub/tp", ".", "..", "", 7]:
        with pytest.raises(ConfigError, match="plain file name"):
            parse_config({"experiments": [{**tp, "name": name}]})


def _assert_gated(entry, tmp_path, capsys, sieve_calls):
    """The entry exits 2 naming allow_large, through config.run on a RunConfig
    built by hand and through mfl experiment --config, with no sieve pass and
    no report."""
    out = tmp_path / "out"
    spec = ExperimentSpec(entry["id"], "big", entry["params"], entry["n_grid"])
    assert run(RunConfig([spec], output_dir=str(out))) == EXIT_CONFIG
    config = _write_json(tmp_path / "big.json", {
        "experiments": [{**entry, "name": "big"}], "output_dir": str(out)})
    assert main(["experiment", "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().out.count("allow_large") == 2
    assert sieve_calls == []
    assert not (out / "big.json").exists()


def test_large_n_grid_is_gated(tmp_path, capsys, fresh_windows, sieve_calls):
    entry = {"id": "two_point", "params": {"h": 1}, "n_grid": [10**8]}
    _assert_gated(entry, tmp_path, capsys, sieve_calls)


@pytest.mark.parametrize("entry", [
    {"id": "two_point", "params": {"h": 10**9}},
    {"id": "small_fraction", "params": {"H": 10**8, "delta": 0.5}},
    {"id": "short_interval", "params": {"H": 10**8}},
    {"id": "window_energy", "params": {"k": 10**4, "h": 10**4}},
    {"id": "squarefree_shifts", "params": {"shifts": [1, 10**8]}},
    {"id": "pattern", "params": {"shifts": [0, 10**8], "exponents": [1, 1]}},
])
def test_params_that_widen_the_window_are_gated(entry, tmp_path, capsys, fresh_windows,
                                                sieve_calls):
    # n_grid [100] is small, but each entry's window ends past WINDOW_LIMIT
    _assert_gated({**entry, "n_grid": [100]}, tmp_path, capsys, sieve_calls)


def test_batch_stops_at_the_first_window_past_the_limit(tmp_path, capsys, fresh_windows):
    cfg = RunConfig(
        experiments=[ExperimentSpec("two_point", "tp", {"h": 1}, [100]),
                     ExperimentSpec("two_point", "big", {"h": 10**9}, [100]),
                     ExperimentSpec("two_point", "after", {"h": 2}, [100])],
        output_dir=str(tmp_path / "out"),
    )
    assert run(cfg) == EXIT_CONFIG
    assert "config error: experiment 'big'" in capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["tp.json"]


def test_allow_large_raises_the_limit_for_its_batch_only(tmp_path, monkeypatch, sieve_calls):
    store = WindowStore(limit=SEGMENT)
    monkeypatch.setattr(ex, "WINDOWS", store)
    # h = 1 at N = SEGMENT reads SEGMENT + 1 indices, one past the limit
    cfg = RunConfig(experiments=[ExperimentSpec("two_point", "tp", {"h": 1}, [SEGMENT])],
                    output_dir=str(tmp_path / "out"))
    assert run(cfg) == EXIT_CONFIG
    assert sieve_calls == []
    cfg.allow_large = True
    assert run(cfg) == EXIT_OK
    assert store.limit == SEGMENT
    report = json.loads((tmp_path / "out" / "tp.json").read_text())
    lam = sign_window("liouville", SEGMENT + 1)
    expected = abs(int(np.sum(lam[:-1] * lam[1:], dtype=np.int64))) / SEGMENT
    assert report["grid"][0]["value_re"] == expected

    # restored also when the experiment raises; the raised limit was in force
    seen = []

    def failing(h, X):
        seen.append(ex.WINDOWS.limit)
        raise RuntimeError("experiment failed")

    monkeypatch.setattr(ex, "two_point_correlation", failing)
    with pytest.raises(RuntimeError):
        run(cfg)
    assert seen[0] > SEGMENT and store.limit == SEGMENT

    # and when a corrupt cache stops the batch before any experiment
    cache_dir = tmp_path / "caches"
    cache_dir.mkdir()
    write_cache(cache_dir / "mobius.bin", sieve("mobius", 1, 2048))
    blob = bytearray((cache_dir / "mobius.bin").read_bytes())
    blob[-10] ^= 0xFF
    (cache_dir / "mobius.bin").write_bytes(bytes(blob))
    cfg.cache_dir = str(cache_dir)
    assert run(cfg) == EXIT_CACHE
    assert len(seen) == 1 and store.limit == SEGMENT


@pytest.mark.parametrize("field, value", [
    ("output_dir", None), ("cache_dir", 123), ("golden_file", 5), ("allow_large", "false"),
])
def test_run_checks_the_root_fields_of_a_hand_built_config(field, value, tmp_path, monkeypatch,
                                                           fresh_windows, sieve_calls, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = RunConfig(experiments=[ExperimentSpec("two_point", "tp", {"h": 1}, [100])])
    setattr(cfg, field, value)
    assert run(cfg) == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("config error:") and field in out
    assert sieve_calls == []
    assert list(tmp_path.iterdir()) == []


def test_run_maps_memory_error_to_config_exit(tmp_path, monkeypatch, capsys):
    def refuse(h, X):
        raise MemoryError("Unable to allocate 90.9 TiB")

    monkeypatch.setattr(ex, "two_point_correlation", refuse)
    cfg = RunConfig(experiments=[ExperimentSpec("two_point", "tp", {"h": 1}, [100])],
                    output_dir=str(tmp_path / "out"))
    assert run(cfg) == EXIT_CONFIG
    assert capsys.readouterr().out == "error: Unable to allocate 90.9 TiB\n"
    assert not (tmp_path / "out" / "tp.json").exists()


def test_checked_in_batches_parse_without_allow_large():
    load_config(Path(__file__).resolve().parent.parent / "configs" / "decay_battery.json")
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    cfg = parse_config({"experiments": inputs.lab_experiments(0, 0)})
    assert len(cfg.experiments) == len(inputs.lab_experiments(0, 0))


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


@pytest.mark.parametrize("golden", [
    ["tp"],                                     # a list, not an object
    {"tp": [0.5]},                              # an entry that is not an object
    {"tp": {"final_ab": 123.0, "tol": 0.0}},    # a misspelled key
    {"tp": {"final_abs": "0.5"}},
    {"tp": {"tol": True}},
    {"tp": {"max_final_abs": float("nan")}},
    {"tp": {"require_decreasing": 1}},
])
def test_malformed_golden_file_exits_two_before_any_window(golden, tmp_path, fresh_windows,
                                                           sieve_calls, capsys):
    config = _write_json(tmp_path / "cfg.json", {
        "experiments": [{"id": "two_point", "name": "tp", "params": {"h": 1}, "n_grid": [100]}],
        "output_dir": str(tmp_path / "out"),
        "golden_file": str(_write_json(tmp_path / "golden.json", golden))})
    assert main(["experiment", "--config", str(config)]) == EXIT_CONFIG
    printed = capsys.readouterr().out
    assert printed.startswith("config error:") and printed.count("\n") == 1
    assert sieve_calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("exc, code, line", [
    (CacheFormatError("bad header"), EXIT_CACHE, "cache error: bad header"),
    (CacheChecksumError("bad crc"), EXIT_CACHE, "cache error: bad crc"),
    (ConfigError("bad key"), EXIT_CONFIG, "config error: bad key"),
    (WindowLimitError("too long"), EXIT_CONFIG, "error: too long"),
    (ValueError("bad value"), EXIT_CONFIG, "error: bad value"),
    (OverflowError("too big"), EXIT_CONFIG, "error: too big"),
    (NotADirectoryError("not a dir"), EXIT_CONFIG, "error: not a dir"),
    (MemoryError("Unable to allocate 90.9 TiB"), EXIT_CONFIG, "error: Unable to allocate 90.9 TiB"),
])
def test_exit_code_maps_each_error_family(exc, code, line, capsys):
    assert exit_code(exc) == code
    assert capsys.readouterr().out == line + "\n"


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


def test_run_refuses_missing_cache_dir(tmp_path, fresh_windows, sieve_calls, capsys):
    cfg = RunConfig(
        experiments=[ExperimentSpec("two_point", "tp", {"h": 1}, [1000])],
        output_dir=str(tmp_path / "out"),
        cache_dir=str(tmp_path / "no_such_dir"),
    )
    assert run(cfg) == EXIT_CACHE
    assert "cache error" in capsys.readouterr().out
    # refused before anything is sieved or written
    assert sieve_calls == []
    assert not (tmp_path / "out").exists()


def test_run_refuses_unusable_cache_dir(tmp_path, unusable_cache_dir, fresh_windows,
                                        sieve_calls, capsys):
    cache_dir, named = unusable_cache_dir
    cfg = RunConfig(
        experiments=[ExperimentSpec("two_point", "tp", {"h": 1}, [1000])],
        output_dir=str(tmp_path / "out"),
        cache_dir=str(cache_dir),
    )
    assert run(cfg) == EXIT_CACHE
    out = capsys.readouterr().out
    assert "cache error" in out and named in out
    assert sieve_calls == []
    assert not (tmp_path / "out").exists()
    # the valid mobius.bin beside the refused file was not adopted either
    sign_window("mobius", 100)
    assert [call[0] for call in sieve_calls] == ["mobius"]


def test_run_refuses_a_cache_past_the_window_limit(tmp_path, monkeypatch, sieve_calls, capsys):
    from mflab.cache import read_cache, write_cache
    from mflab.sieve import sieve

    store = WindowStore(limit=SEGMENT)
    monkeypatch.setattr(ex, "WINDOWS", store)
    cache_dir = tmp_path / "caches"
    cache_dir.mkdir()
    write_cache(cache_dir / "mobius.bin", sieve("mobius", 1, SEGMENT + 2))

    def no_read(path):
        raise AssertionError(f"read the payload of {path}")

    monkeypatch.setattr(ex, "read_cache", no_read)
    cfg = RunConfig(
        experiments=[ExperimentSpec("mobius_exponential", "me", {"theta_over_2pi": 0.25}, [1000])],
        output_dir=str(tmp_path / "out"),
        cache_dir=str(cache_dir),
    )
    assert run(cfg) == EXIT_CONFIG
    out = capsys.readouterr().out
    assert "mobius.bin" in out and f"{SEGMENT + 1} values passes the limit of {SEGMENT}" in out
    assert sieve_calls == []
    assert not (tmp_path / "out").exists()
    assert store.limit == SEGMENT

    # under allow_large the batch loads the cache under the raised limit
    monkeypatch.setattr(ex, "read_cache", read_cache)
    cfg.allow_large = True
    assert run(cfg) == EXIT_OK
    assert store.limit == SEGMENT
    assert np.array_equal(store.get("mobius", SEGMENT + 1), sieve("mobius", 1, SEGMENT + 2).values)
    assert sieve_calls == []


@pytest.mark.parametrize("name, grid", [
    ("../escaped", [100]), ("sub/tp", [100]), ("tp", [0]), ("tp", [100, True]), ("tp", [1.5]),
    ("tp", []), ("tp", 100),
])
def test_run_checks_names_and_grids_of_a_hand_built_config(name, grid, tmp_path, fresh_windows,
                                                           sieve_calls, capsys):
    out = tmp_path / "out"
    cfg = RunConfig(experiments=[ExperimentSpec("two_point", name, {"h": 1}, grid)],
                    output_dir=str(out))
    assert run(cfg) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().out
    assert sieve_calls == []
    assert not out.exists() and not (tmp_path / "escaped.json").exists()


def test_run_checks_every_spec_before_any_work(tmp_path, fresh_windows, sieve_calls, capsys):
    # a RunConfig built by hand, so parse_config never saw the bad second entry
    cfg = RunConfig(
        experiments=[ExperimentSpec("two_point", "tp", {"h": 1}, [100]),
                     ExperimentSpec("two_point", "bad", {"h": 1.5}, [100])],
        output_dir=str(tmp_path / "out"),
        cache_dir=str(tmp_path / "no_such_dir"),
    )
    assert run(cfg) == EXIT_CONFIG
    assert "config error: experiment 'bad'" in capsys.readouterr().out
    assert sieve_calls == []
    assert not (tmp_path / "out").exists()


def _run_script(name, monkeypatch, *args):
    """Run scripts/<name> by path in this process with args as its command line; its exit code."""
    script = Path(__file__).resolve().parent.parent / "scripts" / name
    spec = importlib.util.spec_from_file_location(Path(name).stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *args])
    return module.main()


def _freeze_with_cache_dir(tmp_path, monkeypatch, cache_dir):
    """Run scripts/freeze_goldens.py on a one-entry battery; (exit code, its --out path)."""
    config = tmp_path / "battery.json"
    config.write_text(json.dumps({
        "experiments": [{"id": "two_point", "name": "tp", "params": {"h": 1}, "n_grid": [100]}],
        "cache_dir": str(cache_dir),
    }))
    out = tmp_path / "goldens.json"
    return _run_script("freeze_goldens.py", monkeypatch, "--config", str(config),
                       "--out", str(out)), out


@pytest.mark.parametrize("script", ["decay_battery.py", "freeze_goldens.py"])
def test_scripts_exit_two_on_config_error(script, tmp_path, monkeypatch, capsys, sieve_calls):
    config = _write_json(tmp_path / "battery.json", {
        "experiments": [{"id": "two_point", "params": {"h": 1}, "n_grid": [100]}],
        "alow_large": True})
    out = tmp_path / "out"
    code = _run_script(script, monkeypatch, "--config", str(config), "--out", str(out))
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().out
    assert sieve_calls == []
    assert not out.exists()


@pytest.mark.parametrize("script", ["decay_battery.py", "freeze_goldens.py"])
def test_scripts_exit_two_on_a_window_past_the_limit(script, tmp_path, monkeypatch, capsys,
                                                     fresh_windows, sieve_calls):
    config = _write_json(tmp_path / "battery.json", {
        "experiments": [{"id": "two_point", "params": {"h": 10**9}, "n_grid": [100]}]})
    out = tmp_path / "out"
    code = _run_script(script, monkeypatch, "--config", str(config), "--out", str(out))
    assert code == EXIT_CONFIG
    assert "allow_large" in capsys.readouterr().out
    assert sieve_calls == []
    assert not out.is_file() and list(out.glob("*")) == []


@pytest.mark.parametrize("script", ["decay_battery.py", "freeze_goldens.py"])
def test_scripts_exit_two_on_an_unwritable_out(script, tmp_path, monkeypatch, capsys):
    config = _write_json(tmp_path / "battery.json", {
        "experiments": [{"id": "two_point", "params": {"h": 1}, "n_grid": [100]}]})
    (tmp_path / "f").write_text("")
    # no one, root included, can create a path under a regular file
    code = _run_script(script, monkeypatch, "--config", str(config),
                       "--out", str(tmp_path / "f" / "out"))
    assert code == EXIT_CONFIG
    errors = [line for line in capsys.readouterr().out.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("error:") and "Not a directory" in errors[0]


def test_freeze_goldens_writes_goldens_from_a_batch_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = _write_json(tmp_path / "battery.json", {
        "experiments": [{"id": "two_point", "name": "tp", "params": {"h": 1},
                         "n_grid": [1000, 2000]}]})
    out = tmp_path / "goldens.json"
    code = _run_script("freeze_goldens.py", monkeypatch, "--config", str(config),
                       "--out", str(out))
    assert code == EXIT_OK
    final = abs(two_point_correlation(1, 2000))
    endpoint = final <= abs(two_point_correlation(1, 1000))
    assert json.loads(out.read_text()) == {"tp": {
        "final_abs": final, "tol": 0.0, "max_final_abs": 0.05, "require_endpoint_decay": True}}
    assert capsys.readouterr().out.splitlines() == [
        f"tp: final_abs={final!r} endpoint_decay={endpoint}", f"wrote {out}"]
    # the reports went to a temporary directory, not to the config's output_dir
    assert sorted(p.name for p in tmp_path.iterdir()) == ["battery.json", "goldens.json"]


def test_freeze_goldens_refuses_missing_cache_dir(tmp_path, monkeypatch, capsys, sieve_calls):
    code, out = _freeze_with_cache_dir(tmp_path, monkeypatch, tmp_path / "no_such_dir")
    assert code == EXIT_CACHE
    assert "cache error" in capsys.readouterr().out
    assert sieve_calls == []
    assert not out.exists()


def test_freeze_goldens_refuses_unusable_cache_dir(tmp_path, monkeypatch, capsys, fresh_windows,
                                                   sieve_calls, unusable_cache_dir):
    cache_dir, named = unusable_cache_dir
    code, out = _freeze_with_cache_dir(tmp_path, monkeypatch, cache_dir)
    assert code == EXIT_CACHE
    printed = capsys.readouterr().out
    assert "cache error" in printed and named in printed
    assert sieve_calls == []
    assert not out.exists()


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
