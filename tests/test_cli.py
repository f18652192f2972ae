"""Command line behavior: outputs, env overrides, and exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mflab
import mflab.experiments as ex
from mflab.cache import read_cache, write_cache
from mflab.cli import main
from mflab.config import EXIT_CACHE, EXIT_CONFIG
from mflab.experiments import WindowStore
from mflab.measures import TorusMeasure, write_json
from mflab.sieve import LABELS, sieve


def test_sieve_roundtrip(tmp_path, capsys):
    out = tmp_path / "mu.bin"
    code = main(["sieve", "--label", "mobius", "--lo", "1", "--hi", "20000",
                 "--out", str(out)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    back = read_cache(out)
    assert back.label == "mobius"
    assert np.array_equal(back.values, sieve("mobius", 1, 20000).values)


def test_cache_verify_good_and_corrupt(tmp_path, capsys):
    out = tmp_path / "lam.bin"
    assert main(["sieve", "--label", "liouville", "--lo", "1", "--hi", "4096",
                 "--out", str(out)]) == 0
    assert main(["cache-verify", str(out)]) == 0
    assert "valid" in capsys.readouterr().out

    blob = bytearray(out.read_bytes())
    blob[30] ^= 0x10
    out.write_bytes(bytes(blob))
    assert main(["cache-verify", str(out)]) == 3
    assert "corrupt" in capsys.readouterr().out
    assert main(["cache-verify", str(tmp_path / "absent.bin")]) == 3


def test_correlate_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["correlate", "--label", "liouville", "--n", "5000",
                 "--kmax", "4", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "re", "im"]
    assert len(rows) == 6
    assert float(rows[1][1]) == 1.0  # lag zero of a +/-1 sequence


def test_spectrum_json(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--label", "mobius", "--n", "2048",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["bins"] >= 4096
    assert len(data["density"]) == data["bins"]
    assert data["atoms"] == []


def test_affinity_command(tmp_path, capsys):
    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    write_json(TorusMeasure.uniform(64), lhs)
    write_json(TorusMeasure.from_atoms([(1.0, 1.0)], bins=64), rhs)
    assert main(["affinity", "--lhs", str(lhs), "--rhs", str(rhs)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "affinity 0.0"
    assert lines[1].startswith("hellinger 1.414213562")


@pytest.mark.parametrize("measure", [{"density": [0.1, 0.2]},
                                     {"bins": 2, "density": [0.1, 0.2], "atoms": [{"pos": 1.0}]},
                                     [0.1, 0.2],
                                     {"bins": 2, "density": [float("nan"), 0.1]}])
def test_affinity_on_a_malformed_measure_file_exits_two(measure, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(measure))
    good = tmp_path / "good.json"
    write_json(TorusMeasure.uniform(2), good)
    assert main(["affinity", "--lhs", str(good), "--rhs", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 and out.startswith("error: ") and str(bad) in out
    assert "Traceback" not in out + err


def test_admissible_command(capsys):
    assert main(["admissible", "--set", "0,1,2"]) == 0
    assert capsys.readouterr().out.strip() == "admissible"
    assert main(["admissible", "--set", "0,1,2,3"]) == 0
    assert capsys.readouterr().out.strip() == "inadmissible"


def test_mirsky_command(capsys):
    assert main(["mirsky", "--ones", "0", "--n", "100000"]) == 0
    out = capsys.readouterr().out
    assert "product_estimate" in out and "empirical" in out
    assert "tail_lower_bound" in out


def test_experiment_single_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["experiment", "--id", "two_point", "--param", "h=1",
                 "--n-grid", "1000,2000", "--out", str(out)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads(out.read_text())
    printed.pop("runtime_ms"), stored.pop("runtime_ms")
    assert printed == stored
    assert [row["N"] for row in stored["grid"]] == [1000, 2000]


def test_experiment_theta_params(capsys):
    code = main(["experiment", "--id", "mobius_exponential",
                 "--param", "theta_over_2pi=0.25", "--n-grid", "1000"])
    assert code == 0
    turns = json.loads(capsys.readouterr().out)
    assert turns["params"] == {"theta_over_2pi": 0.25}
    assert main(["experiment", "--id", "mobius_exponential",
                 "--param", f"theta={math.pi / 2!r}", "--n-grid", "1000"]) == 0
    radians = json.loads(capsys.readouterr().out)
    assert turns["grid"] == radians["grid"]
    # the angle flags are gone: --param is the one way to pass an angle
    for flag in ("--theta", "--theta-over-2pi"):
        assert main(["experiment", "--id", "mobius_exponential", flag, "0.25",
                     "--n-grid", "1000"]) == 2


def test_experiment_rejects_unknown_param(capsys):
    assert main(["experiment", "--id", "mobius_exponential",
                 "--param", "theta_over_2pl=0.618", "--n-grid", "1000"]) == 2
    assert "'theta_over_2pl'" in capsys.readouterr().out
    assert main(["experiment", "--id", "mobius_exponential", "--param", "theta=1.0",
                 "--param", "theta_over_2pi=0.5", "--n-grid", "1000"]) == 2
    capsys.readouterr()
    assert main(["experiment", "--id", "two_point", "--n-grid", "100"]) == 2
    assert "needs param 'h'" in capsys.readouterr().out


def test_experiment_refuses_an_empty_grid(capsys, sieve_calls):
    # only an absent --n-grid selects the default grid
    assert main(["experiment", "--id", "two_point", "--param", "h=1", "--n-grid", ""]) == 2
    assert "'grid'" in capsys.readouterr().out
    assert sieve_calls == []


def test_experiment_needs_exactly_one_mode(tmp_path, capsys):
    assert main(["experiment"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert main(["experiment", "--config", str(cfg), "--id", "two_point"]) == 2


@pytest.mark.parametrize("extra", [["--n-grid", "5000"], ["--param", "h=3"],
                                   ["--out", "o.json"], ["--n-grid", ""]])
def test_experiment_config_refuses_single_run_flags(extra, tmp_path, capsys, sieve_calls,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {"experiments": [{"id": "two_point", "name": "tp", "params": {"h": 1},
                            "n_grid": [100]}],
           "output_dir": str(tmp_path / "reports")}
    path = tmp_path / "battery.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path), *extra]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and extra[0] in lines[0]
    assert sieve_calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["battery.json"]


def test_experiment_config_batch(tmp_path, capsys):
    cfg = {
        "experiments": [
            {"id": "two_point", "name": "tp", "params": {"h": 1},
             "n_grid": [1000, 4000]}
        ],
        "output_dir": str(tmp_path / "reports"),
    }
    path = tmp_path / "battery.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path)]) == 0
    assert (tmp_path / "reports" / "tp.json").exists()


def test_experiment_config_golden_failure(tmp_path, capsys):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"tp": {"final_abs": 0.25, "tol": 1e-9}}))
    cfg = {
        "experiments": [
            {"id": "two_point", "name": "tp", "params": {"h": 1}, "n_grid": [1000]}
        ],
        "output_dir": str(tmp_path / "reports"),
        "golden_file": str(golden),
    }
    path = tmp_path / "battery.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path)]) == 1


def test_experiment_bad_config_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["experiment", "--config", str(path)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["experiment", "--config", str(missing)]) == 2


# Each stopped a batch after its first report (the first seven with exit 2,
# the next four with a TypeError traceback) or ran with a truncated or coerced
# value (the last four).
BAD_ENTRIES = [
    {"id": "rotation", "params": {"alpha": 1.0, "poly": [{"freq": 1.0, "rel": 2.0}]}},
    {"id": "pattern", "params": {"shifts": [0, 0], "exponents": [1, 1]}},
    {"id": "pattern", "params": {"shifts": [0, 1], "exponents": [2, 2]}},
    {"id": "pattern", "params": {"shifts": [0, 1], "exponents": [1, 1], "label": "mobuis"}},
    {"id": "two_point", "params": {"h": 0}},
    {"id": "two_point", "params": {"h": "x"}},
    {"id": "small_fraction", "params": {"H": 8, "delta": 2}},
    {"id": "two_point", "params": {"h": None}},
    {"id": "squarefree_shifts", "params": {"shifts": 12}},
    {"id": "mobius_exponential", "params": {"theta": None}},
    {"id": "rotation", "params": {"alpha": None}},
    {"id": "two_point", "params": {"h": 1.5}},
    {"id": "window_energy", "params": {"k": 2.9, "h": 10}},
    {"id": "squarefree_shifts", "params": {"shifts": "12"}},
    {"id": "two_point", "params": {"h": True}},
]


@pytest.mark.parametrize("bad", [*BAD_ENTRIES, ["--id", "two_point", "--param", "h=null"]])
def test_bad_param_value_exits_two_before_any_work(bad, tmp_path, capsys, fresh_windows,
                                                   sieve_calls):
    out_dir = tmp_path / "reports"
    if isinstance(bad, dict):
        path = tmp_path / "battery.json"
        path.write_text(json.dumps({"experiments": [
            {"id": "two_point", "name": "tp", "params": {"h": 1}, "n_grid": [100]},
            {**bad, "name": "bad", "n_grid": [100]}], "output_dir": str(out_dir)}))
        args = ["--config", str(path)]
    else:
        args = [*bad, "--n-grid", "100", "--out", str(out_dir / "tp.json")]
    assert main(["experiment", *args]) == 2
    assert "error" in capsys.readouterr().out
    assert not out_dir.exists()
    assert sieve_calls == []


def test_env_cache_dir_with_corrupt_cache(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "caches"
    cache_dir.mkdir()
    cache_path = cache_dir / "liouville.bin"
    write_cache(cache_path, sieve("liouville", 1, 2048))
    blob = bytearray(cache_path.read_bytes())
    blob[25] ^= 0x08
    cache_path.write_bytes(bytes(blob))
    monkeypatch.setenv("MFL_CACHE_DIR", str(cache_dir))
    cfg = {
        "experiments": [
            {"id": "two_point", "name": "tp", "params": {"h": 1}, "n_grid": [500]}
        ],
        "output_dir": str(tmp_path / "reports"),
    }
    path = tmp_path / "battery.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path)]) == 3


def test_env_cache_dir_single_experiment(tmp_path, capsys, monkeypatch,
                                         fresh_windows, sieve_calls):
    cache_dir = tmp_path / "caches"
    cache_dir.mkdir()
    lam = sieve("liouville", 1, 3001).values
    # any file name serves: the label comes from the header
    write_cache(cache_dir / "lam_3000.bin", sieve("liouville", 1, 3001))
    monkeypatch.setenv("MFL_CACHE_DIR", str(cache_dir))
    args = ["experiment", "--id", "two_point", "--param", "h=1", "--n-grid", "1000,2999"]
    assert main(args) == 0
    grid = json.loads(capsys.readouterr().out)["grid"]
    for row in grid:
        X = row["N"]
        assert row["value_re"] == abs(int(np.sum(lam[:X] * lam[1 : X + 1], dtype=np.int64))) / X
    assert sieve_calls == []

    # a corrupt cache stops the run even for a label two_point never reads
    mu_path = cache_dir / "mobius.bin"
    write_cache(mu_path, sieve("mobius", 1, 2048))
    blob = bytearray(mu_path.read_bytes())
    blob[-10] ^= 0xFF
    mu_path.write_bytes(bytes(blob))
    assert main(args) == 3
    assert "cache error" in capsys.readouterr().out


def test_env_cache_dir_missing_exits_three(tmp_path, capsys, monkeypatch,
                                          fresh_windows, sieve_calls):
    monkeypatch.setenv("MFL_CACHE_DIR", str(tmp_path / "no_such_dir"))
    args = ["experiment", "--id", "two_point", "--param", "h=1", "--n-grid", "100"]
    assert main(args) == 3
    assert "cache error" in capsys.readouterr().out
    assert sieve_calls == []
    # a file is not a cache directory either
    not_a_dir = tmp_path / "mobius.bin"
    write_cache(not_a_dir, sieve("mobius", 1, 2048))
    monkeypatch.setenv("MFL_CACHE_DIR", str(not_a_dir))
    assert main(args) == 3
    assert sieve_calls == []


def test_env_cache_dir_unusable_exits_three(tmp_path, capsys, monkeypatch, fresh_windows,
                                           sieve_calls, unusable_cache_dir):
    cache_dir, named = unusable_cache_dir
    monkeypatch.setenv("MFL_CACHE_DIR", str(cache_dir))
    out_path = tmp_path / "tp.json"
    args = ["experiment", "--id", "two_point", "--param", "h=1", "--n-grid", "100",
            "--out", str(out_path)]
    assert main(args) == 3
    out = capsys.readouterr().out
    assert "cache error" in out and named in out
    assert sieve_calls == []
    assert not out_path.exists()


def test_env_cache_dir_serves_every_window_command(tmp_path, capsys, monkeypatch,
                                                   fresh_windows, sieve_calls):
    cache_dir = tmp_path / "caches"
    cache_dir.mkdir()
    for label in LABELS:
        write_cache(cache_dir / f"{label}.bin", sieve(label, 1, 3001))

    def outputs(tag):
        table, spectrum = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        assert main(["correlate", "--label", "liouville", "--n", "2000", "--kmax", "8",
                     "--out", str(table)]) == 0
        assert main(["spectrum", "--label", "mobius", "--n", "2048", "--out", str(spectrum)]) == 0
        assert main(["mirsky", "--ones", "0,1", "--zeros", "2", "--n", "2990"]) == 0
        capsys.readouterr()
        return table.read_bytes(), spectrum.read_bytes()

    monkeypatch.setenv("MFL_CACHE_DIR", str(cache_dir))
    cached = outputs("cached")
    assert sieve_calls == []
    monkeypatch.delenv("MFL_CACHE_DIR")
    monkeypatch.setattr(ex, "WINDOWS", WindowStore())
    assert outputs("sieved") == cached
    assert len(sieve_calls) == 1


@pytest.mark.parametrize("args", [
    # two_point at N = 1e9 reads a liouville window of 1e9 + 1 indices, about
    # 3 GB of int8 over the three labels
    ["experiment", "--id", "two_point", "--param", "h=1", "--n-grid", "1000000000"],
    ["correlate", "--label", "liouville", "--n", "1000000000", "--kmax", "4", "--out", "t.csv"],
    ["spectrum", "--label", "mobius", "--n", "1000000000", "--out", "s.json"],
    ["mirsky", "--ones", "0", "--n", "1000000000"],
])
def test_window_commands_share_the_window_limit(args, tmp_path, monkeypatch, capsys,
                                                fresh_windows, sieve_calls):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    assert "allow_large" in capsys.readouterr().out
    assert sieve_calls == []
    assert list(tmp_path.iterdir()) == []


def test_bad_arguments_exit_two(capsys):
    assert main(["sieve", "--label", "mertens", "--lo", "1", "--hi", "10",
                 "--out", "x.bin"]) == 2
    assert main(["no-such-command"]) == 2


def test_sieve_invalid_range_exits_two(tmp_path, capsys):
    assert main(["sieve", "--label", "mobius", "--lo", "5", "--hi", "2",
                 "--out", str(tmp_path / "x.bin")]) == 2


def test_sieve_too_large_for_memory_exits_two(tmp_path, capsys):
    # numpy refuses the 90.9 TiB output array outright, before any page is
    # touched; no machine's overcommit grants it
    out = tmp_path / "x.bin"
    assert main(["sieve", "--label", "mobius", "--lo", "1", "--hi", str(10**14),
                 "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not out.exists()


def _subprocess(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run python with args; the subprocess imports the mflab this test
    imported, however it got on the path."""
    env = {**os.environ, "PYTHONPATH": str(Path(mflab.__file__).resolve().parent.parent), **env}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point(tmp_path):
    proc = _subprocess("-m", "mflab.cli", "admissible", "--set", "0,1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "admissible"


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_help(script):
    # imports every script as a user runs it, so a renamed helper fails here
    proc = _subprocess(str(SCRIPTS / script), "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


@pytest.mark.parametrize("args, message", [
    (["--n-grid", "40000000"], "allow_large"),
    (["--n-grid", "100", "200", "--kmax", "150"], "need K < min(n_grid)"),
])
def test_spectral_diagnostic_script_exits_two_on_refused_arguments(args, message):
    proc = _subprocess(str(SCRIPTS / "spectral_diagnostic.py"), *args)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stdout.startswith("error:") and message in proc.stdout
    assert proc.stderr == ""


def test_spectral_diagnostic_script_reads_mfl_cache_dir(tmp_path):
    args = (str(SCRIPTS / "spectral_diagnostic.py"), "--label", "liouville",
            "--n-grid", "100", "200", "--kmax", "3")
    proc = _subprocess(*args, MFL_CACHE_DIR=str(tmp_path / "missing"))
    assert proc.returncode == EXIT_CACHE
    assert proc.stdout.startswith("cache error:") and "missing" in proc.stdout
    write_cache(tmp_path / "lam.bin", sieve("liouville", 1, 300))
    out = tmp_path / "rows.csv"
    proc = _subprocess(*args, "--out", str(out), MFL_CACHE_DIR=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "single limit plausible" in proc.stdout and out.is_file()
