"""Command line behavior: outputs, env overrides, and exit codes."""

import csv
import json
import math
import subprocess
import sys

import numpy as np

from mflab.cache import read_cache, write_cache
from mflab.cli import main
from mflab.measures import TorusMeasure, write_json
from mflab.sieve import sieve


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


def test_experiment_theta_flags(capsys):
    code = main(["experiment", "--id", "mobius_exponential",
                 "--theta-over-2pi", "0.25", "--n-grid", "1000"])
    assert code == 0
    turns = json.loads(capsys.readouterr().out)
    assert turns["params"] == {"theta_over_2pi": 0.25}
    assert main(["experiment", "--id", "mobius_exponential",
                 "--theta", repr(math.pi / 2), "--n-grid", "1000"]) == 0
    radians = json.loads(capsys.readouterr().out)
    assert turns["grid"] == radians["grid"]
    # radians and turns flags are mutually exclusive
    assert main(["experiment", "--id", "mobius_exponential", "--theta", "1.0",
                 "--theta-over-2pi", "0.5", "--n-grid", "1000"]) == 2


def test_experiment_rejects_unknown_param(capsys):
    assert main(["experiment", "--id", "mobius_exponential",
                 "--param", "theta_over_2pl=0.618", "--n-grid", "1000"]) == 2
    assert "'theta_over_2pl'" in capsys.readouterr().out
    assert main(["experiment", "--id", "mobius_exponential", "--param", "theta=1.0",
                 "--theta-over-2pi", "0.5", "--n-grid", "1000"]) == 2
    capsys.readouterr()
    assert main(["experiment", "--id", "two_point", "--n-grid", "100"]) == 2
    assert "needs param 'h'" in capsys.readouterr().out


def test_experiment_needs_exactly_one_mode(tmp_path, capsys):
    assert main(["experiment"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert main(["experiment", "--config", str(cfg), "--id", "two_point"]) == 2


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


def test_bad_arguments_exit_two(capsys):
    assert main(["sieve", "--label", "mertens", "--lo", "1", "--hi", "10",
                 "--out", "x.bin"]) == 2
    assert main(["no-such-command"]) == 2


def test_sieve_invalid_range_exits_two(tmp_path, capsys):
    assert main(["sieve", "--label", "mobius", "--lo", "5", "--hi", "2",
                 "--out", str(tmp_path / "x.bin")]) == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mflab.cli", "admissible", "--set", "0,1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "admissible"
