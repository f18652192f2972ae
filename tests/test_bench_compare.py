"""scripts/bench_compare.py on the checked-in BENCH files: the verdicts that
CHANGES.md derived by hand from BENCH_pr23*.json and BENCH_pr25*.json come
out of the one script."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare",
                                                  ROOT / "scripts" / "bench_compare.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


COMPARE = _bench_compare()


def _rows(tag):
    parent, change = (json.loads((ROOT / f"BENCH_{name}.json").read_text())
                      for name in (f"{tag}_parent", tag))
    return {row["name"]: row for row in COMPARE.compare(parent, change)}


def test_bench_pr23_admissible_layer_is_a_gain():
    row = _rows("pr23")["layers.admissible_s"]
    assert round(row["parent"], 3) == 0.215 and round(row["change"], 3) == 0.079
    assert (row["lower"], row["higher"], row["pairs"]) == (10, 0, 10)
    assert round(row["parent_iqr"], 3) == 0.070 and row["gain"]


def test_bench_pr23_lab_run_s_wins_every_pair_but_not_the_quartile_rule():
    row = _rows("pr23")["lab_cached.run_s"]
    assert (row["lower"], row["higher"]) == (10, 0)
    assert abs(row["parent_iqr"] - 0.153) < 0.001
    assert row["parent"] - row["change"] < row["parent_iqr"]
    assert not row["gain"] and row["bound"] == "within"


@pytest.mark.parametrize("workload, higher", [("lab_cached", 9), ("battery_cold", 10)])
def test_bench_pr23_peak_rss_rose_inside_its_bound(workload, higher):
    row = _rows("pr23")[f"{workload}.peak_rss_mb"]
    assert row["higher"] == higher and row["change"] > row["parent"]
    assert row["bound"] == "within" and not row["gain"]


def test_bench_pr25_battery_peak_rss_fell_in_every_pair_inside_its_bound():
    row = _rows("pr25")["battery_cold.peak_rss_mb"]
    assert round(row["change"] - row["parent"], 3) == -0.025
    assert (row["lower"], row["higher"]) == (10, 0)
    assert row["parent"] - row["change"] > row["parent_iqr"]
    assert row["bound"] == "within" and row["gain"]


def test_a_worse_median_past_the_bound_is_worse():
    def record(run_s, rss):
        return {"metrics": {"lab_cached.run_s": {"unit": "s", "samples": [run_s] * 10,
                                                 "median": run_s, "iqr": 0.0},
                            "lab_cached.peak_rss_mb": {"unit": "MiB", "samples": [rss] * 10,
                                                       "median": rss, "iqr": 0.0}},
                "layers": {}}
    rows = {r["name"]: r["bound"] for r in COMPARE.compare(record(0.2, 90.0), record(0.26, 90.2))}
    assert rows == {"lab_cached.run_s": "worse", "lab_cached.peak_rss_mb": "worse"}
    rows = {r["name"]: r["bound"] for r in COMPARE.compare(record(0.2, 90.0), record(0.24, 90.09))}
    assert rows == {"lab_cached.run_s": "within", "lab_cached.peak_rss_mb": "within"}


def test_main_prints_one_table_per_pair_and_the_token_counts(capsys):
    names = [str(ROOT / f"BENCH_{n}.json") for n in ("pr23_parent", "pr23", "pr25_parent", "pr25")]
    assert COMPARE.main(names) == 0
    out = capsys.readouterr().out
    assert out.count("metric ") == 2 and "layers.admissible_s (s)" in out
    assert "src_tokens summation.py: 1948 -> 1948 (+0)" in out
    with pytest.raises(SystemExit) as exit_info:
        COMPARE.main(names[:3])
    assert exit_info.value.code == 2
