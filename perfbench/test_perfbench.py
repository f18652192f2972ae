"""Tests of the benchmark's own machinery.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import inputs as gen
import oracles
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a, b = gen.make_inputs(workload, 7), gen.make_inputs(workload, 7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert gen.digest(a) == gen.digest(b)


def test_inputs_are_identical_in_a_fresh_process():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import inputs; "
            "print(inputs.digest(inputs.make_inputs('lab_cached', 7)))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == gen.digest(gen.make_inputs("lab_cached", 7))


@pytest.mark.parametrize("workload", ["far_windows", "lab_cached"])
def test_seed_changes_the_inputs(workload):
    assert gen.digest(gen.make_inputs(workload, 1)) != gen.digest(gen.make_inputs(workload, 2))


def test_shift_sets_come_from_criterion_10_family():
    sets = gen.make_inputs("lab_cached", 3)["shift_sets"]
    assert len(sets) == gen.ADMISSIBLE_CALLS
    assert all(len(s) <= 6 and len(set(s)) == len(s) and set(s) <= set(range(31)) for s in sets)


def test_metric_tables_match_benchmark_json():
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in listed["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in listed["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in listed["workloads"]} <= set(gen.WORKLOADS)


def test_trial_division_matches_mflab_oracle():
    from mflab.sieve import oracle_values

    oracle = oracles.TrialDivision(10**6)
    for n in list(range(1, 2000)) + [999_983, 999_999, 2**19, 3**12]:
        assert oracle.sign_values(n) == oracle_values(n)


def test_admissible_oracle():
    assert oracles.admissible([]) and oracles.admissible([0, 1, 2])
    assert not oracles.admissible([0, 1, 2, 3])
    assert oracles.admissible([0, 1, 2, 4])


def test_layer_metrics_split_self_time_and_memo_hits():
    # experiment [0, 10] -> sign_window [1, 5] -> sieve [2, 4]; a second
    # sign_window [6, 7] with no loader child is a memo hit
    recorded = [
        ["mobius_exponential_sum", 0.0, 10.0, -1, {"theta": 1.0, "N": 100}],
        ["sign_window", 1.0, 5.0, 0, {"label": "mobius", "hi": 100}],
        ["sieve", 2.0, 4.0, 1, {"label": "mobius", "lo": 1, "hi": 201}],
        ["sign_window", 6.0, 7.0, 0, {"label": "mobius", "hi": 50}],
    ]
    m = spans.layer_metrics(recorded, segment=1 << 20, primes=oracles.prime_table(20))
    assert m["sieve.indices"] == 200 and m["sieve.useful_ratio"] == 0.5
    assert m["sieve.prime_visits"] == 6           # primes up to isqrt(200) = 14
    assert m["experiments.window_wait_s"] == 5.0
    assert m["experiments.window_memo_hits"] == 1
    assert m["experiments.self_s"] == 10.0 - 2.0  # everything but the sieve child
    assert m["experiments.expsum_ns_per_term"] == 5.0 / 100 * 1e9
