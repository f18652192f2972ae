"""scripts/bench_record.py, loaded without running it: every layer row's
code compiles, and the layers it records are those of the checked-in BENCH
files, so a new recording compares key for key with the old ones."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "scripts" / "bench_record.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


BENCH = _bench_record()


@pytest.mark.parametrize("name", BENCH.LAYERS)
def test_layer_rows_compile(name):
    samples, *parts = BENCH.LAYERS[name]
    before, setup, timed = (part.format(seed=7, tmp="/scratch") for part in parts)
    assert samples >= 1 and timed
    for code in (before, f"{setup}\n{timed}"):
        compile(code, name, "exec")


def test_layer_names_are_those_of_the_bench_files():
    recorded = json.loads((ROOT / "BENCH_pr27.json").read_text())["layers"]
    assert sorted(BENCH.LAYER_NAMES) == sorted(recorded)
