"""scripts/bench_record.py, loaded without running it: every layer row's
code compiles, and it still records every layer of the newest checked-in
BENCH file, so a new recording compares key for key with the last one."""

import importlib.util
import json
import re
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
    # inclusion, not equality: a new row can be recorded from the commit that
    # adds it, while a deleted or renamed row still fails
    newest = max((path for path in ROOT.glob("BENCH_pr*.json")
                  if re.fullmatch(r"BENCH_pr\d+\.json", path.name)),
                 key=lambda path: int(path.stem.removeprefix("BENCH_pr")))
    recorded = json.loads(newest.read_text())["layers"]
    assert set(recorded) <= set(BENCH.LAYER_NAMES), newest.name
