"""Record perfbench/reference.json, the values lab_cached's batch is checked against.

Run from the root of a checkout whose tests and goldens pass:

    PYTHONPATH=src python3 perfbench/record_reference.py

It stores the exact values of the integer-route experiments, and the two
modulated experiments at every angle of the seeded pool.  The file in the
repository was recorded before any optimisation of the program; re-recording
it on a later commit would absorb whatever that commit computes, so a changed
kernel must match the file as it stands.
"""

from __future__ import annotations

import json
from pathlib import Path

from mflab.experiments import run_experiment

import inputs as gen


def _values(spec: dict) -> list[list[float]]:
    report = run_experiment(spec["id"], spec["params"], spec["n_grid"])
    return [[v.real, v.imag] for v in report.values]


def main() -> None:
    modulated = []
    for k in range(gen.ANGLE_POOL):
        specs = {s["name"]: s for s in gen.lab_experiments(k, k)}
        modulated.append({"theta_over_2pi": gen.pool_angle(k),
                          **{name: _values(specs[name]) for name in gen.MODULATED}})
    specs = gen.lab_experiments(0, 0)
    integer = {s["name"]: _values(s) for s in specs if s["name"] not in gen.MODULATED}
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps({"integer": integer, "modulated": modulated}, indent=1) + "\n")


if __name__ == "__main__":
    main()
