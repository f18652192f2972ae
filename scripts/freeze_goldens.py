#!/usr/bin/env python3
"""Recompute the decay battery and rewrite its golden file.

Use this after an intentional change to the summation pipeline.  The exact
rational magnitudes (two-point and squarefree runs) are frozen with zero
tolerance; the exponential-sum magnitude goes through libm so it keeps a
1e-9 cushion.  Review the diff before committing a regenerated file.
"""

import argparse
import json
import sys
from pathlib import Path

from mflab.config import load_config
from mflab.experiments import load_caches, run_experiment

REPO = Path(__file__).resolve().parent.parent

EXACT_IDS = {"two_point", "squarefree_shifts", "pattern", "small_fraction"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "decay_battery.json"))
    ap.add_argument("--out", default=str(REPO / "goldens" / "decay_battery.json"))
    ap.add_argument("--ceiling", type=float, default=0.05,
                    help="max_final_abs recorded for every experiment")
    args = ap.parse_args()

    config = load_config(args.config)
    if config.cache_dir is not None:
        load_caches(config.cache_dir)
    goldens = {}
    for spec in config.experiments:
        report = run_experiment(spec.id, spec.params, spec.n_grid)
        goldens[spec.name] = {
            "final_abs": report.indicators["final_abs"],
            "tol": 0.0 if spec.id in EXACT_IDS else 1e-9,
            "max_final_abs": args.ceiling,
            "require_endpoint_decay": True,
        }
        print(f"{spec.name}: final_abs={report.indicators['final_abs']!r} "
              f"endpoint_decay={report.indicators['endpoint_decay']}")

    Path(args.out).write_text(json.dumps(goldens, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
