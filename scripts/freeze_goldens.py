#!/usr/bin/env python3
"""Recompute the decay battery and rewrite its golden file.

Use this after an intentional change to the summation pipeline.  The exact
rational magnitudes (two-point and squarefree runs) are frozen with zero
tolerance; the exponential-sum magnitude goes through libm so it keeps a
1e-9 cushion.  Review the diff before committing a regenerated file.
The batch runs through config.run, into a temporary report directory and
without goldens, so its exit codes are run's: 2 means the config could not
be read or validated, an experiment needs a window past the limit (set
allow_large in the config to raise it) or --out could not be written; 3
means a cache file is malformed or corrupt.  Nothing is written unless
every experiment ran.
"""

import argparse
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from mflab.config import EXIT_OK, exit_code, load_config, run

REPO = Path(__file__).resolve().parent.parent

EXACT_IDS = {"two_point", "squarefree_shifts", "pattern", "small_fraction"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "decay_battery.json"))
    ap.add_argument("--out", default=str(REPO / "goldens" / "decay_battery.json"))
    ap.add_argument("--ceiling", type=float, default=0.05,
                    help="max_final_abs recorded for every experiment")
    args = ap.parse_args()

    try:
        config = load_config(args.config)
        with tempfile.TemporaryDirectory() as reports:
            code = run(replace(config, output_dir=reports, golden_file=None))
            if code != EXIT_OK:
                return code
            goldens = {}
            for spec in config.experiments:
                report = Path(reports) / f"{spec.name}.json"
                indicators = json.loads(report.read_text())["indicators"]
                goldens[spec.name] = {
                    "final_abs": indicators["final_abs"],
                    "tol": 0.0 if spec.id in EXACT_IDS else 1e-9,
                    "max_final_abs": args.ceiling,
                    "require_endpoint_decay": True,
                }
                print(f"{spec.name}: final_abs={indicators['final_abs']!r} "
                      f"endpoint_decay={indicators['endpoint_decay']}")
        Path(args.out).write_text(json.dumps(goldens, indent=2) + "\n")
    except (ValueError, OSError) as exc:
        return exit_code(exc)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
