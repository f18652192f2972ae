#!/usr/bin/env python3
"""Run the standard decay battery and compare against the checked-in goldens.

Three correlation averages are pushed across N = 1e5, 1e6, 1e7: the Mobius
exponential sum at the golden-ratio angle, the two-point Liouville
correlation at shift 1, and the sign-weighted squarefree average for the
shift pair {1, 2} at frequency zero.  Exit code 0 means every magnitude
matched its golden record; 1 means a tolerance failed, and nothing else;
2 means the config or the golden file could not be read or validated, or a
path could not be written; 3 means a cache file is malformed or corrupt.
"""

import argparse
import sys
from pathlib import Path

from mflab.config import exit_code, load_config, run
from mflab.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "decay_battery.json"),
                    help="battery config file (default: configs/decay_battery.json)")
    ap.add_argument("--out", default=None,
                    help="override the report output directory")
    args = ap.parse_args()

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        return exit_code(exc)
    if args.out is not None:
        config.output_dir = args.out
    if config.golden_file is not None and not Path(config.golden_file).is_absolute():
        config.golden_file = str(REPO / config.golden_file)
    code = run(config)
    print(f"battery exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
