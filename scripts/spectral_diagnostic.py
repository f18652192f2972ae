#!/usr/bin/env python3
"""Probe whether windowed correlation coefficients settle toward one limit.

Computes the first K autocorrelation coefficients of a sign sequence at
several window lengths and reports the largest pairwise deviation between
the longer windows.  A small deviation is evidence (not proof) that the
empirical spectral measures converge along the full sequence of window
lengths rather than only along a subsequence.  The window is read as
`mfl correlate` reads it, so MFL_CACHE_DIR applies.  Exit code 0 means the
table was printed; errors exit as in `mfl` (2 for bad arguments, a window
past the limit or an unwritable --out, 3 for an unusable cache).
"""

import argparse
import sys

from mflab.cli import _window
from mflab.config import exit_code
from mflab.sieve import LABELS
from mflab.spectral import spectral_limit_diagnostic


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--label", default="mobius", choices=LABELS)
    ap.add_argument("--n-grid", type=int, nargs="+",
                    default=[100000, 1000000, 10000000])
    ap.add_argument("--kmax", type=int, default=50)
    ap.add_argument("--tolerance", type=float, default=0.01)
    ap.add_argument("--out", default=None, help="optional CSV of the coefficient rows")
    args = ap.parse_args()

    try:
        g = _window(args.label, max(args.n_grid) + args.kmax + 1)
        diag = spectral_limit_diagnostic(g, args.n_grid, args.kmax,
                                         tolerance=args.tolerance)
        if args.out:
            diag.write_csv(args.out)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        return exit_code(exc)
    grid = diag.n_grid
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            print(f"max |sigma_hat at N={grid[i]} - sigma_hat at N={grid[j]}| "
                  f"over k<={args.kmax}: {diag.deviations[i, j]:.6g}")
    print(f"single limit plausible at tolerance {args.tolerance}: "
          f"{diag.single_limit_plausible}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
