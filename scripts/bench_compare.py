#!/usr/bin/env python3
"""Compare BENCH_*.json records of a parent and a change, metric by metric.

    python3 scripts/bench_compare.py PARENT CHANGE [PARENT2 CHANGE2 ...]

Each PARENT CHANGE pair is two files written by scripts/bench_record.py in
one session, and gets its own table.  Per metric (the end-to-end and
per-layer metrics of both workloads, then the bench layers) it prints both
medians, their difference and the change in percent; the same-seed pairs
in which the change read lower and higher (sample i of one file against
sample i of the other, so the 3 samples a round of a 3-sample layer make 3
pairs); the parent's interquartile range; the bound verdict; and whether a
gain may be claimed.
Then it prints the tokenize count of each src/mflab module, when both files
hold them.

The rules, applied here once instead of by hand in CHANGES.md:
- "Worse" is decided by the bound BENCHMARK.json gives each end-to-end
  metric, in the direction it calls better.  A timing bound (unit s) is a
  fraction of the parent's median, as perfbench/README.md sets the timing
  bounds against their relative spread; any other bound is in the metric's
  own unit (peak_rss_mb's 0.1 MiB).  Other metrics have no bound verdict.
- A gain may be claimed when the change is better in at least 9 of 10
  same-seed pairs (ties count for neither side) and the medians differ by
  more than the parent's interquartile range.  A metric whose better
  direction BENCHMARK.json does not name is taken as lower-better, as every
  bench layer is a duration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
GAIN_SHARE = 0.9


def compare(parent: dict, change: dict) -> list[dict]:
    """One row per metric and bench layer present in both records."""
    rows = []
    for section, prefix in (("metrics", ""), ("layers", "layers.")):
        for key in sorted(set(parent[section]) & set(change[section])):
            a, b = parent[section][key], change[section][key]
            metric = key.split(".", 1)[1] if section == "metrics" else key
            sign = 1 if BETTER.get(metric, "lower") == "lower" else -1
            pairs = list(zip(a["samples"], b["samples"]))
            lower = sum(y < x for x, y in pairs)
            higher = sum(y > x for x, y in pairs)
            better = lower if sign > 0 else higher
            gap = b["median"] - a["median"]
            bound = BOUNDS.get(metric) if section == "metrics" else None
            if bound is None:
                verdict = "-"
            else:
                allowed = bound * abs(a["median"]) if a["unit"] == "s" else bound
                verdict = "worse" if sign * gap > allowed else "within"
            rows.append({
                "name": prefix + key, "unit": a["unit"],
                "parent": a["median"], "change": b["median"],
                "percent": 100.0 * gap / a["median"] if a["median"] else None,
                "lower": lower, "higher": higher,
                "pairs": len(pairs), "parent_iqr": a["iqr"], "bound": verdict,
                "gain": better >= GAIN_SHARE * len(pairs) > 0 and sign * gap < -a["iqr"],
            })
    return rows


def table(parent_path: str, change_path: str) -> str:
    parent, change = (json.loads(Path(p).read_text()) for p in (parent_path, change_path))
    lines = [f"{parent_path} ({parent['commit']}) -> {change_path} ({change['commit']})",
             f"{'metric':50} {'parent':>11} {'change':>11} {'delta':>10} {'%':>7} {'lower':>5} "
             f"{'higher':>6} {'pairs':>5} {'parent IQR':>10} {'bound':>6} gain"]
    for r in compare(parent, change):
        percent = "-" if r["percent"] is None else f"{r['percent']:+.1f}"
        lines.append(f"{r['name'] + ' (' + r['unit'] + ')':50} {r['parent']:11.4g} "
                     f"{r['change']:11.4g} {r['change'] - r['parent']:+10.3g} {percent:>7} "
                     f"{r['lower']:5} {r['higher']:6} "
                     f"{r['pairs']:5} {r['parent_iqr']:10.3g} {r['bound']:>6} "
                     f"{'yes' if r['gain'] else 'no'}")
    a, b = parent.get("src_tokens", {}), change.get("src_tokens", {})
    for name in sorted(set(a) & set(b)):
        lines.append(f"src_tokens {name}: {a[name]} -> {b[name]} ({b[name] - a[name]:+d})")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+", metavar="PARENT CHANGE",
                    help="BENCH_*.json files, a parent and its change per pair")
    files = ap.parse_args(argv).files
    if len(files) % 2:
        ap.error(f"files come in PARENT CHANGE pairs, got {len(files)}")
    print("\n\n".join(table(p, c) for p, c in zip(files[::2], files[1::2])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
