#!/usr/bin/env python3
"""Record the mflab benchmark into checked-in BENCH_<tag>.json files.

Runs perfbench/run.py, unchanged, inside each checkout given as
--checkout TAG=PATH, on battery_cold and lab_cached, once untraced (the
end-to-end metrics) and once traced (the per-layer metrics), and on
far_windows (short windows far out, sieved without out arrays) untraced,
whose run_s median is the layer sample layers.far_windows_run_s.  One
round runs every checkout with the same seed; the order of the checkouts
is reversed on every other round, so two checkouts alternate as pairs and
drift of the host falls on both.  There is one round per seed in SEEDS,
and every run lasts the benchmark's own run_seconds from BENCHMARK.json.
One run.py invocation gives one sample per metric: its median over passes.

Each round then times, per checkout, every other layer from one of two
tables, one row a layer.  A LAYERS row gives the samples per round, each
taken in a fresh process that imports mflab from the checkout's src/: an
untimed set-up, then the timed statements.  A row may name a script that
another process runs just before (the cache read reads a file that another
process wrote).  sieve_1e8_s (an all-label sieve over [1, 1e8]) and
lag_sums_s (correlation_table(mobius, 1e6, 128) plus
small_correlation_fraction(8, 1e7, 0.001) on windows sieved before the
clock starts) take 3 samples a round, as one a round spread too widely to
show a change below about 20% and 40%, and the slow band of the lag
samples belongs to the process, not to the call.  spectral_2e20_s times
the mobius and liouville periodograms at n = 2**20, their affinity and
both rajchman_profile(., 32), on windows sieved before the clock starts.
A COMMANDS row is a
command timed end to end in a fresh process, start-up included:
`mfl experiment --id mobius_exponential --n-grid 10000000`, the decay
battery against its goldens, and the Tier-1 suite, `python -m pytest -q
--continue-on-collection-errors` with src/ on the path.  A new layer is
one row.

The checkouts' paths should have the same length: lab_cached's
peak_rss_mb was seen to move by about its 0.1 MiB bound with the
checkout's directory name, though that pass never sieves, so a difference
in path length can pass for a change in the code.  A warning line is
printed when the resolved paths differ in length.

For each checkout it writes BENCH_<TAG>.json into --out-dir.  Each metric
gets its median, interquartile range and sample count.  The file also
holds the seeds, the commit of the checkout (and whether its tracked files
differ from that commit), a sha256 of its src/ tree, the tokenize count of
each src/mflab/*.py module (lab_cached's peak_rss_mb was seen to step
with these counts, in modules the pass never runs), the machine, Python,
numpy and the number of cores the runs could use, as perfbench reports
them, and the failed-check count of every run.

    python3 scripts/bench_record.py --checkout parent=/path/to/parent \\
        --checkout change=. --out-dir .
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

RUNS = (("battery_cold", 0), ("battery_cold", 1), ("lab_cached", 0), ("lab_cached", 1),
        ("far_windows", 0))
SEEDS = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
RUN_SECONDS = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                         .read_text())["run_seconds"]

# Rows are templates filled in one str.format pass with {seed} and {tmp} (a
# fresh temporary directory), so a literal brace is written doubled.
SIEVE = ("import numpy as np\n"
         "from mflab.sieve import sieve\n"
         "out = {{name: np.empty(hi - lo, dtype=np.int8) for name in ('liouville', 'squarefree')}}\n")
# name: (samples per round, script run just before in a process of its own,
#        untimed set-up, timed statements), timed in a fresh process
LAYERS = {
    "sieve_1e8_s": (3, "", "lo, hi = 1, 10**8 + 1\n" + SIEVE, "sieve('mobius', lo, hi, out=out)"),
    "far_window_1e14_s": (1, "", "lo, hi = 10**14, 10**14 + 2**16\n" + SIEVE,
                          "sieve('mobius', lo, hi, out=out)"),
    "cache_read_1e7_s": (
        1,
        "from mflab.cache import write_cache\n"
        "from mflab.sieve import sieve\n"
        "write_cache('{tmp}/mobius.bin', sieve('mobius', 1, 10**7 + 1))",
        "from mflab.cache import read_cache",
        "read_cache('{tmp}/mobius.bin')"),
    "lag_sums_s": (
        3, "",
        "from mflab.experiments import sign_window, small_correlation_fraction\n"
        "from mflab.sequences import BoundedSeq, correlation_table\n"
        "mu = sign_window('mobius', 10000000 + 8)  # fills both sign labels\n"
        "g = BoundedSeq.from_samples(mu[: 10**6 + 128], label='mobius', sup_bound=1.0)",
        "correlation_table(g, 10**6, 128)\n"
        "small_correlation_fraction(8, 10000000, 0.001)"),
    "admissible_s": (
        1, "",
        "sys.dont_write_bytecode = True  # perfbench/inputs.py is imported, not written to\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from inputs import make_inputs\n"
        "from mflab.symbolic import is_admissible\n"
        "sets = make_inputs('lab_cached', {seed})['shift_sets']",
        "for shifts in sets:\n"
        "    is_admissible(shifts)"),
    "spectral_2e20_s": (
        1, "",
        "from mflab.experiments import sign_window\n"
        "from mflab.measures import affinity, rajchman_profile\n"
        "from mflab.sequences import BoundedSeq\n"
        "from mflab.spectral import periodogram\n"
        "n = 2**20\n"
        "gs = [BoundedSeq.from_samples(sign_window(label, n + 8), label=label, sup_bound=1.0)\n"
        "      for label in ('mobius', 'liouville')]",
        "a, b = (periodogram(g, n).measure for g in gs)\n"
        "affinity(a, b)\n"
        "rajchman_profile(a, 32)\n"
        "rajchman_profile(b, 32)"),
}
# name: (samples per round, arguments of python), timed end to end
COMMANDS = {
    "experiment_1e7_s": (1, "-m", "mflab.cli", "experiment", "--id", "mobius_exponential",
                         "--n-grid", str(10**7)),
    "decay_battery_s": (1, "scripts/decay_battery.py", "--out", "{tmp}"),
    "tier1_s": (1, "-m", "pytest", "-q", "--continue-on-collection-errors"),
}
LAYER_NAMES = ("far_windows_run_s", *LAYERS, *COMMANDS)


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One perfbench/run.py invocation: (provenance record, result line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def time_layer(checkout: Path, before: str, setup: str, timed: str) -> float:
    """Seconds of the timed statements in a fresh process that imports mflab
    from the checkout's src/ and runs setup first, untimed; a non-empty
    before runs to its end first, in a process of its own."""
    script = f"{setup}\nt = time.perf_counter()\n{timed}\nprint(time.perf_counter() - t)"
    for body in filter(None, (before, script)):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, time\nsys.path.insert(0, 'src')\n" + body],
            cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def time_command(checkout: Path, *args: str) -> float:
    """Wall seconds of `python args...` in a fresh process in the checkout,
    importing mflab from its src/ and reading no MFL_CACHE_DIR; a failing
    command (the Tier-1 suite, say) stops the recording."""
    env = {k: v for k, v in os.environ.items() if k != "MFL_CACHE_DIR"}
    env["PYTHONPATH"] = str(checkout / "src")
    t = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - t


def code_state(checkout: Path) -> dict:
    """The checkout's commit, whether tracked files differ from it, a sha256
    of src/ that names the measured code even when they do, and the tokenize
    count of each src/mflab module, without the encoding token."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0" + path.read_bytes())
    tokens = {}
    for path in sorted((checkout / "src" / "mflab").glob("*.py")):
        with path.open("rb") as fh:
            tokens[path.name] = sum(1 for tok in tokenize.tokenize(fh.readline)
                                    if tok.type != tokenize.ENCODING)

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args], stdout=subprocess.PIPE,
                              text=True, check=True).stdout.strip()
    try:
        commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        commit = dirty = None
    return {"commit": commit, "dirty": dirty, "src_sha256": digest.hexdigest(),
            "src_tokens": tokens}


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", required=True, metavar="TAG=PATH",
                    help="a checkout of mflab to measure; repeat to alternate several")
    ap.add_argument("--out-dir", default=".", help="where BENCH_<TAG>.json files go")
    args = ap.parse_args()
    checkouts = {}
    for item in args.checkout:
        tag, sep, path = item.partition("=")
        if not sep or not tag or not (Path(path) / "perfbench" / "run.py").is_file():
            ap.error(f"--checkout needs TAG=PATH of an mflab checkout, got {item!r}")
        checkouts[tag] = Path(path).resolve()
    if len({len(str(path)) for path in checkouts.values()}) > 1:
        print("warning: checkout paths differ in length, which moves peak_rss_mb: "
              + ", ".join(f"{tag}={path}" for tag, path in checkouts.items()), flush=True)

    records = {tag: {"tag": tag, **code_state(path),
                     "seeds": list(SEEDS), "seconds": RUN_SECONDS,
                     "runs": [], "metrics": {},
                     "layers": {name: {"unit": "s", "samples": []} for name in LAYER_NAMES}}
               for tag, path in checkouts.items()}
    order = list(checkouts)
    for r, seed in enumerate(SEEDS):
        for tag in (order if r % 2 == 0 else order[::-1]):
            rec, layers = records[tag], records[tag]["layers"]
            for workload, trace in RUNS:
                prov, result = run_bench(checkouts[tag], workload, seed, trace)
                for key in ("machine", "platform", "nproc", "python", "numpy", "blas_threads"):
                    rec.setdefault(key, prov[key])
                rec["runs"].append({"workload": workload, "trace": trace, "seed": seed,
                                    "passes": prov["passes"], "attempted": result["attempted"],
                                    "failed": result["failed"]})
                if workload == "far_windows":
                    layers["far_windows_run_s"]["samples"].append(
                        result["metrics"]["run_s"]["value"])
                else:
                    for name, metric in result["metrics"].items():
                        entry = rec["metrics"].setdefault(
                            f"{workload}.{name}", {"unit": metric["unit"], "samples": []})
                        entry["samples"].append(metric["value"])
                print(f"round {r} {tag} {workload} trace={trace} seed={seed}: "
                      f"run_s {result['metrics'].get('run_s', {}).get('value')}, "
                      f"failed {result['failed']}", flush=True)
            for timer, table in ((time_layer, LAYERS), (time_command, COMMANDS)):
                for name, (samples, *parts) in table.items():
                    for _ in range(samples):
                        with tempfile.TemporaryDirectory() as tmp:
                            seconds = timer(checkouts[tag],
                                            *(part.format(seed=seed, tmp=tmp) for part in parts))
                        layers[name]["samples"].append(seconds)
                        print(f"round {r} {tag} {name}: {seconds:.4f} s", flush=True)

    out_dir = Path(args.out_dir)
    for tag, rec in records.items():
        for entry in [*rec["metrics"].values(), *rec["layers"].values()]:
            entry.update(summarise(entry["samples"]))
        path = out_dir / f"BENCH_{tag}.json"
        path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
