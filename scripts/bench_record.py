#!/usr/bin/env python3
"""Record the mflab benchmark into checked-in BENCH_<tag>.json files.

Runs perfbench/run.py, unchanged, inside each checkout given as
--checkout TAG=PATH, on battery_cold and lab_cached, once untraced (the
end-to-end metrics) and once traced (the per-layer metrics).  One round
runs every checkout on every workload and trace setting with the same
seed; the order of the checkouts is reversed on every other round, so
two checkouts alternate as pairs and drift of the host falls on both.
There is one round per seed in SEEDS, and every run lasts the benchmark's
own run_seconds from BENCHMARK.json.  One run.py invocation gives one
sample per metric: its median over passes.  Each round also times, per
checkout, SIEVE_SAMPLES sieve passes over [1, 1e8] that fill all three
labels, each in a fresh process, the layer samples layers.sieve_1e8_s
(every one is recorded; a single pass a round spread too widely to show
a sieve change below about 20%), one all-label sieve of the
FAR_WIDTH indices from FAR_LO, also in a fresh process, the layer sample
layers.far_window_1e14_s, one read_cache of a
mobius cache file of 1e7 values that another process wrote just before,
the layer sample layers.cache_read_1e7_s, and the lag correlations
correlation_table(mobius, 1e6, 128) plus small_correlation_fraction(8,
1e7, 0.001) on windows sieved to 1e7 before the clock starts, also in a
fresh process, the layer sample layers.lag_sums_s, and one untraced
perfbench/run.py run of the far_windows workload (short windows far out,
sieved without out arrays), whose run_s median is the layer sample
layers.far_windows_run_s, and is_admissible over the shift sets of
perfbench/inputs.py's make_inputs("lab_cached", seed), drawn before the
clock starts in a fresh process, the layer sample layers.admissible_s.
It also times three commands end
to end, each in a fresh process and with start-up included:
`mfl experiment --id mobius_exponential --n-grid 10000000`
(layers.experiment_1e7_s), scripts/decay_battery.py against its goldens
(layers.decay_battery_s), and the Tier-1 test suite, `python -m pytest -q
--continue-on-collection-errors` with src/ on the path (layers.tier1_s).

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

WORKLOADS = ("battery_cold", "lab_cached")
SEEDS = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
SIEVE_TOP = 10**8
SIEVE_SAMPLES = 3  # fresh-process sieve timings per checkout and round
FAR_LO, FAR_WIDTH = 10**14, 2**16  # a short window far out: base primes up to 1e7
CACHE_LENGTH = 10**7
LAG_X = 10**7  # window of the lag-sum sample; its sieve is not timed
RUN_SECONDS = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                         .read_text())["run_seconds"]


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One perfbench/run.py invocation: (provenance record, result line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_python(checkout: Path, script: str) -> str:
    """Stdout of script run in a fresh process that imports mflab from the
    checkout's src/."""
    script = "import sys\nsys.path.insert(0, 'src')\n" + script
    proc = subprocess.run([sys.executable, "-c", script], cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=True)
    return proc.stdout


def time_sieve(checkout: Path, lo: int, hi: int) -> float:
    """Seconds of one all-label sieve over [lo, hi), in a fresh process."""
    return float(run_python(checkout, (
        "import time\n"
        "import numpy as np\n"
        "from mflab.sieve import sieve\n"
        f"lo, hi = {lo}, {hi}\n"
        "out = {name: np.empty(hi - lo, dtype=np.int8) for name in ('liouville', 'squarefree')}\n"
        "t = time.perf_counter()\n"
        "sieve('mobius', lo, hi, out=out)\n"
        "print(time.perf_counter() - t)\n")))


def time_cache_read(checkout: Path) -> float:
    """Seconds of one read_cache of a mobius cache of CACHE_LENGTH values, in a
    fresh process; another process writes the file with the checkout's code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "mobius.bin")
        run_python(checkout, (
            "from mflab.cache import write_cache\n"
            "from mflab.sieve import sieve\n"
            f"write_cache({path!r}, sieve('mobius', 1, {CACHE_LENGTH} + 1))\n"))
        return float(run_python(checkout, (
            "import time\n"
            "from mflab.cache import read_cache\n"
            "t = time.perf_counter()\n"
            f"read_cache({path!r})\n"
            "print(time.perf_counter() - t)\n")))


def time_lag_sums(checkout: Path) -> float:
    """Seconds of correlation_table(mobius, 1e6, 128) plus
    small_correlation_fraction(8, LAG_X, 0.001), in a fresh process whose
    windows are sieved before the clock starts."""
    return float(run_python(checkout, (
        "import time\n"
        "from mflab.experiments import sign_window, small_correlation_fraction\n"
        "from mflab.sequences import BoundedSeq, correlation_table\n"
        f"mu = sign_window('mobius', {LAG_X} + 8)  # fills both sign labels\n"
        "g = BoundedSeq.from_samples(mu[: 10**6 + 128], label='mobius', sup_bound=1.0)\n"
        "t = time.perf_counter()\n"
        "correlation_table(g, 10**6, 128)\n"
        f"small_correlation_fraction(8, {LAG_X}, 0.001)\n"
        "print(time.perf_counter() - t)\n")))


def time_admissible(checkout: Path, seed: int) -> float:
    """Seconds of one is_admissible call per shift set of lab_cached's inputs
    for seed, in a fresh process; perfbench/inputs.py is imported, not
    written to (no bytecode)."""
    return float(run_python(checkout, (
        "import time\n"
        "sys.dont_write_bytecode = True\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from inputs import make_inputs\n"
        "from mflab.symbolic import is_admissible\n"
        f"sets = make_inputs('lab_cached', {seed})['shift_sets']\n"
        "t = time.perf_counter()\n"
        "for shifts in sets:\n"
        "    is_admissible(shifts)\n"
        "print(time.perf_counter() - t)\n")))


def time_command(checkout: Path, *args: str) -> float:
    """Wall seconds of `python args...` in a fresh process in the checkout,
    importing mflab from its src/ and reading no MFL_CACHE_DIR."""
    env = {k: v for k, v in os.environ.items() if k != "MFL_CACHE_DIR"}
    env["PYTHONPATH"] = str(checkout / "src")
    t = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - t


def time_experiment(checkout: Path) -> float:
    """Seconds of `mfl experiment --id mobius_exponential --n-grid 10000000`."""
    return time_command(checkout, "-m", "mflab.cli", "experiment", "--id", "mobius_exponential",
                        "--n-grid", str(10**7))


def time_battery(checkout: Path) -> float:
    """Seconds of scripts/decay_battery.py, its reports written to a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return time_command(checkout, "scripts/decay_battery.py", "--out", tmp)


def time_tier1(checkout: Path) -> float:
    """Seconds of the checkout's Tier-1 test suite; a failing suite stops the recording."""
    return time_command(checkout, "-m", "pytest", "-q", "--continue-on-collection-errors")


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
                     "layers": {name: {"unit": "s", "samples": []}
                                for name in ("sieve_1e8_s", "far_window_1e14_s",
                                             "far_windows_run_s",
                                             "cache_read_1e7_s", "lag_sums_s", "admissible_s",
                                             "experiment_1e7_s", "decay_battery_s",
                                             "tier1_s")}}
               for tag, path in checkouts.items()}
    order = list(checkouts)
    for r, seed in enumerate(SEEDS):
        for tag in (order if r % 2 == 0 else order[::-1]):
            for workload in WORKLOADS:
                for trace in (0, 1):
                    prov, result = run_bench(checkouts[tag], workload, seed, trace)
                    rec = records[tag]
                    for key in ("machine", "platform", "nproc", "python", "numpy",
                                "blas_threads"):
                        rec.setdefault(key, prov[key])
                    rec["runs"].append({"workload": workload, "trace": trace, "seed": seed,
                                        "passes": prov["passes"], "attempted": result["attempted"],
                                        "failed": result["failed"]})
                    for name, metric in result["metrics"].items():
                        entry = rec["metrics"].setdefault(
                            f"{workload}.{name}", {"unit": metric["unit"], "samples": []})
                        entry["samples"].append(metric["value"])
                    print(f"round {r} {tag} {workload} trace={trace} seed={seed}: "
                          f"run_s {result['metrics'].get('run_s', {}).get('value')}, "
                          f"failed {result['failed']}", flush=True)
            layers = records[tag]["layers"]
            samples = [time_sieve(checkouts[tag], 1, SIEVE_TOP + 1) for _ in range(SIEVE_SAMPLES)]
            layers["sieve_1e8_s"]["samples"].extend(samples)
            print(f"round {r} {tag} sieve [1, 1e8]: "
                  f"{', '.join(f'{x:.3f}' for x in samples)} s", flush=True)
            seconds = time_sieve(checkouts[tag], FAR_LO, FAR_LO + FAR_WIDTH)
            layers["far_window_1e14_s"]["samples"].append(seconds)
            print(f"round {r} {tag} sieve 2^16 at 1e14: {seconds:.3f} s", flush=True)
            prov, result = run_bench(checkouts[tag], "far_windows", seed, 0)
            records[tag]["runs"].append({"workload": "far_windows", "trace": 0, "seed": seed,
                                         "passes": prov["passes"],
                                         "attempted": result["attempted"],
                                         "failed": result["failed"]})
            seconds = result["metrics"]["run_s"]["value"]
            layers["far_windows_run_s"]["samples"].append(seconds)
            print(f"round {r} {tag} far_windows run_s: {seconds:.4f} s, "
                  f"failed {result['failed']}", flush=True)
            seconds = time_cache_read(checkouts[tag])
            layers["cache_read_1e7_s"]["samples"].append(seconds)
            print(f"round {r} {tag} read_cache 1e7: {seconds:.4f} s", flush=True)
            seconds = time_lag_sums(checkouts[tag])
            layers["lag_sums_s"]["samples"].append(seconds)
            print(f"round {r} {tag} lag sums: {seconds:.4f} s", flush=True)
            seconds = time_admissible(checkouts[tag], seed)
            layers["admissible_s"]["samples"].append(seconds)
            print(f"round {r} {tag} is_admissible: {seconds:.4f} s", flush=True)
            for name, timer in (("experiment_1e7_s", time_experiment),
                                ("decay_battery_s", time_battery), ("tier1_s", time_tier1)):
                seconds = timer(checkouts[tag])
                layers[name]["samples"].append(seconds)
                print(f"round {r} {tag} {name}: {seconds:.3f} s", flush=True)

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
