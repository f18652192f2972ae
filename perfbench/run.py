#!/usr/bin/env python3
"""The mflab benchmark: one command for every workload and metric.

Run from the root of a checkout:

    python3 perfbench/run.py --workload battery_cold --seed 1 --seconds 30 --trace 0

Each pass runs in a fresh process (perfbench/child.py) started by this
single-threaded parent, so mflab's module-global window memo never carries
over between passes.  Passes repeat until the next one would end after --seconds.

--trace 0 prints the end-to-end metrics, as medians over the passes.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics, medians over the traced passes, plus trace.overhead_s.

The line before the last is a JSON record of provenance: machine, core
count, Python and numpy versions, BLAS thread setting, seed, input sizes,
every sample, the tail percentile where a run has enough samples, and the
error rate.  The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
README.md says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from math import isqrt
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs as gen
import oracles
import spans as spanlib

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
REQUIRED = ("src/mflab/__init__.py", "configs/decay_battery.json",
            "goldens/decay_battery.json", "BENCHMARK.json")
PASS_TIMEOUT_S = 150

END_TO_END = {"run_s": "s", "first_result_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MiB"}

PER_LAYER = {
    "sieve.calls": "count", "sieve.indices": "count", "sieve.busy_s": "s",
    "sieve.ns_per_index": "ns", "sieve.useful_ratio": "ratio",
    "sieve.prime_visits": "count", "sieve.ns_per_prime_visit": "ns",
    "cache.read_calls": "count", "cache.write_calls": "count", "cache.bytes_read": "B",
    "cache.bytes_written": "B", "cache.read_s": "s", "cache.write_s": "s",
    "cache.read_mb_per_s": "MB/s",
    "experiments.calls": "count", "experiments.self_s": "s",
    "experiments.window_wait_s": "s", "experiments.window_memo_hits": "count",
    "experiments.expsum_terms": "count", "experiments.expsum_ns_per_term": "ns",
    "config.run_s": "s", "config.self_s": "s", "config.golden_failures": "count",
    "sequences.correlation_s": "s", "sequences.lag_products": "count",
    "spectral.periodogram_s": "s", "spectral.fft_bins": "count",
    "measures.affinity_s": "s", "measures.smoothed_s": "s", "measures.rajchman_s": "s",
    "symbolic.admissible_calls": "count", "symbolic.admissible_us_per_call": "us",
    "symbolic.entropy_s": "s", "symbolic.mirsky_s": "s",
    "trace.overhead_s": "s",
}

# layers each workload must reach in a traced pass; an empty one fails the run
EXERCISED = {
    "battery_cold": {"sieve", "experiments", "config"},
    "far_windows": {"sieve", "cache"},
    "lab_cached": {"sieve", "cache", "experiments", "config", "sequences", "spectral",
                   "measures", "symbolic"},
}

INPUT_SIZES = {
    "battery_cold": "configs/decay_battery.json: 3 experiments x N in {1e5, 1e6, 1e7}, "
                    "3 labels sieved from 1 with regrowth",
    "far_windows": f"{len(gen.FAR_BASES)} windows of {gen.FAR_WIDTH} indices at "
                   f"{', '.join(f'{b:.0e}' for b in gen.FAR_BASES)} + U[0, {gen.FAR_JITTER:.0e}), "
                   f"3 labels each, written to and read back from a 2-bit cache; "
                   f"{gen.FAR_SAMPLE} trial-division points per window",
    "lab_cached": f"3 caches of {gen.LAB_TOP - 1} values; 6 experiments on N up to 1e7; "
                  f"correlation N={gen.CORRELATION_N} K={gen.CORRELATION_K}; periodogram "
                  f"n={gen.WINDOW_N}; {gen.ADMISSIBLE_CALLS} is_admissible calls; entropy "
                  f"N={gen.ENTROPY_N} L={gen.ENTROPY_L}; mirsky n={gen.MIRSKY_N}",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def blas_threads() -> int:
    """numpy's BLAS pool is held at the number of cores this process may use."""
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def spawn(workload: str, seed: int, role: str, traced: bool, work: Path) -> tuple[float, dict]:
    """Run one child process; returns its spawn stamp and its result record."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--role", role, "--work", str(work)] + (["--traced"] if traced else [])
    spawned = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=PASS_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process of {workload} exited {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["exited"] = perf_counter()
    return spawned, record


def one_pass(workload: str, seed: int, traced: bool) -> dict:
    """Set-up and pass; times are seconds from the pass process's own stamps."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = 0.0
    spans: list[list] = []
    if workload == "lab_cached":
        spawned, cache = spawn(workload, seed, "cache", traced, work)
        setup += cache["exited"] - spawned
        spans += cache.get("spans", [])
    spawned, rec = spawn(workload, seed, "pass", traced, work)
    offset = len(spans)
    spans += [[n, s, e, p + offset if p >= 0 else p, a] for n, s, e, p, a in rec.get("spans", [])]
    return {
        "traced": traced,
        "setup_s": setup + rec["ready"] - spawned,
        "run_s": rec["end"] - rec["ready"],
        "first_result_s": rec["first"] - rec["ready"],
        "cpu_s": rec["cpu_s"],
        "peak_rss_mb": rec["peak_rss_kib"] / 1024.0,
        "wall_s": rec["exited"] - spawned + setup,
        "attempted": rec["attempted"],
        "failures": rec["failures"],
        "inputs_sha256": rec["inputs_sha256"],
        "segment": rec["segment"],
        "spans": spans,
    }


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, or None below 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def summary(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values), "tail": tail(values),
            "values": values}


def provenance(workload: str, seed: int, inp: dict, seconds: int, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": platform.machine(), "platform": platform.platform(),
        "processor": platform.processor(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": blas_threads(), "inputs_sha256": gen.digest(inp),
        "input_sizes": INPUT_SIZES[workload],
        "note": "the largest array is about 10 MB of int8 at N=1e7, well inside the 300 MiB "
                "L3 of the reference machine, so layers report computed bytes and operation "
                "counts, not bandwidth",
    }


def layer_values(passes: list[dict], workload: str, problems: list[str]) -> dict[str, list]:
    """Per-layer metric samples over traced passes; an unreached layer is a problem."""
    top = max([s[4]["hi"] for p in passes for s in p["spans"] if s[0] == "sieve"], default=4)
    primes = oracles.prime_table(isqrt(top))
    out: dict[str, list] = {}
    for p in passes:
        missing = EXERCISED[workload] - spanlib.layers_seen(p["spans"])
        if missing:
            problems.append(f"traced pass recorded no span in layer(s) {sorted(missing)}")
        for name, value in spanlib.layer_metrics(p["spans"], p["segment"], primes).items():
            out.setdefault(name, []).append(value)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in gen.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; expected one of {gen.WORKLOADS}")
    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        return fail(f"not a checkout of mflab: missing {', '.join(missing)}")
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())

    inp = gen.make_inputs(args.workload, args.seed)
    digest = gen.digest(inp)
    shutil.rmtree(WORK, ignore_errors=True)
    passes: list[dict] = []
    start = perf_counter()
    minimum = 4 if args.trace else 3
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(one_pass(args.workload, args.seed, traced))
        elapsed = perf_counter() - start
        longest = max(p["wall_s"] for p in passes[-2:])
        if len(passes) >= minimum and elapsed + longest > args.seconds:
            break

    problems = [f for p in passes for f in p["failures"]]
    problems += [f"pass inputs differ from run.py's (sha256 {p['inputs_sha256']})"
                 for p in passes if p["inputs_sha256"] != digest]
    attempted = sum(p["attempted"] for p in passes) + len(passes)
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        spanned = [p for p in passes if p["traced"]]
        attempted += len(spanned)
        samples = layer_values(spanned, args.workload, problems)
        samples["trace.overhead_s"] = [statistics.median(p["run_s"] for p in spanned)
                                       - statistics.median(p["run_s"] for p in plain)]
        samples["untraced.run_s"] = [p["run_s"] for p in plain]
        samples["traced.run_s"] = [p["run_s"] for p in spanned]
        table, wanted = PER_LAYER, listed["per_layer"]
    else:
        samples = {name: [p[name] for p in plain] for name in END_TO_END}
        table, wanted = END_TO_END, listed["end_to_end"]
    failed = len(problems)
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in table.items()}
    for entry in wanted:
        got = metrics.get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            return fail(f"metric {entry['name']} ({entry['unit']}) listed in BENCHMARK.json "
                        f"is not produced with that unit")
    if len(wanted) != len(metrics):
        return fail("the benchmark produces metrics that BENCHMARK.json does not list")

    record = provenance(args.workload, args.seed, inp, args.seconds, args.trace)
    record.update(passes=len(passes), error_rate=failed / attempted,
                  failures=problems[:20], samples={k: summary(v) for k, v in samples.items()})
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
