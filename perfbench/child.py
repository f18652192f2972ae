"""One pass of one workload, in a fresh process.

Run by run.py, never by hand:

    python3 perfbench/child.py --workload W --seed S --role pass|cache --work DIR [--traced]

It imports mflab from the checkout's src/, generates the workload's inputs
from the seed, runs the pass, then checks the outputs outside the timed
region.  The last stdout line is one JSON object with perf_counter stamps
(CLOCK_MONOTONIC, so run.py can compare them with its own), CPU time, peak
RSS, the check tally and, in a traced pass, the spans.

role `cache` is lab_cached's set-up step: it sieves the three labels to just
above 1e7 and writes them as <label>.bin into DIR/cache.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, time_ns

import numpy as np

import inputs as gen
import oracles
import spans as spanlib

ROOT = Path.cwd()
LABELS = ("mobius", "liouville", "squarefree")
TOLERANCE = 1e-9         # the davenport_theta_star golden's tolerance


class Mods:
    """mflab's modules, looked up by attribute at call time so wrappers apply."""

    def __init__(self) -> None:
        for name in ("sieve", "cache", "config", "experiments", "sequences", "spectral",
                     "measures", "symbolic"):
            setattr(self, name, importlib.import_module(f"mflab.{name}"))
        src = (ROOT / "src").resolve()
        if src not in Path(self.sieve.__file__).resolve().parents:
            raise SystemExit(f"mflab imported from {self.sieve.__file__}, not from {src}")


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _first_report(reports: Path, name: str) -> float:
    """perf_counter stamp at which the named report file was written, from its mtime."""
    written = (reports / f"{name}.json").stat().st_mtime_ns
    return perf_counter() - (time_ns() - written) / 1e9


# ---------------------------------------------------------------------------
# Workloads: run() is timed and returns the perf_counter stamp of the first
# result plus whatever check() needs; check() runs after the clock stops.


def battery_run(m: Mods, inp: dict, work: Path):
    config = m.config.load_config(ROOT / "configs" / "decay_battery.json")
    config.output_dir = str(work / "reports")
    config.golden_file = str(ROOT / "goldens" / "decay_battery.json")
    code = m.config.run(config)
    first = _first_report(work / "reports", config.experiments[0].name)
    return first, code


def battery_check(m: Mods, inp: dict, work: Path, code, checks: Checks) -> None:
    checks.expect(code == 0, f"decay battery golden comparison exited {code}")


def far_run(m: Mods, inp: dict, work: Path):
    first = None
    windows = []
    for k, w in enumerate(inp["windows"]):
        seqs = {}
        for label in LABELS:
            seqs[label] = m.sieve.sieve(label, w["lo"], w["hi"])
            first = first or perf_counter()
        back = {}
        for label, seq in seqs.items():
            path = work / f"far{k}_{label}.bin"
            m.cache.write_cache(path, seq)
            back[label] = m.cache.read_cache(path)
        windows.append((seqs, back))
    return first, windows


def far_check(m: Mods, inp: dict, work: Path, windows, checks: Checks) -> None:
    oracle = oracles.TrialDivision(max(w["hi"] for w in inp["windows"]))
    for w, (seqs, back) in zip(inp["windows"], windows):
        mu, lam, sq = (seqs[label].values for label in LABELS)
        checks.expect(bool(np.array_equal(mu, lam * sq)),
                      f"mobius != liouville * squarefree on [{w['lo']}, {w['hi']})")
        for n in w["sample"]:
            got = tuple(int(seqs[label].value(n)) for label in LABELS)
            want = oracle.sign_values(n)
            checks.expect(got == want, f"values at {n}: sieve {got}, trial division {want}")
        for label in LABELS:
            a, b = seqs[label], back[label]
            checks.expect(b.label == a.label and b.start == a.start
                          and b.values.dtype == a.values.dtype
                          and b.values.tobytes() == a.values.tobytes(),
                          f"{label} cache round trip at {w['lo']} is not byte-exact")


def lab_cache(m: Mods, work: Path) -> None:
    cache = work / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    for label in LABELS:
        m.cache.write_cache(cache / f"{label}.bin", m.sieve.sieve(label, 1, gen.LAB_TOP))


def lab_run(m: Mods, inp: dict, work: Path):
    reports = work / "reports"
    config = m.config.parse_config({"experiments": inp["experiments"],
                                    "output_dir": str(reports),
                                    "cache_dir": str(work / "cache")})
    code = m.config.run(config)
    first = _first_report(reports, inp["experiments"][0]["name"])

    BoundedSeq = m.sequences.BoundedSeq
    mu = m.experiments.sign_window("mobius", gen.LAB_TOP - 1)
    lam = m.experiments.sign_window("liouville", gen.LAB_TOP - 1)
    sq = m.experiments.sign_window("squarefree", gen.LAB_TOP - 1)
    g_mu = BoundedSeq.from_samples(mu, label="mobius", sup_bound=1.0)
    g_lam = BoundedSeq.from_samples(lam, label="liouville", sup_bound=1.0)
    table = m.sequences.correlation_table(g_mu, gen.CORRELATION_N, gen.CORRELATION_K)
    gram_mu = m.spectral.periodogram(g_mu, gen.WINDOW_N)
    gram_lam = m.spectral.periodogram(g_lam, gen.WINDOW_N)
    aff = m.measures.affinity(gram_mu.measure, gram_lam.measure)
    hel = m.measures.hellinger(gram_mu.measure, gram_lam.measure)
    smooth = m.measures.smoothed(gram_mu.measure, gen.SMOOTH_SCALE)
    m.measures.rajchman_profile(smooth, gen.RAJCHMAN_K)

    verdicts = [m.symbolic.is_admissible(s) for s in inp["shift_sets"]]
    m.symbolic.block_entropy_estimate(mu, gen.ENTROPY_L, gen.ENTROPY_N)
    mirsky = m.symbolic.mirsky_cylinder_density(gen.MIRSKY_ONES, gen.MIRSKY_ZEROS,
                                                gen.MIRSKY_N, squarefree_window=sq)
    out = {"code": code, "reports": reports, "mu": mu, "sq": sq, "table": table,
           "gram_mu": gram_mu, "aff": aff, "hel": hel, "smooth": smooth,
           "verdicts": verdicts, "mirsky": mirsky}
    return first, out


def lab_check(m: Mods, inp: dict, work: Path, out: dict, checks: Checks) -> None:
    checks.expect(out["code"] == 0, f"lab batch exited {out['code']}")
    ref = json.loads((Path(__file__).parent / "reference.json").read_text())
    expected = dict(ref["integer"])
    expected["mobius_exponential"] = ref["modulated"][inp["theta_idx"]]["mobius_exponential"]
    expected["rotation"] = ref["modulated"][inp["alpha_idx"]]["rotation"]
    for spec in inp["experiments"]:
        name = spec["name"]
        grid = json.loads((out["reports"] / f"{name}.json").read_text())["grid"]
        for row, (re_, im_) in zip(grid, expected[name]):
            if name in gen.MODULATED:
                ok = abs(complex(row["value_re"], row["value_im"]) - complex(re_, im_)) <= TOLERANCE
            else:
                ok = (row["value_re"], row["value_im"]) == (re_, im_)
            checks.expect(ok, f"{name} at N={row['N']}: {row['value_re']}+{row['value_im']}j, "
                              f"reference {re_}+{im_}j")
        checks.expect(len(grid) == len(expected[name]), f"{name} grid length differs")

    mu, sq = out["mu"], out["sq"]
    n = gen.CORRELATION_N
    lag0 = int(np.count_nonzero(mu[:n])) / n
    checks.expect(out["table"].values[0] == lag0, "correlation at lag 0 is not the mu^2 density")
    mass = out["gram_mu"].measure.total_mass
    square = int(np.count_nonzero(mu[: gen.WINDOW_N])) / gen.WINDOW_N
    checks.expect(abs(mass - square) <= 1e-10 * square, "periodogram mass breaks Parseval")
    checks.expect(0.0 <= out["aff"] <= 1.0 and 0.0 <= out["hel"], "affinity out of range")
    checks.expect(abs(out["smooth"].total_mass - out["gram_mu"].measure.total_mass)
                  <= 1e-9 * mass, "smoothing changed the total mass")

    for j in inp["checked_sets"]:
        shifts = inp["shift_sets"][j]
        checks.expect(out["verdicts"][j] == oracles.admissible(shifts),
                      f"is_admissible({shifts}) disagrees with residue enumeration")

    hits = np.ones(gen.MIRSKY_N, dtype=bool)
    for a in gen.MIRSKY_ONES:
        hits &= sq[a : a + gen.MIRSKY_N] == 1
    for b in gen.MIRSKY_ZEROS:
        hits &= sq[b : b + gen.MIRSKY_N] == 0
    checks.expect(out["mirsky"].empirical == np.count_nonzero(hits) / gen.MIRSKY_N,
                  "mirsky empirical density differs from a direct count")


WORKLOADS = {
    "battery_cold": (battery_run, battery_check),
    "far_windows": (far_run, far_check),
    "lab_cached": (lab_run, lab_check),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=("pass", "cache"), default="pass")
    ap.add_argument("--work", required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    work = Path(args.work)

    m = Mods()
    rec = spanlib.install() if args.traced else None
    result: dict = {}
    if args.role == "cache":
        lab_cache(m, work)
    else:
        inp = gen.make_inputs(args.workload, args.seed)
        result.update(inputs_sha256=gen.digest(inp), segment=m.sieve.SEGMENT)
        run, check = WORKLOADS[args.workload]
        ready = perf_counter()
        cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        first, out = run(m, inp, work)
        end = perf_counter()
        cpu1 = resource.getrusage(resource.RUSAGE_SELF)
        checks = Checks()
        check(m, inp, work, out, checks)
        result.update(
            ready=ready, first=first, end=end,
            cpu_s=(cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
            peak_rss_kib=cpu1.ru_maxrss,
            attempted=checks.attempted, failures=checks.failures)
    if rec is not None:
        result["spans"] = rec.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
