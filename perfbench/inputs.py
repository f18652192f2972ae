"""Seeded inputs for the three benchmark workloads.

Every input is a pure function of (workload, seed), drawn from numpy's PCG64
generator, so the same seed gives byte-identical inputs in every process
(`digest` hashes their canonical JSON form).  The program under test only
ever receives these generated values: offsets, angles and shift sets.

`battery_cold` takes no seeded input: its grid and angles are fixed by the
checked-in config and goldens.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

WORKLOADS = ("battery_cold", "far_windows", "lab_cached")

# far_windows: one short window near each base, as in Helfgott's short-interval
# sieving of mu far out.  A jitter below 1e9 keeps every window near its base.
FAR_BASES = (10**12, 10**13)
FAR_JITTER = 10**9
FAR_WIDTH = 1 << 16
FAR_SAMPLE = 32          # points per window checked against trial division

# lab_cached: the caches reach just above 1e7, far enough for every shift the
# batch below reads past N = 1e7 (the largest reach is window_energy's h*k).
LAB_TOP = 10**7 + 1024
LAB_GRID = [10**5, 10**6, 10**7]
LAB_SHORT_GRID = [10**5, 10**6, 4 * 10**6]    # short_interval reads up to 2X + H
ANGLE_POOL = 16          # reference.json holds the modulated sums for each pool angle
ROTATION_POLY = [{"freq": 1.0, "re": 1.0}, {"freq": 2.0, "re": 0.5},
                 {"freq": 3.0, "im": 0.25}]
SHIFT_UNIVERSE = 31      # criterion 10's family: subsets of {0..30} ...
SHIFT_MAX_SIZE = 6       # ... of size at most 6
ADMISSIBLE_CALLS = 75_000
ADMISSIBLE_CHECKED = 4_000   # verdicts re-derived by brute force after the pass
WINDOW_N = 1 << 16       # periodogram / measures window
CORRELATION_N = 10**6
CORRELATION_K = 128
RAJCHMAN_K = 32
SMOOTH_SCALE = 0.004
ENTROPY_L = [2, 4, 8, 12, 16]
ENTROPY_N = 500_000
MIRSKY_ONES = [0, 1, 3]
MIRSKY_ZEROS = [2, 6]
MIRSKY_N = 10**7


def pool_angle(k: int) -> float:
    """theta / (2 pi) of pool angle k: the Kronecker sequence frac((k+1) * phi)."""
    return math.fmod((k + 1) * 0.6180339887498949, 1.0)


def lab_experiments(theta_idx: int, alpha_idx: int) -> list[dict]:
    """The lab_cached batch as config entries.

    The first two use the exponential-sum kernel; the rest are exact integer
    routes whose values are fixed by the window alone.
    """
    return [
        {"id": "mobius_exponential", "name": "mobius_exponential",
         "params": {"theta_over_2pi": pool_angle(theta_idx)}, "n_grid": LAB_GRID},
        {"id": "rotation", "name": "rotation",
         "params": {"alpha": 2.0 * math.pi * pool_angle(alpha_idx), "poly": ROTATION_POLY},
         "n_grid": LAB_GRID},
        {"id": "pattern", "name": "pattern",
         "params": {"shifts": [0, 1, 2], "exponents": [1, 1, 2]}, "n_grid": LAB_GRID},
        {"id": "small_fraction", "name": "small_fraction",
         "params": {"H": 8, "delta": 0.001}, "n_grid": LAB_GRID},
        {"id": "short_interval", "name": "short_interval",
         "params": {"H": 100}, "n_grid": LAB_SHORT_GRID},
        {"id": "window_energy", "name": "window_energy",
         "params": {"k": 3, "h": 10}, "n_grid": LAB_GRID},
    ]


MODULATED = ("mobius_exponential", "rotation")


def _shift_sets(rng: np.random.Generator, count: int) -> list[list[int]]:
    """Uniform sample, with replacement, from all subsets of {0..30} of size <= 6."""
    sizes = np.arange(SHIFT_MAX_SIZE + 1)
    weights = np.array([math.comb(SHIFT_UNIVERSE, int(s)) for s in sizes], dtype=np.float64)
    drawn = rng.choice(sizes, size=count, p=weights / weights.sum())
    order = np.argsort(rng.random((count, SHIFT_UNIVERSE)), axis=1)
    return [sorted(row[:s].tolist()) for row, s in zip(order, drawn)]


def make_inputs(workload: str, seed: int) -> dict:
    """All generated inputs of one workload, as plain JSON-able values."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.Generator(np.random.PCG64([seed, WORKLOADS.index(workload)]))
    if workload == "battery_cold":
        return {}
    if workload == "far_windows":
        windows = []
        for base in FAR_BASES:
            lo = base + int(rng.integers(0, FAR_JITTER))
            points = sorted(int(j) for j in rng.choice(FAR_WIDTH, size=FAR_SAMPLE, replace=False))
            windows.append({"lo": lo, "hi": lo + FAR_WIDTH, "sample": [lo + j for j in points]})
        return {"windows": windows}
    theta_idx, alpha_idx = (int(k) for k in rng.integers(0, ANGLE_POOL, size=2))
    sets = _shift_sets(rng, ADMISSIBLE_CALLS)
    checked = sorted(int(j) for j in rng.choice(ADMISSIBLE_CALLS, size=ADMISSIBLE_CHECKED,
                                                replace=False))
    return {"theta_idx": theta_idx, "alpha_idx": alpha_idx,
            "experiments": lab_experiments(theta_idx, alpha_idx),
            "shift_sets": sets, "checked_sets": checked}


def digest(inputs: dict) -> str:
    """sha256 of the canonical JSON form of a set of inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
