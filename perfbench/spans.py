"""Spans around calls into mflab's layers, for the traced run only.

`install` replaces the public names that calling modules look up (for
example `mflab.experiments.sieve`, the binding experiments.py calls) with
wrappers that record a span: name, start, end, parent and a few attributes
derived from the call's arguments.  Spans stay in memory and are written out
once, when the pass ends.  Nothing is wrapped in an untraced pass.

`layer_metrics` turns the spans of one pass into the per-layer metrics.  A
span's self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import importlib
import inspect
import os
from math import isqrt
from time import perf_counter

import numpy as np

EXPERIMENT_FNS = ("mobius_exponential_sum", "squarefree_modulated_sum", "pattern_correlation",
                  "two_point_correlation", "small_correlation_fraction", "windowed_sum_energy",
                  "short_interval_average", "rotation_orthogonality")

# module -> names wrapped there; a function bound in several modules is
# wrapped in each, under one span name
TARGETS = {
    "mflab.sieve": ("sieve",),
    "mflab.cache": ("read_cache", "write_cache"),
    "mflab.experiments": ("sieve", "read_cache", "sign_window", *EXPERIMENT_FNS),
    "mflab.config": ("load_config", "run", "run_experiment", "read_cache"),
    "mflab.sequences": ("correlation_table",),
    "mflab.spectral": ("periodogram",),
    "mflab.measures": ("affinity", "hellinger", "smoothed", "rajchman_profile"),
    "mflab.symbolic": ("is_admissible", "block_entropy_estimate", "mirsky_cylinder_density"),
}

LAYER_OF = {"sieve": "sieve", "read_cache": "cache", "write_cache": "cache",
            "sign_window": "experiments", "run_experiment": "experiments",
            **{fn: "experiments" for fn in EXPERIMENT_FNS},
            "load_config": "config", "run": "config",
            "correlation_table": "sequences", "periodogram": "spectral",
            "affinity": "measures", "hellinger": "measures", "smoothed": "measures",
            "rajchman_profile": "measures", "is_admissible": "symbolic",
            "block_entropy_estimate": "symbolic", "mirsky_cylinder_density": "symbolic"}

# attributes recorded per span, from the bound call arguments and the result
_ATTRS = {
    "sieve": lambda a, r: {"label": a["label"], "lo": a["lo"], "hi": a["hi"]},
    "sign_window": lambda a, r: {"label": a["label"], "hi": a["hi"]},
    "read_cache": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "write_cache": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "mobius_exponential_sum": lambda a, r: {"theta": a["theta"], "N": a["N"]},
    "squarefree_modulated_sum": lambda a, r: {"theta": a["theta"], "N": a["N"]},
    "correlation_table": lambda a, r: {"N": a["N"], "K": a["K"]},
    "periodogram": lambda a, r: {"bins": r.measure.bins},
    "run": lambda a, r: {"code": r},
}


class Recorder:
    """In-memory span list; span i is [name, start, end, parent index or -1, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if attrs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[idx][4] = attrs(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def install() -> Recorder:
    rec = Recorder()
    for modname, names in TARGETS.items():
        mod = importlib.import_module(modname)
        for name in names:
            setattr(mod, name, rec.wrap(name, getattr(mod, name)))
    return rec


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


class SpanIndex:
    """Spans of one pass with parent links resolved."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)

    def named(self, *names: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def outermost(self, *names: str) -> list[int]:
        """Spans with one of the names and no ancestor with one of them."""
        out = []
        for i in self.named(*names):
            p = self.spans[i][3]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def busy(self, *names: str) -> float:
        return sum(self.duration(i) for i in self.outermost(*names))

    def self_time(self, i: int) -> float:
        kids = [(self.spans[c][1], self.spans[c][2]) for c in self.children[i]]
        return self.duration(i) - _covered(kids)

    def attr(self, i: int, key: str):
        return self.spans[i][4][key]


def layers_seen(spans: list[list]) -> set[str]:
    return {LAYER_OF[s[0]] for s in spans}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[list], segment: int, primes: np.ndarray) -> dict[str, float]:
    """Per-layer metrics of one pass; `primes` must reach isqrt of every sieved index.

    Rates over a layer with no work read 0; whether a layer the workload
    exercises recorded any span is checked separately (`layers_seen`).
    """
    ix = SpanIndex(spans)
    m: dict[str, float] = {}

    sieves = ix.outermost("sieve")
    indices = sum(ix.attr(i, "hi") - ix.attr(i, "lo") for i in sieves)
    # asked: for windows, the longest hi each label's callers wanted through
    # sign_window; for direct calls, the range requested
    asked_window: dict[str, int] = {}
    asked = 0
    for i in sieves:
        p = ix.spans[i][3]
        if p >= 0 and ix.spans[p][0] == "sign_window":
            label = ix.attr(p, "label")
            asked_window[label] = max(asked_window.get(label, 0), ix.attr(p, "hi"))
        else:
            asked += ix.attr(i, "hi") - ix.attr(i, "lo")
    asked += sum(asked_window.values())
    # computed, not counted: one visit per base prime p <= isqrt(end - 1) of each segment
    visits = 0
    for i in sieves:
        lo, hi = ix.attr(i, "lo"), ix.attr(i, "hi")
        ends = [min(s + segment, hi) - 1 for s in range(lo, hi, segment)]
        visits += int(np.searchsorted(primes, [isqrt(e) for e in ends], side="right").sum())
    busy = ix.busy("sieve")
    m["sieve.calls"] = len(sieves)
    m["sieve.indices"] = indices
    m["sieve.busy_s"] = busy
    m["sieve.ns_per_index"] = _ratio(busy, indices, 1e9)
    m["sieve.useful_ratio"] = _ratio(asked, indices)
    m["sieve.prime_visits"] = visits
    m["sieve.ns_per_prime_visit"] = _ratio(busy, visits, 1e9)

    reads, writes = ix.outermost("read_cache"), ix.outermost("write_cache")
    bytes_read = sum(ix.attr(i, "bytes") for i in reads)
    read_s = ix.busy("read_cache")
    m["cache.read_calls"] = len(reads)
    m["cache.write_calls"] = len(writes)
    m["cache.bytes_read"] = bytes_read
    m["cache.bytes_written"] = sum(ix.attr(i, "bytes") for i in writes)
    m["cache.read_s"] = read_s
    m["cache.write_s"] = ix.busy("write_cache")
    m["cache.read_mb_per_s"] = _ratio(bytes_read, read_s, 1e-6)

    exp_layer = [i for i, s in enumerate(spans) if LAYER_OF[s[0]] == "experiments"]
    windows = ix.named("sign_window")
    loaders = {"sieve", "read_cache"}
    kernels = [i for i in ix.named("mobius_exponential_sum", "squarefree_modulated_sum")
               if ix.attr(i, "theta") != 0.0]
    terms = sum(ix.attr(i, "N") for i in kernels)
    m["experiments.calls"] = len(ix.outermost(*EXPERIMENT_FNS))
    m["experiments.self_s"] = sum(ix.self_time(i) for i in exp_layer)
    m["experiments.window_wait_s"] = ix.busy("sign_window")
    m["experiments.window_memo_hits"] = sum(
        not any(ix.spans[c][0] in loaders for c in ix.children[i]) for i in windows)
    m["experiments.expsum_terms"] = terms
    m["experiments.expsum_ns_per_term"] = _ratio(sum(ix.self_time(i) for i in kernels), terms, 1e9)

    runs = ix.named("run")
    m["config.run_s"] = sum(ix.duration(i) for i in runs)
    m["config.self_s"] = ix.busy("load_config", "run") - ix.busy("run_experiment")
    m["config.golden_failures"] = sum(ix.attr(i, "code") != 0 for i in runs)

    m["sequences.correlation_s"] = ix.busy("correlation_table")
    m["sequences.lag_products"] = sum(
        ix.attr(i, "N") * (ix.attr(i, "K") + 1) for i in ix.outermost("correlation_table"))
    m["spectral.periodogram_s"] = ix.busy("periodogram")
    m["spectral.fft_bins"] = sum(ix.attr(i, "bins") for i in ix.outermost("periodogram"))
    m["measures.affinity_s"] = ix.busy("affinity", "hellinger")
    m["measures.smoothed_s"] = ix.busy("smoothed")
    m["measures.rajchman_s"] = ix.busy("rajchman_profile")

    admissible = ix.outermost("is_admissible")
    m["symbolic.admissible_calls"] = len(admissible)
    m["symbolic.admissible_us_per_call"] = _ratio(ix.busy("is_admissible"), len(admissible), 1e6)
    m["symbolic.entropy_s"] = ix.busy("block_entropy_estimate")
    m["symbolic.mirsky_s"] = ix.busy("mirsky_cylinder_density")
    return m
