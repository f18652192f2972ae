"""Decay experiments for sign sequences against structured targets.

Each experiment evaluates one normalised average at a grid of window
lengths N and reports the values together with coarse decay indicators.
Averages over integer-valued windows are computed in exact integer
arithmetic and divided once at the end.  Modulated averages
(1/N) sum mask[n-1] exp(i n theta) use the row-phase identity
exp(i theta (n0 + j)) = exp(i theta n0) exp(i theta j): a small matrix
product with one table of exp(i theta j), j < ROW, rounded to integers,
sums each row of ROW terms exactly, and each row sum is turned by its phase
exp(i theta n0), so the bits do not depend on the BLAS kernel (see
summation.modulated_average, which states the error bound); the float64
row starts n0 are exact below 2**53.  It takes a list of angles and makes one pass for
all of them, so rotation_orthogonality converts each block of the Mobius
window to float once for all its harmonics; each angle keeps its own table,
and so the bits it gets alone.  Each EXPERIMENTS entry checks and converts an
experiment's params once per report (see build_experiment), refusing
unknown or missing names and any value of the wrong type or range.
Reports are JSON with sorted keys, so identical configurations produce
byte-identical files apart from the wall-clock field.  Every window is read
through one WindowStore, which sieves only the two sign labels (mu^2 is
read off mu) and refuses to grow a window past its limit.  The kernels are
reductions over summation.blocks, which streams their windows in slices of
BLOCK indices (the lag sums pack spans of PLANE_SPAN), so the store's
windows are the only arrays of window length a run holds.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import time
from dataclasses import dataclass
from functools import partial
from operator import index
from pathlib import Path
from typing import Callable

import numpy as np

from .cache import read_cache, read_header
from .errors import (
    AllSquaredError,
    CacheFormatError,
    InvalidRangeError,
    NotDisjointError,
    WindowLimitError,
)
from .sequences import TrigPoly
from .sieve import LABELS, SEGMENT, SignSeq, sieve
from .summation import BLOCK, blocks, lag_sums, modulated_average, product_sum

# golden-ratio frequency used by the default battery
THETA_STAR = 2.0 * math.pi * (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GRID = (10**5, 10**6, 10**7)
# longest window a store grows to unless allow_large raises it: 32 segments,
# above short_interval's 2X + H = 3e7 at X = H = 1e7
WINDOW_LIMIT = 1 << 25
# what a config.run batch with allow_large raises a lower limit to: a sixth of
# the physical memory, as the store holds two sieved int8 windows, while they
# grow one old window next to the two grown ones, and a caller may hold a
# square-free window derived from mu as a new array of its own
LARGE_LIMIT = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 6


# ---------------------------------------------------------------------------
# Window provider


class WindowStore:
    """Owner of the memoised windows: per label, the values for n = 1..len.

    Windows only grow: adopt takes a longer one from load_caches, and get
    sieves the missing tail up to a multiple of the sieve segment, filling
    mobius and liouville in one pass when their windows end at the same
    index.  The store holds a square-free window only when one is adopted;
    a request that it does not cover gets mu & 1 for n = 1..hi, a new array
    that the caller owns and the store does not keep.  Grown windows are
    new arrays, as callers keep views; each old window is copied into its
    grown array and the store holds that prefix, so the old array is freed
    before the tail is sieved.  If the sieve raises, the store keeps those
    prefixes (no entry for a window grown from nothing), never a
    half-filled window.

    limit is the longest window get grows to: a request for more raises
    WindowLimitError before anything is sieved or allocated; a square-free
    request is refused only when the Mobius window must grow.  Windows
    already held (adopted from a cache, or grown under a higher limit) are
    served at any length.
    """

    def __init__(self, limit: int = WINDOW_LIMIT) -> None:
        self.limit = limit
        self._windows: dict[str, np.ndarray] = {}

    def _length(self, label: str) -> int:
        have = self._windows.get(label)
        return 0 if have is None else len(have)

    def adopt(self, seq: SignSeq) -> None:
        """Hold a window that starts at n = 1 if it is longer than the current one."""
        if seq.start == 1 and len(seq) > self._length(seq.label):
            self._windows[seq.label] = seq.values

    def get(self, label: str, hi: int) -> np.ndarray:
        """Values of label for n = 1..hi; see sign_window."""
        if label not in LABELS:
            raise ValueError(f"unknown label {label!r}")
        if hi < 1:
            raise InvalidRangeError(f"need hi >= 1, got {hi}")
        if self._length(label) < hi:
            if label == "squarefree":
                # the limit binds only if the Mobius window must grow
                return self.get("mobius", hi) & 1
            if hi > self.limit:
                raise WindowLimitError(f"a {label} window of {hi} indices would pass the limit "
                                       f"of {self.limit}; set allow_large in a config to raise it")
            self._extend(label, hi)
        return self._windows[label][:hi]

    def _extend(self, label: str, hi: int) -> None:
        stop = self._length(label)
        new_stop = -(-hi // SEGMENT) * SEGMENT
        grown: dict[str, np.ndarray] = {}
        for name in ("mobius", "liouville"):
            if self._length(name) == stop:
                grown[name] = np.empty(new_stop, dtype=np.int8)
                if stop:
                    grown[name][:stop] = self._windows[name]
                    # frees the old array unless a caller holds a view of it
                    self._windows[name] = grown[name][:stop]
        # the module-level sieve, so a substitute installed on this module
        # (a test double, a tracing wrapper) sees every pass
        sieve(label, stop + 1, new_stop + 1,
              out={name: arr[stop:] for name, arr in grown.items()})
        self._windows.update(grown)


WINDOWS = WindowStore()


def sign_window(label: str, hi: int) -> np.ndarray:
    """Values of a label for n = 1..hi as an int8 view (index n-1).

    Served from the module's WindowStore, which holds what load_caches put
    there and what earlier calls sieved.  A window too short for hi is
    extended by sieving only the indices past its end, up to hi rounded up
    to a multiple of SEGMENT, for both sign labels when they end together.
    The result is a view: later growth allocates new arrays and leaves
    views handed out earlier intact.  squarefree, unless an adopted cache
    window covers hi, is mu & 1, a new array rather than a view.  A
    window that would grow past the store's limit raises WindowLimitError.
    """
    return WINDOWS.get(label, hi)


def squarefree_support(hi: int) -> np.ndarray:
    """A window for n = 1..hi that is nonzero exactly where n is square-free:
    an adopted square-free window if one covers hi, else the Mobius window,
    so neither is derived nor sieved.  Both are read through sign_window."""
    return sign_window("squarefree" if WINDOWS._length("squarefree") >= hi else "mobius", hi)


def load_caches(directory: str | Path) -> None:
    """Verify every *.bin file in directory, in sorted order, then adopt each
    window for the label in its header, whatever the file name.

    Nothing is adopted unless every file passes, so a run never silently
    recomputes around a cache it was pointed at.  A malformed or corrupt
    file raises CacheFormatError or CacheChecksumError.  CacheFormatError
    also names a file whose window does not start at n = 1 or whose label
    is not one of LABELS, and is raised for a path that is not an existing
    directory or holds no *.bin file.  A file whose window is longer than
    the store's limit (config.run raises it for allow_large) raises
    WindowLimitError.  Every header is checked before any payload is read.
    """
    if not Path(directory).is_dir():
        raise CacheFormatError(f"cache directory {str(directory)!r} is not an existing directory")
    paths = sorted(Path(directory).glob("*.bin"))
    if not paths:
        raise CacheFormatError(f"cache directory {str(directory)!r} holds no *.bin file")
    for path in paths:
        label, start, length = read_header(path)
        if label not in LABELS or start != 1:
            raise CacheFormatError(
                f"{path}: a cache window must start at n = 1 with a label in {LABELS}, "
                f"got label {label!r} starting at {start}")
        if length > WINDOWS.limit:
            raise WindowLimitError(f"{path}: a {label} cache of {length} values passes the limit "
                                   f"of {WINDOWS.limit}; set allow_large in a config to raise it")
    # names looked up per call, so tracing wrappers and test stores apply
    seqs = [read_cache(path) for path in paths]
    for seq in seqs:
        WINDOWS.adopt(seq)


# ---------------------------------------------------------------------------
# The experiments


def mobius_exponential_sum(theta: float, N: int) -> complex:
    """(1/N) * sum_{n<=N} mobius(n) * exp(i n theta)."""
    if N < 1:
        raise InvalidRangeError(f"N must be >= 1, got {N}")
    return modulated_average([sign_window("mobius", N)], [theta], N)[0]


def squarefree_modulated_sum(shifts, theta: float, N: int) -> complex:
    """Mobius average twisted by exp(i n theta), restricted to the n whose
    shifted neighbours n + a are all square-free, as mobius(n + a)^2 = 1.
    Shifts go through operator.index: a float or str raises TypeError."""
    if N < 1:
        raise InvalidRangeError(f"N must be >= 1, got {N}")
    shifts = sorted({index(a) for a in shifts})
    if min(shifts, default=1) < 1:
        raise InvalidRangeError("shifts must be >= 1")
    mu = sign_window("mobius", N + max(shifts, default=0))
    return modulated_average([mu] + [mu[a:] for a in shifts] * 2, [theta], N)[0]


@dataclass(frozen=True)
class Pattern:
    """Shift pattern with exponents: shifts[i] carries exponents[i] in {1, 2},
    and at least one exponent is 1 (else AllSquaredError)."""

    shifts: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.shifts) != len(self.exponents):
            raise ValueError("shifts and exponents must align")
        if len(set(self.shifts)) != len(self.shifts):
            raise NotDisjointError("pattern shifts must be distinct")
        if any(a < 0 for a in self.shifts):
            raise InvalidRangeError("shifts must be non-negative")
        if not set(self.exponents) <= {1, 2}:
            raise ValueError("exponents must be 1 or 2")
        if len(self.shifts) == 0:
            raise InvalidRangeError("pattern must be non-empty")
        if 1 not in self.exponents:
            # squaring every factor leaves no sign content
            raise AllSquaredError("pattern needs at least one exponent equal to 1")


def pattern_correlation(pattern: Pattern, N: int, label: str = "mobius") -> float:
    """(1/N) * sum_{n<=N} of the product of label(n + a)^e over the pattern.

    A square-free factor is read off squarefree_support as its square, two
    factors whatever its exponent."""
    if N < 1:
        raise InvalidRangeError(f"N must be >= 1, got {N}")
    reach = max(pattern.shifts)
    exponents = pattern.exponents
    if label == "squarefree":
        w, exponents = squarefree_support(N + reach), (2,) * len(exponents)
    else:
        w = sign_window(label, N + reach)
    factors = [w[a:] for a, e in zip(pattern.shifts, exponents) for _ in range(e)]
    return product_sum(factors, N) / N


def two_point_correlation(h: int, X: int) -> float:
    """|(1/X) * sum_{j<=X} liouville(j) * liouville(j+h)|."""
    if h < 1 or X < 1:
        raise InvalidRangeError(f"need h >= 1 and X >= 1, got h={h}, X={X}")
    lam = sign_window("liouville", X + h)
    return abs(lag_sums(lam, [h], 0, X)[0]) / X


def small_correlation_fraction(H: int, X: int, delta: float) -> float:
    """Fraction of lags h <= H whose two-point sum is below delta * X."""
    if H < 1 or X < 1:
        raise InvalidRangeError(f"need H >= 1 and X >= 1, got H={H}, X={X}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    lam = sign_window("liouville", X + H)
    hits = sum(abs(s) <= delta * X for s in lag_sums(lam, range(1, H + 1), 0, X))
    return hits / H


def windowed_sum_energy(k: int, h: int, N: int) -> float:
    """(1/N) * sum_{n<=N} |sum_{l=1..h} mobius(n + k*l)|^2, exactly.

    By Veech's identity it equals |D_h(k theta)|^2, the squared Dirichlet
    kernel, integrated against the periodogram of mobius on [1, N + h*k],
    up to edge effects of at most (2*h*k/N) * h^2.  The window is streamed
    one BLOCK at a time.
    """
    if k < 1 or h < 1 or N < 1:
        raise InvalidRangeError(f"need k, h, N >= 1, got k={k}, h={h}, N={N}")
    mu = sign_window("mobius", N + h * k)
    # |sum| <= h: the narrowest dtypes that hold -h and -h^2
    sums = np.empty(min(BLOCK, N), dtype=np.min_scalar_type(-h - 1))
    squares = np.empty(len(sums), dtype=np.min_scalar_type(-h * h - 1))
    total = 0
    for _, part in blocks([mu[k * l :] for l in range(1, h + 1)], N, sums, np.add):
        sq = squares[: len(part)]
        np.square(part, out=sq, dtype=sq.dtype)
        total += int(np.sum(sq, dtype=np.int64))
    return total / N


def short_interval_average(H: int, X: int) -> float:
    """(1/(H*X)) * sum_{x=X..2X-1} |sum_{x < k <= x+H} mobius(k)|."""
    if H < 1 or X < 1:
        raise InvalidRangeError(f"need H >= 1 and X >= 1, got H={H}, X={X}")
    # mu[i] = mobius(X + 1 + i); inner(i) = sum of mu[i..i+H-1] is the inner
    # sum at x = X + i, and inner(i + 1) = inner(i) + mu[i + H] - mu[i]
    mu = sign_window("mobius", 2 * X + H)[X:]
    carry = int(np.sum(mu[:H], dtype=np.int64))  # inner(0)
    steps = np.empty(min(BLOCK, X) + 1, dtype=np.int64)  # the carry, then the block's steps
    total = 0
    for b, part in blocks([mu[H:], mu], X, steps[1:], np.subtract):
        size = len(part)
        run = steps[: size + 1]
        run[0] = carry
        np.cumsum(run, out=run)  # run[j] = inner(b + j)
        carry = int(run[size])
        total += int(np.sum(np.abs(run[:size], out=run[:size]), dtype=np.int64))
    return total / (H * X)


def rotation_orthogonality(alpha: float, poly: TrigPoly, N: int) -> complex:
    """(1/N) * sum_{n<=N} mobius(n) * P(n * alpha) for a trigonometric P.

    Evaluates term by term: the harmonic at frequency a contributes its
    coefficient times the plain exponential average at a * alpha reduced
    mod 2*pi, exactly by linearity.  All harmonics share one pass over the
    Mobius window (summation.modulated_average with the list of angles),
    and each gets the value mobius_exponential_sum gives at its angle.
    """
    if N < 1:
        raise InvalidRangeError(f"N must be >= 1, got {N}")
    total = 0.0 + 0.0j
    thetas = [math.remainder(float(a) * alpha, 2.0 * math.pi) for a in poly.freqs]
    if thetas:  # without harmonics no window is read
        for c, value in zip(poly.coeffs, modulated_average([sign_window("mobius", N)], thetas, N)):
            total += complex(c) * value
    return total


# ---------------------------------------------------------------------------
# Reports


@dataclass
class ExperimentReport:
    """One experiment on one N grid, ready to serialise."""

    id: str
    params: dict
    grid: list[int]
    values: list[complex]
    indicators: dict
    runtime_ms: float
    input_checksum: str

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "grid": [
                {"N": n, "value_re": v.real, "value_im": v.imag}
                for n, v in zip(self.grid, self.values)
            ],
            "indicators": self.indicators,
            "runtime_ms": self.runtime_ms,
            "input_checksum": self.input_checksum,
        }

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n")


def input_checksum(exp_id: str, params: dict, grid: list[int]) -> str:
    blob = json.dumps({"id": exp_id, "params": params, "grid": grid}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


_ABSENT = object()  # default of an optional param, so that a given null is refused


def _integer(name: str, value, least: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"param {name!r} takes integers >= {least}, got {value!r}")
    return value


def _integers(name: str, value, least: int = 1) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"param {name!r} must be a list, got {value!r}")
    return tuple(_integer(name, v, least) for v in value)


def _number(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not low < value < high:
        raise ValueError(f"param {name!r} must be a number in ({low}, {high}), got {value!r}")
    return float(value)


def _theta(theta, theta_over_2pi) -> float:
    if theta is not _ABSENT and theta_over_2pi is not _ABSENT:
        raise ValueError("give one of theta and theta_over_2pi, not both")
    if theta_over_2pi is not _ABSENT:
        return 2.0 * math.pi * _number("theta_over_2pi", theta_over_2pi)
    return 0.0 if theta is _ABSENT else _number("theta", theta)


def _pattern(*, shifts, exponents, label="mobius"):
    if label not in LABELS:
        raise ValueError(f"param 'label' must be one of {', '.join(LABELS)}, got {label!r}")
    pattern = Pattern(_integers("shifts", shifts, least=0), _integers("exponents", exponents))
    return partial(pattern_correlation, pattern, label=label)


def _window_energy(*, k, h):
    k, h = _integer("k", k), _integer("h", h)
    return lambda N: windowed_sum_energy(k, h, N) / h**2


def _rotation(*, alpha, poly=()):
    if not isinstance(poly, (list, tuple)) or not all(
            isinstance(t, dict) and "freq" in t and set(t) <= {"freq", "re", "im"} for t in poly):
        raise ValueError(f"poly must be a list of objects with freq and optional re, im: {poly!r}")
    freqs = [_number("poly freq", t["freq"]) for t in poly]
    coeffs = [complex(_number("poly re", t.get("re", 0.0)), _number("poly im", t.get("im", 0.0)))
              for t in poly]
    order = np.argsort(freqs, kind="stable")
    return partial(rotation_orthogonality, _number("alpha", alpha),
                   TrigPoly(np.array(freqs)[order], np.array(coeffs)[order]))


# Per id, a build: its keyword parameters are the params (those with a
# default are optional); it checks and converts every value and returns the
# experiment as a function of N bound to them.  It looks the experiment up
# when it runs, so a substitute installed on this module (a tracing
# wrapper) sees every call.
EXPERIMENTS: dict[str, Callable[..., Callable[[int], complex]]] = {
    "mobius_exponential": lambda *, theta=_ABSENT, theta_over_2pi=_ABSENT: partial(
        mobius_exponential_sum, _theta(theta, theta_over_2pi)),
    "squarefree_shifts": lambda *, shifts, theta=_ABSENT, theta_over_2pi=_ABSENT: partial(
        squarefree_modulated_sum, _integers("shifts", shifts), _theta(theta, theta_over_2pi)),
    "pattern": _pattern,
    "two_point": lambda *, h: partial(two_point_correlation, _integer("h", h)),
    "small_fraction": lambda *, H, delta: partial(
        small_correlation_fraction, _integer("H", H), delta=_number("delta", delta, 0.0, 1.0)),
    "window_energy": _window_energy,
    "short_interval": lambda *, H: partial(short_interval_average, _integer("H", H)),
    "rotation": _rotation,
}


def build_experiment(exp_id: str, params: dict) -> Callable[[int], complex]:
    """Experiment exp_id bound to its checked params, as a function of N;
    ValueError for an unknown id, a param it does not take, one it needs
    that is missing, and a value of the wrong type or range."""
    build = EXPERIMENTS.get(exp_id) if isinstance(exp_id, str) else None
    if build is None:
        raise ValueError(f"unknown experiment id {exp_id!r}")
    names = inspect.signature(build).parameters
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(f"experiment {exp_id!r} has no param {', '.join(map(repr, unknown))}; "
                         f"it accepts {', '.join(sorted(names))}")
    missing = sorted(n for n, p in names.items() if p.default is p.empty and n not in params)
    if missing:
        raise ValueError(f"experiment {exp_id!r} needs param {', '.join(map(repr, missing))}")
    return build(**params)


def check_grid(grid) -> list[int]:
    """The N grid sorted; ValueError unless a non-empty list or tuple of
    integers >= 1, InvalidRangeError when it is empty."""
    if not _integers("grid", grid):
        raise InvalidRangeError("param 'grid' must hold at least one N")
    return sorted(grid)


def run_experiment(exp_id: str, params: dict, grid: list[int] | None = None) -> ExperimentReport:
    """Run one experiment over an N grid and assemble its report.

    The params are built once (see build_experiment), so unknown ids,
    unknown or missing params and bad values raise ValueError before any
    window is read; so does a grid check_grid refuses (only grid=None
    selects DEFAULT_GRID).  A window longer than the store's limit raises
    WindowLimitError; a config.run batch with allow_large raises that
    limit around its experiments.  Every experiment streams its windows in
    BLOCK slices, so past the windows a run holds O(BLOCK) bytes, and the
    index limit bounds the bytes too.  The report carries the params
    exactly as passed; the checksum covers the id, the params and the
    sorted grid.
    """
    run = build_experiment(exp_id, params)
    grid = check_grid(DEFAULT_GRID if grid is None else grid)
    params = dict(params)
    checksum = input_checksum(exp_id, params, grid)
    t0 = time.perf_counter()
    values = [complex(run(N)) for N in grid]
    elapsed = (time.perf_counter() - t0) * 1000.0
    mags = [abs(v) for v in values]
    indicators = {
        "final_abs": mags[-1],
        "max_abs": max(mags),
        # monotone along the whole grid, and the weaker endpoint comparison;
        # finite-N magnitudes often wobble at small N, so both are reported
        "decreasing_abs": all(a >= b for a, b in zip(mags, mags[1:])),
        "endpoint_decay": mags[-1] <= mags[0],
    }
    return ExperimentReport(exp_id, params, grid, values, indicators, elapsed, checksum)
