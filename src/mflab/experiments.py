"""Decay experiments for sign sequences against structured targets.

Each experiment evaluates one normalised average at a grid of window
lengths N and reports the values together with coarse decay indicators.
Averages over integer-valued windows are computed in exact integer
arithmetic and divided once at the end.  Modulated averages
(1/N) sum mask[n-1] exp(i n theta) use the row-phase identity
exp(i theta (n0 + j)) = exp(i theta n0) exp(i theta j): a small matrix
product with one table of exp(i theta j), j < ROW, sums each row of ROW
terms, and each row sum is turned by its phase exp(i theta n0) (see
_modulated_average).  The phase error per term is about |theta| * n * eps,
no worse than one exp per term; the float64 row starts n0 are exact below
2**53.  EXPERIMENTS lists the params each experiment requires and accepts,
and run_experiment refuses any other or a missing one.  Reports are JSON
with sorted keys, so identical configurations produce byte-identical files
apart from the wall-clock field.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .cache import read_cache
from .errors import AllSquaredError, InvalidRangeError, NotDisjointError
from .sequences import BoundedSeq, TrigPoly
from .sieve import LABELS, SEGMENT, SignSeq, sieve
from .summation import CHUNK, KahanAccumulator

# golden-ratio frequency used by the default battery
THETA_STAR = 2.0 * math.pi * (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GRID = (10**5, 10**6, 10**7)
LARGE_N_LIMIT = 10**7

# _modulated_average: terms per row of the phase table, terms per piece
ROW = 1 << 10
BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# Window provider


class WindowStore:
    """Owner of the memoised sign windows: per label, the values for n = 1..len.

    Windows only grow: adopt takes a longer one from load_caches, and get
    sieves the missing tail.  A growth rounds the new length up to a
    multiple of the sieve segment and fills, in the same pass, every label
    whose window ends where the requested one does, so a battery touching
    all three labels sieves each index once.  Grown windows are written
    into new arrays, never resized in place, as callers keep views.
    """

    def __init__(self) -> None:
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
            self._extend(label, hi)
        return self._windows[label][:hi]

    def _extend(self, label: str, hi: int) -> None:
        stop = self._length(label)
        new_stop = -(-hi // SEGMENT) * SEGMENT
        grown: dict[str, np.ndarray] = {}
        for name in LABELS:
            if self._length(name) == stop:
                grown[name] = np.empty(new_stop, dtype=np.int8)
                if stop:
                    grown[name][:stop] = self._windows[name]
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
    to a multiple of SEGMENT; labels whose windows end at the same index
    are extended by the same pass.  The result is a view: later growth
    allocates new arrays and leaves views handed out earlier intact.
    """
    return WINDOWS.get(label, hi)


def load_caches(directory: str | Path) -> None:
    """Verify every *.bin file in directory, in sorted order, and adopt each
    window that starts at n = 1 for the label in its header, whatever the
    file name.  A malformed or corrupt file raises CacheFormatError or
    CacheChecksumError: a run never silently recomputes around it.
    """
    for path in sorted(Path(directory).glob("*.bin")):
        # names looked up per call, so tracing wrappers and test stores apply
        WINDOWS.adopt(read_cache(path))


def _modulated_average(mask: np.ndarray, theta: float, N: int) -> complex:
    """(1/N) * sum_{n=1..N} mask[n-1] * exp(i n theta), exact when theta = 0.

    Uses exp(i theta (n0 + j)) = exp(i theta n0) * exp(i theta j): the
    mask is cut into rows of ROW consecutive terms starting at n0, one
    product with a (ROW, 2) table of cos(theta j), sin(theta j), j < ROW,
    sums every row of a BLOCK-sized piece, and each row sum is turned by
    its row phase exp(i theta n0).  The turned row sums are summed per
    CHUNK and the chunk totals folded with Kahan compensation.  The phase
    theta*n0 is rounded once per row, so the phase error per term is about
    |theta| * n * eps, no worse than one exp per term; the float64 row
    starts n0 are exact below 2**53.
    """
    if theta == 0.0:
        return complex(int(np.sum(mask[:N], dtype=np.int64)) / N)
    j = theta * np.arange(ROW, dtype=np.float64)
    table = np.stack((np.cos(j), np.sin(j)), axis=1)
    buf = np.empty(BLOCK, dtype=np.float64)  # reused for every piece
    acc = KahanAccumulator()
    for lo in range(0, N, CHUNK):
        hi = min(lo + CHUNK, N)
        sums = np.empty((-(-(hi - lo) // ROW), 2))  # (cos, sin) sum per row
        for b in range(lo, hi, BLOCK):
            size = min(BLOCK, hi - b)
            rows = -(-size // ROW)
            buf[:size] = mask[b : b + size]
            buf[size : rows * ROW] = 0.0
            first = (b - lo) // ROW
            np.matmul(buf[: rows * ROW].reshape(rows, ROW), table,
                      out=sums[first : first + rows])
        starts = np.arange(lo + 1, hi + 1, ROW, dtype=np.float64)
        acc.add(np.sum(np.exp(1j * theta * starts) * (sums[:, 0] + 1j * sums[:, 1])))
    return acc.total / N


# ---------------------------------------------------------------------------
# The experiments


def mobius_exponential_sum(theta: float, N: int) -> complex:
    """(1/N) * sum_{n<=N} mobius(n) * exp(i n theta)."""
    if N < 1:
        raise InvalidRangeError(f"N must be >= 1, got {N}")
    return _modulated_average(sign_window("mobius", N), theta, N)


def squarefree_modulated_sum(shifts, theta: float, N: int) -> complex:
    """Mobius average twisted by exp(i n theta), restricted to the n whose
    shifted neighbours n + a are all square-free."""
    if N < 1:
        raise InvalidRangeError(f"N must be >= 1, got {N}")
    shifts = sorted(set(int(a) for a in shifts))
    if min(shifts, default=1) < 1:
        raise InvalidRangeError("shifts must be >= 1")
    reach = max(shifts, default=0)
    mu = sign_window("mobius", N)
    sq = sign_window("squarefree", N + reach)
    mask = mu[:N].copy()
    for a in shifts:
        mask *= sq[a : a + N]
    return _modulated_average(mask, theta, N)


@dataclass(frozen=True)
class Pattern:
    """Shift pattern with exponents: shifts[i] carries exponents[i] in {1, 2}."""

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


def pattern_correlation(pattern: Pattern, N: int, label: str = "mobius") -> float:
    """(1/N) * sum_{n<=N} of the product of label(n + a)^e over the pattern.

    At least one exponent must be 1; squaring every factor leaves no sign
    content and raises AllSquaredError.
    """
    if N < 1:
        raise InvalidRangeError(f"N must be >= 1, got {N}")
    if 1 not in pattern.exponents:
        raise AllSquaredError("pattern needs at least one exponent equal to 1")
    reach = max(pattern.shifts)
    w = sign_window(label, N + reach)
    acc = np.ones(N, dtype=np.int8)
    for a, e in zip(pattern.shifts, pattern.exponents):
        part = w[a : a + N]
        acc = acc * (part * part if e == 2 else part)
    return int(np.sum(acc, dtype=np.int64)) / N


def two_point_correlation(h: int, X: int) -> float:
    """|(1/X) * sum_{j<=X} liouville(j) * liouville(j+h)|."""
    if h < 1 or X < 1:
        raise InvalidRangeError(f"need h >= 1 and X >= 1, got h={h}, X={X}")
    lam = sign_window("liouville", X + h)
    s = int(np.sum(lam[:X] * lam[h : h + X], dtype=np.int64))
    return abs(s) / X


def small_correlation_fraction(H: int, X: int, delta: float) -> float:
    """Fraction of lags h <= H whose two-point sum is below delta * X."""
    if H < 1 or X < 1:
        raise InvalidRangeError(f"need H >= 1 and X >= 1, got H={H}, X={X}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    lam = sign_window("liouville", X + H)
    base = lam[:X]
    hits = 0
    for h in range(1, H + 1):
        s = abs(int(np.sum(base * lam[h : h + X], dtype=np.int64)))
        if s <= delta * X:
            hits += 1
    return hits / H


def windowed_sum_energy(k: int, h: int, N: int,
                        with_spectral: bool = True) -> tuple[float, float | None]:
    """Mean square of h-term Mobius window sums, directly and spectrally.

    direct = (1/N) * sum_{n<=N} |sum_{l=1..h} mobius(n + k*l)|^2.  The
    spectral route integrates the squared Dirichlet kernel |D_h(k theta)|^2
    against the periodogram of the window [1, N + h*k].  The two agree up
    to edge effects: |direct - spectral| <= (2*h*k/N) * h^2.

    The spectral route costs an FFT with at least 2*(N + h*k) bins, so
    callers that only need the direct statistic (decay scans over large N)
    pass with_spectral=False and get (direct, None).
    """
    from .spectral import dirichlet_energy, periodogram

    if k < 1 or h < 1 or N < 1:
        raise InvalidRangeError(f"need k, h, N >= 1, got k={k}, h={h}, N={N}")
    reach = h * k
    mu = sign_window("mobius", N + reach)
    sums = np.zeros(N, dtype=np.int32)
    for l in range(1, h + 1):
        sums += mu[k * l : k * l + N]
    direct = int(np.sum(sums * sums, dtype=np.int64)) / N
    if not with_spectral:
        return direct, None

    m = N + reach
    bins = 1 << max(2 * m - 1, 8 * h * k - 1, 4095).bit_length()
    g = BoundedSeq.from_samples(mu[:m], label="mobius", sup_bound=1.0)
    gram = periodogram(g, m, bins=bins)
    spectral = dirichlet_energy(gram.measure, h, k)
    return direct, spectral


def short_interval_average(H: int, X: int) -> float:
    """(1/(H*X)) * sum_{x=X..2X-1} |sum_{x < k <= x+H} mobius(k)|."""
    if H < 1 or X < 1:
        raise InvalidRangeError(f"need H >= 1 and X >= 1, got H={H}, X={X}")
    mu = sign_window("mobius", 2 * X + H)
    csum = np.zeros(2 * X + H + 1, dtype=np.int64)
    csum[1:] = np.cumsum(mu, dtype=np.int64)
    x = np.arange(X, 2 * X, dtype=np.int64)
    inner = np.abs(csum[x + H] - csum[x])
    return int(np.sum(inner, dtype=np.int64)) / (H * X)


def rotation_orthogonality(alpha: float, poly: TrigPoly, N: int) -> complex:
    """(1/N) * sum_{n<=N} mobius(n) * P(n * alpha) for a trigonometric P.

    Evaluates term by term: the harmonic at frequency a contributes its
    coefficient times the plain exponential average at a * alpha, exactly
    by linearity.
    """
    if N < 1:
        raise InvalidRangeError(f"N must be >= 1, got {N}")
    total = 0.0 + 0.0j
    for a, c in zip(poly.freqs, poly.coeffs):
        theta = math.remainder(float(a) * alpha, 2.0 * math.pi)
        total += complex(c) * mobius_exponential_sum(theta, N)
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


def _resolve_theta(params: dict) -> float:
    if "theta_over_2pi" in params:
        return 2.0 * math.pi * float(params["theta_over_2pi"])
    return float(params.get("theta", 0.0))


def _poly_from_params(params: dict) -> TrigPoly:
    terms = params.get("poly", [])
    for t in terms:
        if not isinstance(t, dict) or "freq" not in t or not set(t) <= {"freq", "re", "im"}:
            raise ValueError(f"poly term {t!r} must be an object with freq and optional re, im")
    freqs = [float(t["freq"]) for t in terms]
    coeffs = [complex(float(t.get("re", 0.0)), float(t.get("im", 0.0))) for t in terms]
    order = np.argsort(freqs, kind="stable")
    return TrigPoly(np.array(freqs)[order], np.array(coeffs)[order])


class Experiment(NamedTuple):
    """A registry entry: the param names the experiment requires, the
    ones it also accepts, and its adapter (params, N) -> value."""

    required: frozenset[str]
    optional: frozenset[str]
    run: Callable[[dict, int], complex]


_THETAS = frozenset({"theta", "theta_over_2pi"})

# Each adapter names its experiment at call time, so a substitute installed
# on this module (a tracing wrapper) sees every call.
EXPERIMENTS: dict[str, Experiment] = {
    "mobius_exponential": Experiment(
        frozenset(), _THETAS,
        lambda p, N: mobius_exponential_sum(_resolve_theta(p), N)),
    "squarefree_shifts": Experiment(
        frozenset({"shifts"}), _THETAS,
        lambda p, N: squarefree_modulated_sum(p["shifts"], _resolve_theta(p), N)),
    "pattern": Experiment(
        frozenset({"shifts", "exponents"}), frozenset({"label"}),
        lambda p, N: pattern_correlation(
            Pattern(tuple(p["shifts"]), tuple(p["exponents"])), N, p.get("label", "mobius"))),
    "two_point": Experiment(
        frozenset({"h"}), frozenset(),
        lambda p, N: two_point_correlation(int(p["h"]), N)),
    "small_fraction": Experiment(
        frozenset({"H", "delta"}), frozenset(),
        lambda p, N: small_correlation_fraction(int(p["H"]), N, float(p["delta"]))),
    "window_energy": Experiment(
        frozenset({"k", "h"}), frozenset(),
        lambda p, N: windowed_sum_energy(
            int(p["k"]), int(p["h"]), N, with_spectral=False)[0] / int(p["h"]) ** 2),
    "short_interval": Experiment(
        frozenset({"H"}), frozenset(),
        lambda p, N: short_interval_average(int(p["H"]), N)),
    "rotation": Experiment(
        frozenset({"alpha"}), frozenset({"poly"}),
        lambda p, N: rotation_orthogonality(float(p["alpha"]), _poly_from_params(p), N)),
}


def check_params(exp_id: str, params: dict) -> None:
    """Raise ValueError unless exp_id is registered, accepts every param name
    given and gets every one it requires, with at most one theta form."""
    entry = EXPERIMENTS.get(exp_id)
    if entry is None:
        raise ValueError(f"unknown experiment id {exp_id!r}")
    accepted = entry.required | entry.optional
    unknown = sorted(set(params) - accepted)
    if unknown:
        raise ValueError(f"experiment {exp_id!r} has no param {', '.join(map(repr, unknown))}; "
                         f"it accepts {', '.join(sorted(accepted))}")
    missing = sorted(entry.required - set(params))
    if missing:
        raise ValueError(f"experiment {exp_id!r} needs param {', '.join(map(repr, missing))}")
    if "theta" in params and "theta_over_2pi" in params:
        raise ValueError("give one of theta and theta_over_2pi, not both")


def run_experiment(exp_id: str, params: dict, grid: list[int] | None = None) -> ExperimentReport:
    """Run one experiment over an N grid and assemble its report.

    Unknown ids, unknown or missing params raise ValueError (see
    check_params).  The report carries the params exactly as passed; the
    checksum covers the id, the params and the sorted grid.
    """
    check_params(exp_id, params)
    adapter = EXPERIMENTS[exp_id].run
    grid = sorted(int(n) for n in (grid or DEFAULT_GRID))
    params = dict(params)
    checksum = input_checksum(exp_id, params, grid)
    t0 = time.perf_counter()
    values = [complex(adapter(params, N)) for N in grid]
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
