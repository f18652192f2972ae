"""Bounded sequences, lag correlations and trigonometric polynomials.

A BoundedSeq is a 1-based indexed, complex valued sequence with a known sup
bound.  It either wraps a concrete sample window (a sieve output, say) or a
closed-form rule.  Everything downstream works through vectorised evaluation
on int64 index arrays.

Lag correlations F_N(k) = (1/N) * sum_{n=1..N} g(n+k) * conj(g(n)) are the
finite-scale stand-in for the autocorrelation of g; tables of them feed the
spectral modules.  Averages use the chunked compensated summation helper;
sign windows (integer samples in {-1, 0, 1}) take exact integer sums.
A TrigPoly is the checked (frequencies, coefficients) pair that
experiments.rotation_orthogonality sums against.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidRangeError, LagTooLargeError
from .summation import chunked_sum, lag_sums, product_sum


@dataclass
class BoundedSeq:
    """Complex sequence on 1-based indices with a sup bound.

    Attributes:
        fn: vectorised evaluator, int64 index array to value array.
        sup_bound: upper bound for |g(n)|, not required to be attained.
        label: short descriptive tag carried into reports.
        samples: optional sign window (index 1 at position 0), integer
            values in {-1, 0, 1}; when present, correlation sums run in
            exact integer arithmetic on it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    label: str = "custom"
    samples: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.sup_bound >= 0:
            raise ValueError(f"sup_bound must be >= 0, got {self.sup_bound}")

    def eval(self, idx: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(idx, dtype=np.int64))

    @classmethod
    def from_samples(cls, values: np.ndarray, label: str = "custom",
                     sup_bound: float | None = None) -> "BoundedSeq":
        """Wrap an arbitrary sample window anchored at index 1.  An integer
        window with every value in {-1, 0, 1} is its own samples; fn returns
        values in the dtype promoted with float64, so no product wraps (an
        integer product above 2**53 rounds instead)."""
        arr = np.asarray(values)
        integer = arr.dtype.kind in "iu"
        low = high = 0
        if len(arr) and integer:
            # the extremes as Python ints: np.abs would wrap -128 in int8
            low, high = int(arr.min()), int(arr.max())
        if sup_bound is None:
            exact_abs = len(arr) and not integer  # float, complex and bool values
            sup_bound = float(np.max(np.abs(arr))) if exact_abs else float(max(-low, high))
        wide = np.result_type(arr.dtype, np.float64)

        def fn(idx: np.ndarray) -> np.ndarray:
            if len(idx) and (idx[0] < 1 or idx[-1] > len(arr)):
                raise InvalidRangeError("index outside the sampled window")
            return arr[idx - 1].astype(wide, copy=False)

        signs = integer and -1 <= low and high <= 1
        return cls(fn, sup_bound, label=label, samples=arr if signs else None)

    @classmethod
    def exponential(cls, theta: float) -> "BoundedSeq":
        """The unimodular sequence n -> exp(i * n * theta)."""
        t = float(theta)
        return cls(lambda idx: np.exp(1j * t * idx), 1.0, label=f"exp({t:.6g})")


@dataclass
class CorrelationTable:
    """Lag correlations of one sequence at a fixed window length.

    values[k] holds F_N(k) for k = 0..K.  Only non-negative lags are stored;
    F_N(-k) is recovered by conjugation and is deliberately never written.
    """

    N: int
    K: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != self.K + 1:
            raise ValueError("values must have K + 1 entries")

    def value(self, k: int) -> complex:
        """F_N(k) for -K <= k <= K, negative lags by conjugation."""
        if abs(k) > self.K:
            raise LagTooLargeError(f"|k|={abs(k)} exceeds table K={self.K}")
        v = complex(self.values[abs(k)])
        return v.conjugate() if k < 0 else v

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "re", "im"])
            for k in range(self.K + 1):
                v = complex(self.values[k])
                writer.writerow([k, repr(v.real), repr(v.imag)])


def correlation_sums(g: BoundedSeq, lags: Sequence[int], lo: int, hi: int) -> list[complex]:
    """[sum_{n=lo..hi-1} g(n+k) * conj(g(n)) for k in lags]: with samples, exact
    sums from one lag_sums call (as floats), else a compensated chunked_sum per lag."""
    if g.samples is None:
        return [chunked_sum(lambda idx: g.eval(idx + k) * np.conj(g.eval(idx)), lo, hi)
                for k in lags]
    if hi - 1 + max(lags, default=0) > len(g.samples):
        raise InvalidRangeError("window with lag runs past the sampled data")
    return [float(s) for s in lag_sums(g.samples, lags, lo - 1, hi - 1)]


def correlation_table(g: BoundedSeq, N: int, K: int) -> CorrelationTable:
    """Tabulate F_N(k) for k = 0..K; needs g on [1, N+K].

    Raises LagTooLargeError when K >= N.
    """
    if N < 1:
        raise InvalidRangeError(f"N must be >= 1, got {N}")
    if K < 0 or K >= N:
        raise LagTooLargeError(f"need 0 <= K < N, got K={K}, N={N}")
    vals = [s / N for s in correlation_sums(g, range(K + 1), 1, N + 1)]
    return CorrelationTable(N, K, np.array(vals, dtype=np.complex128))


def cross_correlation(g: BoundedSeq, h: BoundedSeq, N: int) -> complex:
    """(1/N) * sum_{n=1..N} g(n) * conj(h(n))."""
    if N < 1:
        raise InvalidRangeError(f"N must be >= 1, got {N}")
    if g.samples is not None and h.samples is not None:
        if N > len(g.samples) or N > len(h.samples):
            raise InvalidRangeError("window runs past the sampled data")
        return complex(product_sum([g.samples, h.samples], N) / N)
    return chunked_sum(lambda idx: g.eval(idx) * np.conj(h.eval(idx)), 1, N + 1) / N


@dataclass
class TrigPoly:
    """Finite trigonometric polynomial P(n) = sum_k c_k * exp(i alpha_k n).

    Frequencies are radians, pairwise distinct, ascending; no range is
    enforced, as rotation_orthogonality reduces each a * alpha mod 2*pi.
    """

    freqs: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.freqs = np.asarray(self.freqs, dtype=np.float64)
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if len(self.freqs) != len(self.coeffs):
            raise ValueError("freqs and coeffs must align")
        if len(self.freqs) > 1 and not np.all(np.diff(self.freqs) > 0):
            raise ValueError("frequencies must be strictly ascending")
