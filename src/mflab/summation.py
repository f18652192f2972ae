"""Compensated accumulation for long averages.

Averages over 1e7 terms and more are evaluated in fixed-size chunks.  Each
chunk is reduced with numpy's pairwise summation, and the chunk totals are
folded together left to right with Kahan compensation.  The chunk size is a
module constant, so a given input always produces bit-identical output.

Reductions over sign windows stream them in slices of BLOCK indices, so
their temporaries stay O(BLOCK) whatever the window length; the only arrays
of window length are the windows themselves.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

CHUNK = 1 << 20
# slice length of the window reductions; CHUNK is a multiple of it
BLOCK = 1 << 16


class KahanAccumulator:
    """Kahan-compensated running sum over complex (or real) addends."""

    __slots__ = ("_sum", "_comp")

    def __init__(self) -> None:
        self._sum = 0j
        self._comp = 0j

    def add(self, value: complex) -> None:
        y = complex(value) - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t

    @property
    def total(self) -> complex:
        return self._sum


def index_chunks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield int64 index arrays covering [lo, hi) in CHUNK-sized pieces."""
    for start in range(lo, hi, CHUNK):
        yield np.arange(start, min(start + CHUNK, hi), dtype=np.int64)


def lag_sums(w: np.ndarray, lags, start: int, stop: int) -> list[int]:
    """[sum_{j=start..stop-1} w[j] * w[j+h] for h in lags], as Python ints.

    The products are formed in w's dtype (as w[a:b] * w[c:d] would be) in
    one reused buffer of BLOCK entries, and each block of w[start:stop] is
    read once for all lags.  w must reach index stop - 1 + max(lags).
    """
    lags = list(lags)
    totals = [0] * len(lags)
    buf = np.empty(min(BLOCK, max(stop - start, 0)), dtype=w.dtype)
    for b in range(start, stop, BLOCK):
        size = min(BLOCK, stop - b)
        base, prod = w[b : b + size], buf[:size]
        for i, h in enumerate(lags):
            np.multiply(base, w[b + h : b + h + size], out=prod)
            totals[i] += int(np.sum(prod, dtype=np.int64))
    return totals
