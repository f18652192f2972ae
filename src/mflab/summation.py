"""Compensated accumulation for long averages.

Averages over 1e7 terms and more are evaluated in fixed-size chunks.  Each
chunk is reduced with numpy's pairwise summation, and the chunk totals are
folded together left to right with Kahan compensation.  The chunk size is a
module constant, so a given input always produces bit-identical output.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

CHUNK = 1 << 20


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
