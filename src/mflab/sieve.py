"""Segmented sieves for the Mobius, Liouville and square-free indicators.

All three labels are produced from one segment pass, and sieve() hands out
every label a caller asks for from that pass.  A segment keeps, for
every index n in a window of 2**20 indices, the number of distinct small
prime divisors, the total number of prime divisors with multiplicity, the
product of the small-prime parts, and a square-free flag.  Any index whose
accumulated product falls short of the index itself has exactly one prime
divisor above the segment's root bound, which tops up both counters.

The Liouville sign comes from the parity of the full divisor count, the
Mobius sign from the parity of the distinct count masked by the square-free
flag.  The two parities are accumulated separately on purpose: the pointwise
identity mobius = liouville * squarefree then cross-checks two independent
counting routes instead of restating a definition.

Indices are 1-based and 64-bit throughout (MAX_INDEX).  Ranges are half
open: [lo, hi) covers lo, lo+1, ..., hi-1.  sieve() takes hi up to
SIEVE_LIMIT = 10**16: its base primes up to isqrt(hi - 1) come from one
boolean table, which at that limit holds 1e8 entries (100 MB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import InvalidRangeError, RangeOverflowError

SEGMENT = 1 << 20
MAX_INDEX = 2**63 - 1
SIEVE_LIMIT = 10**16  # largest hi sieve() takes: a 1e8-entry base-prime table
FACTOR_ORACLE_LIMIT = 10**9

LABELS = ("mobius", "liouville", "squarefree")


@dataclass(frozen=True)
class PrimeBasis:
    """All primes up to a bound, as a sorted int64 array.

    Attributes:
        bound: inclusive upper limit of the enumeration.
        values: the primes, ascending.
    """

    bound: int
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class SignSeq:
    """A window of sieve values.

    Attributes:
        label: one of "mobius", "liouville", "squarefree", or "custom".
        start: index of the first entry (1-based).
        values: int8 array; entry j holds the value at index start + j.
    """

    label: str
    start: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.start < 1:
            raise InvalidRangeError(f"start must be >= 1, got {self.start}")
        if self.values.dtype != np.int8:
            raise TypeError("SignSeq values must be int8")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def stop(self) -> int:
        """One past the last covered index."""
        return self.start + len(self.values)

    def value(self, n: int) -> int:
        """Value at index n; n must lie inside the window."""
        if not self.start <= n < self.stop:
            raise InvalidRangeError(f"index {n} outside window [{self.start}, {self.stop})")
        return int(self.values[n - self.start])

    def window(self, lo: int, hi: int) -> np.ndarray:
        """View of the values on [lo, hi)."""
        if not (self.start <= lo < hi <= self.stop):
            raise InvalidRangeError(f"[{lo}, {hi}) not inside [{self.start}, {self.stop})")
        return self.values[lo - self.start : hi - self.start]


def primes_upto(bound: int) -> PrimeBasis:
    """Enumerate all primes p <= bound with a plain Eratosthenes pass.

    Args:
        bound: inclusive limit, any non-negative integer.

    Returns:
        PrimeBasis with the ascending primes.
    """
    if bound < 0:
        raise InvalidRangeError(f"bound must be >= 0, got {bound}")
    if bound < 2:
        return PrimeBasis(bound, np.empty(0, dtype=np.int64))
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return PrimeBasis(bound, np.flatnonzero(flags).astype(np.int64))


_ORACLE_PRIMES: list[int] = []


def factor_oracle(n: int) -> list[int]:
    """Factor n by deterministic trial division.

    Kept deliberately independent of the sieve: no shared tables beyond a
    straight prime enumeration, so it can serve as a ground-truth check.

    Args:
        n: integer with 1 <= n <= 10**9.

    Returns:
        The multiset of prime divisors as an ascending list, with
        multiplicity.  factor_oracle(1) == [].
    """
    if n < 1:
        raise InvalidRangeError(f"n must be >= 1, got {n}")
    if n > FACTOR_ORACLE_LIMIT:
        raise RangeOverflowError(f"factor_oracle is guarded at {FACTOR_ORACLE_LIMIT}, got {n}")
    if not _ORACLE_PRIMES:
        _ORACLE_PRIMES.extend(int(p) for p in primes_upto(isqrt(FACTOR_ORACLE_LIMIT)).values)
    out: list[int] = []
    m = n
    for p in _ORACLE_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            out.append(p)
            m //= p
    if m > 1:
        out.append(m)
    return out


def oracle_values(n: int) -> tuple[int, int, int]:
    """(mobius, liouville, squarefree) at n, derived from factor_oracle."""
    factors = factor_oracle(n)
    distinct = len(set(factors))
    squarefree = 1 if distinct == len(factors) else 0
    liouville = -1 if len(factors) % 2 else 1
    mobius = (-1 if distinct % 2 else 1) * squarefree
    return mobius, liouville, squarefree


def _segment_tables(lo: int, hi: int, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (mobius, liouville, squarefree) int8 arrays on [lo, hi)."""
    size = hi - lo
    total = np.zeros(size, dtype=np.int8)      # divisor count with multiplicity
    distinct = np.zeros(size, dtype=np.int8)   # distinct prime divisor count
    squarefree = np.ones(size, dtype=np.int8)
    partial = np.ones(size, dtype=np.int64)    # product of small-prime parts
    top = isqrt(hi - 1)
    for p in primes:
        p = int(p)
        if p > top:
            break
        first = (-lo) % p
        if first >= size:
            continue  # no multiple of p in the segment, so none of its powers
        total[first::p] += 1
        distinct[first::p] += 1
        partial[first::p] *= p
        # a power q of p has a multiple in the segment exactly when start < size
        q = p * p
        start = (-lo) % q
        if start < size:
            squarefree[start::q] = 0
        while start < size:
            total[start::q] += 1
            partial[start::q] *= p
            q *= p
            start = (-lo) % q
    # A shortfall in the accumulated product means exactly one prime factor
    # above top remains; it is simple, so it bumps both counters by one.
    # Whole-array int8 arithmetic from here: a parity bit b becomes the sign
    # 1 - 2b, and the Mobius sign is masked by multiplying with squarefree.
    leftover = partial != np.arange(lo, hi, dtype=np.int64)
    del partial
    total += leftover
    distinct += leftover
    liouville = np.bitwise_and(total, 1, out=total)
    liouville *= -2
    liouville += 1
    mobius = np.bitwise_and(distinct, 1, out=distinct)
    mobius *= -2
    mobius += 1
    mobius *= squarefree
    return mobius, liouville, squarefree


_LABEL_SLOT = {"mobius": 0, "liouville": 1, "squarefree": 2}


def sieve(label: str, lo: int, hi: int,
          out: dict[str, np.ndarray] | None = None) -> SignSeq:
    """Sieve the half-open index range [lo, hi) in one segmented pass.

    Every segment yields all three labels at once, so a caller that needs
    several of them passes ``out``: each label it maps to an int8 array of
    length hi - lo is filled in the same pass.  Without ``out`` only the
    requested label is allocated.

    Args:
        label: "mobius", "liouville" or "squarefree"; the label returned.
        lo: first index, >= 1.
        hi: one past the last index; must satisfy lo < hi <= SIEVE_LIMIT
            (10**16, far below MAX_INDEX), so the base-prime table stays
            at most 1e8 booleans.  A larger hi raises RangeOverflowError
            before anything is allocated.
        out: optional label -> int8 array of length hi - lo.  Arrays may be
            views into larger buffers; they are written in place.  When
            ``label`` is among the keys, the returned values are its array.

    Returns:
        SignSeq of ``label`` covering [lo, hi).
    """
    if label not in _LABEL_SLOT:
        raise ValueError(f"unknown label {label!r}; expected one of {LABELS}")
    if hi > SIEVE_LIMIT:
        raise RangeOverflowError(
            f"hi={hi} exceeds SIEVE_LIMIT={SIEVE_LIMIT}, the bound of the base-prime table")
    if lo < 1 or hi <= lo:
        raise InvalidRangeError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    targets = dict(out or {})
    for name, arr in targets.items():
        if name not in _LABEL_SLOT:
            raise ValueError(f"unknown label {name!r} in out; expected one of {LABELS}")
        if arr.dtype != np.int8 or arr.shape != (hi - lo,):
            raise ValueError(f"out[{name!r}] must be an int8 array of length {hi - lo}")
    if label not in targets:
        targets[label] = np.empty(hi - lo, dtype=np.int8)

    primes = primes_upto(isqrt(hi - 1)).values
    for s in range(lo, hi, SEGMENT):
        e = min(s + SEGMENT, hi)
        tables = _segment_tables(s, e, primes)
        for name, arr in targets.items():
            arr[s - lo : e - lo] = tables[_LABEL_SLOT[name]]
    return SignSeq(label, lo, targets[label])
