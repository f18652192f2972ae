"""Segmented sieves for the Mobius, Liouville and square-free indicators.

All three labels are produced from one segment pass, and sieve() hands out
every label a caller asks for from that pass.  A segment of up to 2**20
indices keeps, for every index n, one little-endian uint16 word and a
square-free flag.  Each prime power p**k dividing n adds one amount to the
word in one strided pass: (17 << 8) + L(p) for k = 1 and (16 << 8) + L(p)
above, where L(p) = floor(4*log2(p)) = (p**4).bit_length() - 1, exactly.

The high byte is then a packed counter.  Its low nibble is omega(n), the
number of distinct prime divisors, and its high nibble Omega(n) mod 16,
the number counted with multiplicity.  The low nibble never carries into
the high one: omega(n) <= 15 for every n <= MAX_INDEX, since the product
of the first 16 primes, about 3.3e19, exceeds 2**63.  The Mobius sign
comes from bit 0, masked by the square-free flag, and the Liouville sign
from bit 4.  The two nibbles are still summed independently, so the
pointwise identity mobius = liouville * squarefree cross-checks two
counting routes instead of restating a definition.

The low byte is the log sum of the prime powers marked at n, the primes up
to top = isqrt(e - 1) of the segment [s, e).  At most one prime factor of
n exceeds top, and for n in [2**k, 2**(k+1)) it has one exactly when the
log sum is below 3k, which the counter then takes as one more first power:
- n > 1 fully marked: log sum > 4*log2(n) - Omega(n) >= 3*log2(n) >= 3k
  (and n = 1 has log sum 0 = 3k).
- n = m*q, prime q > top, q >= 13: q*q >= (top+1)**2 >= e > n, so
  4*log2(q) > k + 2*log2(13) >= k + 7.4 and log sum <= 4*log2(m) < 3k - 3.4.
- No carry into the counter: log sum <= 4*log2(n) < 4*63 = 252.
So 3k is one threshold per power-of-two band of a segment, and a segment
crosses at most two bands, except the one that starts at 1.

The powers 2, 4, 8, 3, 9, 5, 7 and 11 are not sieved per segment: sieve()
builds their word and flag for one period of
WHEEL = 8*9*5*7*11 = 27720 indices, and every segment [s, e) is tiled
from that period at offset s mod WHEEL.  That is why a leftover q is at
least 13.  A wheel prime above a segment's root bound is marked too, which
is harmless: its square exceeds every n there, so marking it gives what
the leftover step would.  A call allocates one segment of words and a
leftover scratch of summation.BLOCK words.  It marks the square-free flags
straight into out["squarefree"] when the caller passes one, else into one
int8 segment buffer.

Indices are 1-based and 64-bit throughout (MAX_INDEX).  Ranges are half
open: [lo, hi) covers lo, lo+1, ..., hi-1.  sieve() takes hi up to
SIEVE_LIMIT = 10**16: its base primes up to isqrt(hi - 1) come from one
boolean table, which at that limit holds 1e8 entries (100 MB), and are
then held as a list of Python ints (about 5.8e6 of them there).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import InvalidRangeError, RangeOverflowError
from .summation import BLOCK

SEGMENT = 1 << 20
MAX_INDEX = 2**63 - 1
SIEVE_LIMIT = 10**16  # largest hi sieve() takes: a 1e8-entry base-prime table
FACTOR_ORACLE_LIMIT = 10**9

LABELS = ("mobius", "liouville", "squarefree")


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


def primes_upto(bound: int) -> np.ndarray:
    """Enumerate all primes p <= bound with a plain Eratosthenes pass.

    Args:
        bound: inclusive limit, any non-negative integer.

    Returns:
        The ascending primes as an int64 array.
    """
    if bound < 0:
        raise InvalidRangeError(f"bound must be >= 0, got {bound}")
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    # flatnonzero already gives int64 on 64-bit platforms; no second copy there
    return np.flatnonzero(flags).astype(np.int64, copy=False)


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
        _ORACLE_PRIMES.extend(int(p) for p in primes_upto(isqrt(FACTOR_ORACLE_LIMIT)))
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


# Prime powers whose marks a segment copies from one periodic pattern instead
# of striding them itself: p -> the largest power of p the pattern holds.
# Its period WHEEL is the product of those powers.
WHEEL_POWERS = {2: 8, 3: 9, 5: 5, 7: 7, 11: 11}
WHEEL = 8 * 9 * 5 * 7 * 11
WORD = np.dtype("<u2")  # high byte: the packed counter; low byte: the log sum


def _log_weight(p: int) -> int:
    """floor(4*log2(p)), exactly: the largest L with 2**L <= p**4."""
    return (p**4).bit_length() - 1


def _wheel() -> tuple[np.ndarray, np.ndarray]:
    """(word, squarefree) of the WHEEL_POWERS alone for n = 0..WHEEL-1: one
    period, whose entry j serves every n = j mod WHEEL."""
    word = np.zeros(WHEEL, dtype=WORD)
    squarefree = np.ones(WHEEL, dtype=np.int8)
    for p, cap in WHEEL_POWERS.items():
        log = _log_weight(p)
        q = p
        while q <= cap:
            word[::q] += ((17 if q == p else 16) << 8) + log
            if q == p * p:
                squarefree[::q] = 0
            q *= p
    return word, squarefree


def _tile(period: np.ndarray, offset: int, out: np.ndarray) -> None:
    """Fill the 1-D out (a strided view too: reshaping it never copies) with
    period[(offset + j) % len(period)]: a head slice up to the period's end,
    whole periods in one broadcast copy, a tail."""
    size, n = len(out), len(period)
    head = min(n - offset, size)
    out[:head] = period[offset : offset + head]
    rows = (size - head) // n
    out[head : head + rows * n].reshape(rows, n)[:] = period
    out[head + rows * n :] = period[: size - head - rows * n]


def _segments(lo: int, hi: int, flags: np.ndarray | None = None
              ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield (s, e, word, squarefree) for each segment [s, e) of [lo, hi).

    word holds the uint16 words of the module docstring, with the leftover
    prime counted, and is scratch that the next segment overwrites.
    squarefree holds the int8 flags: flags[s - lo : e - lo] when the caller
    passes flags (length hi - lo), else scratch as well.
    """
    primes = primes_upto(isqrt(hi - 1)).tolist()
    wheel_word, wheel_sq = _wheel()
    width = min(SEGMENT, hi - lo)
    word = np.empty(width, dtype=WORD)
    if flags is None:
        own = np.empty(width, dtype=np.int8)
    leftover = np.empty(min(BLOCK, width), dtype=WORD)
    for s in range(lo, hi, SEGMENT):
        e = min(s + SEGMENT, hi)
        size = e - s
        w = word[:size]
        sq = own[:size] if flags is None else flags[s - lo : e - lo]
        _tile(wheel_word, s % WHEEL, w)
        _tile(wheel_sq, s % WHEEL, sq)
        top = isqrt(e - 1)
        for p in primes:
            if p > top:
                break
            first = (-s) % p
            if first >= size:
                continue  # no multiple of p in the segment, so none of its powers
            log = _log_weight(p)
            q = WHEEL_POWERS.get(p, 1)  # the largest power of p already marked
            if q == 1:
                w[first::p] += (17 << 8) + log
                q = p
            # a power q of p has a multiple in the segment exactly when start < size
            while True:
                q *= p
                start = (-s) % q
                if start >= size:
                    break
                if q == p * p:
                    sq[start::q] = 0
                w[start::q] += (16 << 8) + log
        # Below 3k on the band [2**k, 2**(k+1)), the log byte leaves exactly
        # one prime factor above top unmarked; it is simple, so it adds 17
        # like any first power.  17 << 8 wraps the high byte mod 256 and
        # leaves the log byte alone.
        for a in range(0, size, BLOCK):
            n, wb = s + a, w[a : a + BLOCK]  # the block covers [n, n + len(wb))
            t = leftover[: len(wb)]
            np.bitwise_and(wb, 0xFF, out=t)
            for k in range(n.bit_length() - 1, (n + len(t) - 1).bit_length()):
                band = t[max(n, 1 << k) - n : (2 << k) - n]
                np.less(band, 3 * k, out=band, casting="unsafe")
            t *= 17 << 8
            wb += t
        yield s, e, w, sq


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
            views into larger buffers but may not share memory with each
            other (ValueError); they are written in place.  When ``label``
            is among the keys, the returned values are its array.

    Returns:
        SignSeq of ``label`` covering [lo, hi).
    """
    if label not in LABELS:
        raise ValueError(f"unknown label {label!r}; expected one of {LABELS}")
    if hi > SIEVE_LIMIT:
        raise RangeOverflowError(
            f"hi={hi} exceeds SIEVE_LIMIT={SIEVE_LIMIT}, the bound of the base-prime table")
    if lo < 1 or hi <= lo:
        raise InvalidRangeError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    targets = dict(out or {})
    for name, arr in targets.items():
        if name not in LABELS:
            raise ValueError(f"unknown label {name!r} in out; expected one of {LABELS}")
        if arr.dtype != np.int8 or arr.shape != (hi - lo,):
            raise ValueError(f"out[{name!r}] must be an int8 array of length {hi - lo}")
    arrays = list(targets.values())
    if any(np.may_share_memory(x, y) for i, x in enumerate(arrays) for y in arrays[i + 1 :]):
        raise ValueError("the arrays of out may share memory; each label needs its own")
    if label not in targets:
        targets[label] = np.empty(hi - lo, dtype=np.int8)

    for s, e, words, squarefree in _segments(lo, hi, targets.get("squarefree")):
        for name, arr in targets.items():
            if name == "squarefree":
                continue  # _segments marked the flags in place
            dst = arr[s - lo : e - lo]
            # a parity bit b (word bit 8: omega, bit 12: Omega) becomes the
            # sign 1 - 2b; mobius is masked by squarefree
            np.right_shift(words, 12 if name == "liouville" else 8, out=dst.view(np.uint8),
                           casting="unsafe")
            dst &= 1
            dst *= -2
            dst += 1
            if name == "mobius":
                dst *= squarefree
    return SignSeq(label, lo, targets[label])
