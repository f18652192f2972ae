"""Reproducible accumulation for long averages.

Averages over 1e7 terms and more are evaluated in fixed-size chunks.  Each
chunk is reduced with numpy's pairwise summation, and the chunk totals are
folded with math.fsum, which rounds their exact sum once, in any order.  The
chunk size is a module constant, so a given input gives bit-identical output.

chunked_sum runs that loop over a term evaluated on int64 index arrays;
modulated_average runs it for a list of angles at once, one pass over the
mask for all of them.

Reductions over sign windows stream them in slices of BLOCK indices, so
their temporaries stay O(BLOCK) whatever the window length; the only arrays
of window length are the windows themselves.  blocks is their one driver:
block by block it folds an operation the caller fixes (a product, a sum, a
difference) over the factors' aligned slices into the caller's buffer.

Lag sums take sign windows only (values in {-1, 0, 1}; any other value
raises ValueError) and run on bit planes: a span of PLANE_SPAN indices is
packed into a nonzero plane z and a negative plane s of uint64 words, and
each lag then costs two popcounts per 64 indices,
sum = popcount(z & z_h) - 2 popcount(z & z_h & (s ^ s_h)), exact in
integers.  A span is longer than BLOCK because numpy's per-call overhead
dominates on planes of BLOCK / 64 = 1024 words; its temporaries stay near
half a MiB.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

CHUNK = 1 << 20
# slice length of the window reductions; CHUNK is a multiple of it
BLOCK = 1 << 16
# modulated_average: terms per row of the phase table, and the scale of its
# integer entries, which keeps a row sum of a {-1, 0, 1} mask below 2**53
ROW = 1 << 10
SCALE = 2.0**53 / ROW
# indices per packed span of the bit-plane lag sums
PLANE_SPAN = 1 << 18


def chunked_sum(term: Callable[[np.ndarray], np.ndarray], lo: int, hi: int) -> complex:
    """sum of term(idx) over the int64 indices idx in [lo, hi): each CHUNK of
    indices is summed pairwise and the chunk sums folded with math.fsum."""
    sums = [complex(np.sum(term(np.arange(start, min(start + CHUNK, hi), dtype=np.int64))))
            for start in range(lo, hi, CHUNK)]
    return complex(math.fsum(z.real for z in sums), math.fsum(z.imag for z in sums))


def blocks(factors: list[np.ndarray], N: int, out: np.ndarray,
           op=np.multiply) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (b, part) for each BLOCK [b, b + size) of [0, N), where part is
    op folded left to right over the factors' entries b..b+size-1: a
    read-only view of the one factor, else written into out[:size] (each op
    computes in its inputs' dtype, then casts to out's)."""
    first, *rest = factors
    for b in range(0, N, BLOCK):
        size = min(BLOCK, N - b)
        if rest:
            part = out[:size]
            op(first[b : b + size], rest[0][b : b + size], out=part)
            for f in rest[1:]:
                op(part, f[b : b + size], out=part)
        else:
            part = first[b : b + size]
            part.flags.writeable = False
        yield b, part


def _pack(x: np.ndarray, planes: np.ndarray, scratch: np.ndarray) -> None:
    """Pack x into the rows of planes, bit j of the little-endian uint64
    words for x[j]: row 0 holds x != 0 and row 1 holds x < 0.  Words past
    len(x) keep what they held; the lag sums mask what they read there.
    ValueError, with nothing packed, unless every value of x lies in
    {-1, 0, 1}."""
    low, high = int(x.min()), int(x.max())
    if not (-1 <= low and high <= 1):
        raise ValueError(f"bit planes take values in {{-1, 0, 1}}, not {low}..{high}")
    nbytes = -(-len(x) // 8)
    for row, bits in zip(planes, (x, np.less(x, 0, out=scratch[: len(x)]))):
        row.view(np.uint8)[:nbytes] = np.packbits(bits, bitorder="little")


def _plane_sums(planes: np.ndarray, base: np.ndarray, shifts: list[int], size: int,
                work: np.ndarray, counts: np.ndarray) -> list[int]:
    """[sum_{j<size} x[j] * y[j + r] for r in shifts], where base holds the
    planes of x and planes those of y, packed by _pack; work (six rows of
    len(planes[0]) words) and counts (two rows of size / 64 bytes, rounded
    up) are scratch.

    Shifts sharing r % 64 share one advanced copy of the planes, from which
    each takes a word-aligned slice."""
    n = -(-size // 64)
    tail = np.uint64((1 << (size % 64 or 64)) - 1)  # bits of the last word below size
    moved, spill, pair = work[0:2], work[2:4], work[4:6, :n]
    sums = [0] * len(shifts)
    by_bit: dict[int, list[int]] = {}
    for i, r in enumerate(shifts):
        by_bit.setdefault(r % 64, []).append(i)
    for bit, same in by_bit.items():
        src = planes
        if bit:
            top = max(shifts[i] for i in same) // 64 + n
            np.right_shift(planes[:, :top], bit, out=moved[:, :top])
            np.left_shift(planes[:, 1 : top + 1], 64 - bit, out=spill[:, :top])
            np.bitwise_or(moved[:, :top], spill[:, :top], out=moved[:, :top])
            src = moved
        for i in same:
            q = shifts[i] // 64
            np.bitwise_and(base[0, :n], src[0, q : q + n], out=pair[0])
            pair[0, -1] &= tail
            np.bitwise_xor(base[1, :n], src[1, q : q + n], out=pair[1])
            pair[1] &= pair[0]
            nonzero, negative = np.bitwise_count(pair, out=counts[:, :n]).sum(axis=1,
                                                                             dtype=np.uint32)
            sums[i] = int(nonzero) - 2 * int(negative)
    return sums


def lag_sums(w: np.ndarray, lags, start: int, stop: int) -> list[int]:
    """[sum_{j=start..stop-1} w[j] * w[j+h] for h in lags], as Python ints.

    w must reach index stop - 1 + max(lags), and every lag be >= 0.
    [start, stop) is taken in spans of PLANE_SPAN indices.  Lags are grouped
    by the multiple of PLANE_SPAN below them, so no packed range is longer
    than two spans however far the lags reach.  Each span and each group's
    range is packed once into bit planes, and every lag of the group is
    summed from them with popcounts (see the module docstring).  ValueError
    if a packed value lies outside {-1, 0, 1}.
    """
    lags = list(lags)
    totals = [0] * len(lags)
    if stop <= start or not lags:
        return totals
    if min(lags) < 0 or len(w) < stop + max(lags):
        raise ValueError(f"lags {min(lags)}..{max(lags)} from [{start}, {stop}) "
                         f"need more than the {len(w)} values of the window")
    groups: dict[int, list[int]] = {}
    for i, h in enumerate(lags):
        groups.setdefault(h - h % PLANE_SPAN, []).append(i)
    span = min(PLANE_SPAN, stop - start)
    reach = max(h % PLANE_SPAN for h in lags)
    words = (span + reach) // 64 + 2
    planes = np.empty((2, words), np.uint64)  # a group's range: rows x != 0 and x < 0
    base = np.empty((2, span // 64 + 1), np.uint64)  # the span's own
    work = np.empty((6, words), np.uint64)
    counts = np.empty((2, span // 64 + 1), np.uint8)
    scratch = np.empty(span + reach, dtype=bool)
    for a in range(start, stop, PLANE_SPAN):
        size = min(PLANE_SPAN, stop - a)
        if 0 not in groups:
            _pack(w[a : a + size], base, scratch)
        for off in sorted(groups):
            idx = groups[off]
            _pack(w[a + off : a + size + max(lags[i] for i in idx)], planes, scratch)
            if not off:
                base[...] = planes[:, : base.shape[1]]
            sums = _plane_sums(planes, base, [lags[i] - off for i in idx], size, work, counts)
            for i, v in zip(idx, sums):
                totals[i] += v
    return totals


def product_sum(factors: list[np.ndarray], N: int) -> int:
    """sum_{j<N} of the product of f[j] over the factors, formed one BLOCK
    at a time in their result dtype (wrapping as a whole-window product
    would) and summed exactly."""
    out = np.empty(min(BLOCK, N), dtype=np.result_type(*factors))
    return sum(int(np.sum(part, dtype=np.int64)) for _, part in blocks(factors, N, out))


def modulated_average(factors: list[np.ndarray], thetas: list[float], N: int) -> list[complex]:
    """[(1/N) * sum_{n=1..N} mask[n-1] * exp(i n theta) for theta in thetas],
    exact when theta = 0, where mask is the product of the factors, formed
    one BLOCK at a time in their result dtype.  The mask must lie in
    {-1, 0, 1}: every caller's is a product of sign windows, unchecked.

    Uses exp(i theta (n0 + j)) = exp(i theta n0) * exp(i theta j): one
    product with a (ROW, 2) table of cos(theta j), sin(theta j), j < ROW,
    rounded to integers at SCALE, sums every row of ROW terms from n0, and
    each row sum (R, I) is turned by c, s = cos(theta n0), sin(theta n0) to
    (c R - s I, s R + c I).  Row sums are integers below 2**53, exact under
    any BLAS kernel, and the real ufuncs, np.sum and math.fsum do not follow
    numpy's CPU dispatch, so one platform gives one result.  Turned rows are
    summed per CHUNK and each angle's chunk totals folded with math.fsum.
    One pass serves every angle, each with its own table, so an angle's
    result does not depend on the others.  Row starts n0 are exact below
    2**53.

    Error against the sum at the same float theta, with u = 2**-53, M the
    nonzero mask terms and Z_r = (R + i I) / SCALE: a table entry is off by
    at most 2**-44 per part from its rounding to SCALE, plus the rounding
    of theta*j and an ulp of cos and sin; a turn by the rounding of
    theta*n0, plus ulps of cos, sin, the products and the chunk sum, so

        |error| <= (M/N) (2**-43.5 + |theta| ROW u + 2u)
                   + (1/N) sum_r |Z_r| (|theta| n0_r u + 32u).

    The row phases dominate: against x87 longdouble phases at
    theta = 2*pi*0.6180339887498949 (x86_64), the Mobius sum was off by
    2.1e-14 at N = 1e6 and 6.2e-13 at N = 1e7, one float64 exp per term
    by 1.5e-14 and 1.4e-13.
    """
    turning = [theta for theta in thetas if theta != 0.0]
    j = np.arange(ROW)
    tables = [np.rint(SCALE * np.stack((np.cos(theta * j), np.sin(theta * j)), axis=1))
              for theta in turning]
    buf = np.empty(BLOCK)  # float64, reused for every piece
    mask = np.empty(BLOCK, dtype=np.result_type(*factors))
    parts = [([], []) for _ in turning]  # each angle's chunk totals, real and imaginary
    for lo in range(0, N if turning else 0, CHUNK):
        hi = min(lo + CHUNK, N)
        sums = np.empty((len(turning), -(-(hi - lo) // ROW), 2))  # (R, I) per row
        for b, part in blocks([f[lo:] for f in factors], hi - lo, mask):
            size = len(part)
            rows = -(-size // ROW)
            buf[:size] = part
            buf[size : rows * ROW] = 0.0
            first = b // ROW
            for table, out in zip(tables, sums):
                np.matmul(buf[: rows * ROW].reshape(rows, ROW), table,
                          out=out[first : first + rows])
        starts = np.arange(lo + 1, hi + 1, ROW, dtype=np.float64)
        for theta, (re, im), (R, I) in zip(turning, parts, sums.transpose(0, 2, 1)):
            c, s = np.cos(theta * starts), np.sin(theta * starts)
            re.append(np.sum(c * R - s * I))
            im.append(np.sum(s * R + c * I))
    totals = iter(complex(math.fsum(re) / (SCALE * N), math.fsum(im) / (SCALE * N))
                  for re, im in parts)
    return [next(totals) if theta != 0.0 else complex(product_sum(factors, N) / N)
            for theta in thetas]
