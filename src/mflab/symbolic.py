"""Block combinatorics for square-free patterns and the sign skew product.

Finite words stand in for points of the relevant shift spaces: Block2 is a
word over {0, 1} (a stretch of a square-free indicator), Block3 a word over
{-1, 0, 1} (a stretch of a sign sequence).  Both carry the index of their
first symbol so windows cut from different offsets stay comparable.

A pattern of shifts A is admissible when, for every prime p, the residues
of A modulo p^2 miss at least one class; only primes with p^2 <= |A| can
fail, which keeps the check finite.  Cylinder densities for square-free
patterns follow Mirsky: the probability that all shifts in A land on
square-free numbers is the product over p of (1 - t(p, A) / p^2) with
t(p, A) the number of distinct residues of A mod p^2.

Block statistics encode each window as one integer, its symbols as base-2
or base-3 digits, and sort the codes: uint32 codes while base**L <= 2**32
(binary L <= 32, ternary L <= 20), uint64 above.

The skew product couples a {0,1} word with a word of signs: each step
shifts the first word by one and consumes one sign exactly when the symbol
read off was a 1.  Assembling signs onto a support word intertwines this
walk with the plain shift, which the tests check symbol by symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from math import isqrt
from operator import index

import numpy as np

from .errors import (
    BlockExhaustedError,
    InvalidRangeError,
    NotDisjointError,
    SignWordTooShortError,
    WindowTooLongError,
    ZeroSetTooLargeError,
)
from .experiments import squarefree_support
from .sieve import primes_upto
from .summation import BLOCK

MIRSKY_PRIME_BOUND = 10**4
ZERO_SET_CAP = 20
_BINARY_LEN_CAP = 64
_TERNARY_LEN_CAP = 39
# is_admissible: the containers read with no per-element conversion, and
# byte a -> a % 4, the only residue that decides fewer than 9 shifts
_READ_AS_IS = frozenset((list, tuple, set))
_MOD4 = bytes(a & 3 for a in range(256))


def _word(values, alphabet=(-1, 0, 1), head: int | None = None) -> tuple[np.ndarray, bool]:
    """values as a 1-D int8 array, and whether its first head symbols (all
    when None) lie in {0, 1}; ValueError unless they are integers (a float
    cast would truncate 0.5) in alphabet: (0, 1), (-1, 0, 1) or the signs
    (-1, 1).  min() and max() need no temporary of the word's size, and
    count_nonzero tells signs from a ternary word.  All three read values
    in their own dtype, so 256 is refused before the int8 cast could wrap
    it; int8 values are not copied."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size and arr.dtype.kind not in "biu":
        raise ValueError("block values must be one-dimensional integers")
    part = arr[:head]
    lo, hi = (part.min(), part.max()) if part.size else (0, 0)
    if lo < alphabet[0] or hi > alphabet[-1] or (
            0 not in alphabet and np.count_nonzero(part) < part.size):
        raise ValueError(f"block values must lie in {alphabet}")
    return arr.astype(np.int8, copy=False), bool(lo >= 0)


@dataclass
class _Block:
    """Finite word over the subclass's _alphabet starting at a 1-based index."""

    values: np.ndarray = field(repr=False)
    start: int = 1

    def __post_init__(self) -> None:
        self.values = _word(self.values, self._alphabet)[0]

    def __len__(self) -> int:
        return len(self.values)


class Block2(_Block):
    """Finite word over {0, 1} starting at a 1-based index."""

    _alphabet = (0, 1)


class Block3(_Block):
    """Finite word over {-1, 0, 1} starting at a 1-based index."""

    _alphabet = (-1, 0, 1)


@dataclass
class SkewPoint:
    """A {0,1} word together with the sign word it has yet to consume."""

    base: Block2
    signs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.signs = _word(self.signs, (-1, 1))[0]
        ones = int(np.sum(self.base.values))
        if len(self.signs) < ones:
            raise SignWordTooShortError(f"{len(self.signs)} signs for {ones} ones")

    def first_product(self) -> int:
        """Product of the leading symbols; 0 whenever the base starts with 0."""
        lead = int(self.base.values[0]) if len(self.base) else 0
        if lead == 0:
            return 0
        return int(self.signs[0])


def is_admissible(shifts) -> bool:
    """True when the shift set misses a residue class mod p^2 for every p.

    Only moduli q^2 <= |shifts| can have every class covered, so only those
    are checked.  Composite q are checked too, which never changes the
    verdict: covering every class mod q^2 covers every class mod p^2 for
    each prime p dividing q.  The empty set is admissible.  Translation
    invariant.

    shifts is an iterable of non-negative integers, repeats allowed: Python
    ints, bools, numpy integer scalars or an integer array.  Anything else
    raises TypeError (a float is not truncated, a str not parsed), a
    negative shift InvalidRangeError.  A list, tuple or set of Python ints
    is read as it is, with no per-element conversion: fewer than 9 entries
    in 0..255 are decided by one bytes(shifts).translate(_MOD4), which
    refuses a negative, a float or a str and sends it on; otherwise the
    q = 2 test takes a & 3, which refuses non-integers, and more than 8
    entries are deduped first, so repeats cannot lengthen the q loop.  Any
    other input goes once more through operator.index: an iterator has no
    len, and a numpy scalar can overflow (uint8 % 256).
    """
    if type(shifts) in _READ_AS_IS and len(shifts) < 9:
        try:
            mod4 = bytes(shifts).translate(_MOD4)
        except (TypeError, ValueError):
            pass
        else:
            return not (0 in mod4 and 1 in mod4 and 2 in mod4 and 3 in mod4)
    try:
        if len(shifts) > 8:
            shifts = set(shifts.tolist() if isinstance(shifts, np.ndarray) else shifts)
        covered = len({a & 3 for a in shifts}) == 4
        if len(shifts) and min(shifts) < 0:
            raise InvalidRangeError("shifts must be non-negative")
        if covered or len(shifts) < 9:  # q >= 3 needs q * q <= len(shifts)
            return not covered
        for q in range(3, isqrt(len(shifts)) + 1):
            square = q * q
            if len({a % square for a in shifts}) == square:
                return False
        return True
    except (TypeError, OverflowError):
        pass
    return is_admissible([index(a) for a in shifts])


@dataclass
class MirskyDensity:
    """Product-formula density next to its empirical counterpart.

    tail_lower_bound is a floor for the factor contributed by the primes
    beyond the truncation: the true product density lies within
    [product_estimate * tail_lower_bound, product_estimate].
    """

    product_estimate: float
    empirical: float
    tail_lower_bound: float


def _truncated_product(shifts: list[int], primes: np.ndarray) -> float:
    if not shifts:
        return 1.0
    out = 1.0
    for p in primes.tolist():
        sq = p * p
        t = len({a % sq for a in shifts})
        out *= 1.0 - t / sq
        if out == 0.0:
            break
    return out


def mirsky_cylinder_density(ones, zeros, n_check: int,
                            squarefree_window: np.ndarray | None = None) -> MirskyDensity:
    """Density of { n : n+a square-free for a in ones, not for b in zeros }.

    The product estimate truncates at MIRSKY_PRIME_BOUND and handles the zero set
    by inclusion-exclusion over its subsets (capped at 20 shifts).  The
    empirical frequency counts matches among n = 1..n_check, n square-free
    where the window is nonzero: experiments.squarefree_support unless given
    (an adopted square-free cache, else the Mobius window, so the limit and
    loaded caches apply).

    Args:
        ones: shifts required square-free.
        zeros: shifts required not square-free; disjoint from ones.
        n_check: empirical sample size, >= 1.
        squarefree_window: optional indicator or Mobius values for n = 1
            onward, at least n_check + max shift long.
    """
    ones = sorted(set(map(index, ones)))
    zeros = sorted(set(map(index, zeros)))
    if min(ones + zeros, default=0) < 0:
        raise InvalidRangeError("shifts must be non-negative")
    if set(ones) & set(zeros):
        raise NotDisjointError(f"shift sets overlap: {sorted(set(ones) & set(zeros))}")
    if len(zeros) > ZERO_SET_CAP:
        raise ZeroSetTooLargeError(f"zero set has {len(zeros)} shifts, cap is {ZERO_SET_CAP}")
    if n_check < 1:
        raise InvalidRangeError(f"n_check must be >= 1, got {n_check}")

    primes = primes_upto(MIRSKY_PRIME_BOUND)
    estimate = 0.0
    for r in range(len(zeros) + 1):
        for extra in combinations(zeros, r):
            term = _truncated_product(ones + list(extra), primes)
            estimate += term if r % 2 == 0 else -term
    size = len(ones) + len(zeros)
    tail = max(0.0, 1.0 - size / MIRSKY_PRIME_BOUND)

    reach = max(ones + zeros, default=0)
    if squarefree_window is None:
        squarefree_window = squarefree_support(n_check + reach)
    if len(squarefree_window) < n_check + reach:
        raise WindowTooLongError("square-free window shorter than n_check plus max shift")
    mask = np.empty(min(BLOCK, n_check), dtype=bool)
    hit = np.empty_like(mask)
    count = 0
    for b in range(0, n_check, BLOCK):
        size = min(BLOCK, n_check - b)
        m, t = mask[:size], hit[:size]
        m.fill(True)
        for shifts, test in ((ones, np.not_equal), (zeros, np.equal)):
            for a in shifts:
                test(squarefree_window[b + a : b + a + size], 0, out=t)
                m &= t
        count += int(np.count_nonzero(m))
    empirical = count / n_check
    return MirskyDensity(estimate, empirical, tail)


# ---------------------------------------------------------------------------
# Empirical block statistics


@dataclass
class BlockTable:
    """Empirical distribution of length-L windows over N start offsets."""

    L: int
    N: int
    counts: dict[tuple[int, ...], int]

    def frequency(self, word: tuple[int, ...]) -> float:
        return self.counts.get(tuple(int(s) for s in word), 0) / self.N


def _encode_windows(values: np.ndarray, L: int, N: int, binary: bool) -> np.ndarray:
    """Integer codes of the N windows values[i : i + L], first symbol most
    significant, digit v for a binary symbol v and v + 1 for a ternary one.

    Codes are uint32 whenever base**L <= 2**32 (binary L <= 32, ternary
    L <= 20), so they sort at half width, and uint64 above.  The int8
    symbols are added into the codes in place, one symbol position at a
    time, working mod 2^32 or 2^64 (a -1 adds 2^32 - 1 or 2^64 - 1); a
    ternary word then gets sum_j 3^j = (3^L - 1) / 2 for its + 1 digits, so
    only the codes are of length N."""
    kind, cap, base = ("binary", _BINARY_LEN_CAP, 2) if binary else ("ternary", _TERNARY_LEN_CAP, 3)
    if L > cap:
        raise WindowTooLongError(f"{kind} block length capped at {cap}")
    width = np.uint32 if base**L <= 2**32 else np.uint64
    codes = values[:N].astype(width)
    for j in range(1, L):
        codes *= base
        np.add(codes, values[j : j + N], out=codes, dtype=width, casting="unsafe")
    if not binary:
        codes += (3**L - 1) // 2
    return codes


def _sorted_codes(x, L: int, N: int) -> tuple[np.ndarray, bool]:
    """The codes of the N windows x[i : i + L] (see _encode_windows), sorted
    in place, and whether the symbols they read all lie in {0, 1}.  x is a
    Block2, a Block3 or anything _word reads."""
    values, binary = _word(x.values if isinstance(x, _Block) else x, head=N + L - 1)
    if N + L - 1 > len(values):
        raise WindowTooLongError(
            f"need {N + L - 1} symbols for N={N} windows of length {L}, have {len(values)}")
    codes = _encode_windows(values, L, N, binary)
    codes.sort()
    return codes, binary


def _decode(codes: np.ndarray, L: int, binary: bool) -> list[tuple[int, ...]]:
    """The words of codes (see _encode_windows) as tuples, from L digit
    passes over all codes at once, last symbol first."""
    base = 2 if binary else 3
    rest = codes.copy()
    digits = np.empty((len(codes), L), dtype=np.int8)
    for j in range(L - 1, -1, -1):
        digits[:, j] = rest % base
        rest //= base
    if not binary:
        digits -= 1
    return list(map(tuple, digits.tolist()))


def empirical_block_measure(x, L: int, N: int) -> BlockTable:
    """Frequencies of the N length-L windows starting at offsets 0..N-1.

    Frequencies sum to exactly 1.  Raises WindowTooLongError when the data
    cannot supply N windows of length L.
    """
    if L < 1 or N < 1:
        raise InvalidRangeError(f"need L >= 1 and N >= 1, got L={L}, N={N}")
    codes, binary = _sorted_codes(x, L, N)
    ends = np.append(np.flatnonzero(codes[1:] != codes[:-1]), N - 1)  # last index of each run
    counts = np.diff(ends, prepend=-1)
    return BlockTable(L, N, dict(zip(_decode(codes[ends], L, binary), counts.tolist())))


def _marginal(table: BlockTable, drop_first: bool) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for word, count in table.counts.items():
        key = word[1:] if drop_first else word[:-1]
        out[key] = out.get(key, 0.0) + count / table.N
    return out


def shift_invariance_defect(table_a: BlockTable, table_b: BlockTable | None = None) -> float:
    """Total variation between the two one-step marginals.

    Drops the last symbol of each word in the first table and the first
    symbol in the second (the same table when omitted).  For a genuinely
    shift-invariant source both marginals agree; on a finite window they
    can differ by edge windows only, so the defect is at most 2L/N.
    """
    if table_b is None:
        table_b = table_a
    if table_a.L != table_b.L:
        raise ValueError(f"tables have different L: {table_a.L} vs {table_b.L}")
    heads = _marginal(table_a, drop_first=False)
    tails = _marginal(table_b, drop_first=True)
    keys = set(heads) | set(tails)
    return 0.5 * sum(abs(heads.get(w, 0.0) - tails.get(w, 0.0)) for w in keys)


@dataclass
class EntropyEstimate:
    """log2(number of distinct L-blocks) / L along a grid of L values."""

    L_grid: list[int]
    exponents: list[float]
    envelope: list[float]


def block_entropy_estimate(x, L_grid, N: int) -> EntropyEstimate:
    """Topological entropy proxy from distinct window counts.

    envelope is the running minimum of the exponents, which is the honest
    monotone reading since block counts are submultiplicative.  The window
    codes come sorted at the largest L (_sorted_codes); down the grid, floor
    division by base**(previous L - L) leaves the code of each word's first
    L symbols and keeps the order, so each count is one plus the steps
    between neighbours.
    """
    grid = sorted(int(L) for L in L_grid)
    if not grid or grid[0] < 1:
        raise InvalidRangeError("L grid must be non-empty with L >= 1")
    if N < 1:
        raise InvalidRangeError(f"need N >= 1, got N={N}")
    codes, binary = _sorted_codes(x, grid[-1], N)
    exps = []
    for L, longer in zip(grid[::-1], grid[-1:] + grid[::-1]):
        if L < longer:
            codes //= (2 if binary else 3) ** (longer - L)
        distinct = 1 + int(np.count_nonzero(codes[1:] != codes[:-1]))
        exps.insert(0, math.log2(distinct) / L)
    envelope = list(np.minimum.accumulate(exps))
    return EntropyEstimate(grid, exps, envelope)


# ---------------------------------------------------------------------------
# The sign skew product


def square_map(y: Block3) -> Block2:
    """Forget signs: symbol-wise square of a {-1, 0, 1} word."""
    return Block2(y.values * y.values, start=y.start)


def skew_step(pt: SkewPoint) -> SkewPoint:
    """One step: shift the base word, consume a sign when a 1 was read."""
    if len(pt.base) == 0:
        raise BlockExhaustedError("base word is exhausted")
    read = int(pt.base.values[0])
    return SkewPoint(Block2(pt.base.values[1:], start=pt.base.start + 1),
                     pt.signs[read:])


def apply_signs(x: Block2, signs) -> Block3:
    """Place signs on the support of x: the j-th one of x gets signs[j].

    Raises SignWordTooShortError when there are fewer signs than ones.
    """
    signs = _word(signs, (-1, 1))[0]
    ones = int(np.sum(x.values))
    if len(signs) < ones:
        raise SignWordTooShortError(f"{len(signs)} signs for {ones} ones")
    out = np.zeros(len(x.values), dtype=np.int8)
    out[x.values == 1] = signs[:ones]
    return Block3(out, start=x.start)
