"""Sieve correctness against the trial-factorization oracle and known sums."""

import hashlib
import importlib
import tracemalloc
from math import isqrt

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.errors import InvalidRangeError, RangeOverflowError
from mflab.sieve import (
    LABELS,
    MAX_INDEX,
    SEGMENT,
    SIEVE_LIMIT,
    WHEEL,
    SignSeq,
    _log_weight,
    _tile,
    _wheel,
    factor_oracle,
    oracle_values,
    primes_upto,
    sieve,
)
from mflab.summation import BLOCK

PRIMES_BELOW_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_primes_upto_hundred():
    primes = primes_upto(100)
    assert primes.dtype == np.int64
    assert primes.tolist() == PRIMES_BELOW_100


def test_primes_upto_edge_cases():
    assert primes_upto(1).tolist() == []
    assert primes_upto(2).tolist() == [2]


def test_primes_upto_memory_is_one_table_and_one_prime_array():
    bound = 10**7
    tracemalloc.start()
    try:
        primes = primes_upto(bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert primes.dtype == np.int64 and len(primes) == 664_579
    # the bool flag table plus the primes; a second int64 copy would add 5 MiB
    assert peak < (bound + 1) + primes.nbytes + 2**20


def _sieve_peak(label: str, lo: int, hi: int, out: dict | None = None) -> tuple[int, SignSeq]:
    tracemalloc.start()
    try:
        seq = sieve(label, lo, hi, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, seq


def test_sieve_scratch_memory_is_one_segment_of_words():
    lo, hi = 1, 3 * SEGMENT + 1
    out = {label: np.empty(hi - lo, dtype=np.int8) for label in LABELS}
    peak, _ = _sieve_peak("mobius", lo, hi, out)
    # the uint16 words of one segment and a BLOCK of leftover scratch; the
    # flags are marked in out["squarefree"]
    assert peak < 2 * SEGMENT + 2**18


def test_sieve_without_out_adds_one_segment_of_flags():
    lo, hi = 1, 3 * SEGMENT + 1
    peak, seq = _sieve_peak("mobius", lo, hi)
    assert peak < 3 * SEGMENT + 2**18 + seq.values.nbytes


@pytest.mark.parametrize("lo, hi", [
    (1, 2 * SEGMENT + 5),  # segment seams from the bottom
    (SEGMENT - 17, SEGMENT + BLOCK + 23),  # a segment seam and a BLOCK seam
    (37 * WHEEL - 300, 37 * WHEEL + 300),  # a wheel seam
    (10**12 - 5, 10**12 + SEGMENT + 3 * WHEEL),  # a segment seam far out
])
def test_flags_marked_in_out_give_the_bytes_of_the_segment_buffer(lo, hi):
    # without out["squarefree"] the flags live in the sieve's own segment
    # buffer and show only through mobius, whose absolute value they are
    mu = sieve("mobius", lo, hi).values
    lam = sieve("liouville", lo, hi).values
    size = hi - lo
    buf = np.zeros(2 * size, dtype=np.int8)
    for flags in (np.empty(size, dtype=np.int8), buf[::2], np.empty(size, dtype=np.int8)[::-1]):
        out = {"squarefree": flags, "liouville": np.empty(size, dtype=np.int8)}
        assert np.array_equal(sieve("mobius", lo, hi, out=out).values, mu)
        assert np.array_equal(flags, np.abs(mu)) and np.array_equal(out["liouville"], lam)
    assert not buf[1::2].any()


def test_sieve_refuses_out_arrays_that_share_memory():
    a = np.zeros(9, dtype=np.int8)
    buf = np.zeros(20, dtype=np.int8)
    for out in ({"mobius": a, "squarefree": a}, {"mobius": a, "liouville": a[::-1]},
                {"liouville": buf[:9], "squarefree": buf[5:14]}):
        with pytest.raises(ValueError, match="share memory"):
            sieve("mobius", 1, 10, out=out)
        assert not a.any() and not buf.any()
    # disjoint views of one buffer are fine
    sieve("mobius", 1, 10, out={"mobius": buf[:9], "squarefree": buf[9:18]})
    assert buf[:9].tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0]
    assert buf[9:18].tolist() == [1, 1, 1, 0, 1, 1, 1, 0, 0]


def test_factor_oracle_small():
    assert factor_oracle(1) == []
    assert factor_oracle(2) == [2]
    assert factor_oracle(12) == [2, 2, 3]
    assert factor_oracle(97) == [97]
    assert factor_oracle(2 * 3 * 5 * 7 * 11) == [2, 3, 5, 7, 11]


def test_oracle_values_pinned():
    # mu, lambda, mu^2 at hand-checked points
    assert oracle_values(1) == (1, 1, 1)
    assert oracle_values(2) == (-1, -1, 1)
    assert oracle_values(4) == (0, 1, 0)
    assert oracle_values(6) == (1, 1, 1)
    assert oracle_values(8) == (0, -1, 0)
    assert oracle_values(12) == (0, -1, 0)
    assert oracle_values(30) == (-1, -1, 1)


def test_mobius_first_ten():
    seq = sieve("mobius", 1, 11)
    assert seq.values.tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_liouville_first_four():
    seq = sieve("liouville", 1, 5)
    assert seq.values.tolist() == [1, -1, -1, 1]


def test_squarefree_first_twelve():
    seq = sieve("squarefree", 1, 13)
    assert seq.values.tolist() == [1, 1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 0]


def test_signseq_accessors():
    seq = sieve("mobius", 5, 12)
    assert seq.start == 5 and seq.stop == 12
    assert len(seq.values) == 7
    assert seq.value(7) == -1
    with pytest.raises(InvalidRangeError):
        seq.value(12)


def test_sieve_validation():
    with pytest.raises(InvalidRangeError):
        sieve("mobius", 0, 10)
    with pytest.raises(InvalidRangeError):
        sieve("mobius", 10, 10)
    with pytest.raises(ValueError):
        sieve("mertens", 1, 10)
    with pytest.raises(RangeOverflowError):
        sieve("mobius", MAX_INDEX, MAX_INDEX + 2)
    with pytest.raises(ValueError):
        sieve("mobius", 1, 10, out={"mertens": np.empty(9, dtype=np.int8)})
    with pytest.raises(ValueError):
        sieve("mobius", 1, 10, out={"mobius": np.empty(8, dtype=np.int8)})


def test_sieve_limit_is_checked_before_allocating(monkeypatch):
    # the package re-exports the function sieve, which shadows the module name
    sv = importlib.import_module("mflab.sieve")
    bounds = []

    def refuse(bound):
        bounds.append(bound)
        raise MemoryError("base-prime table requested")

    monkeypatch.setattr(sv, "primes_upto", refuse)
    for lo, hi in [(2**62, 2**62 + 8), (SIEVE_LIMIT - 8, SIEVE_LIMIT + 1)]:
        with pytest.raises(RangeOverflowError, match="SIEVE_LIMIT"):
            sieve("mobius", lo, hi)
    assert bounds == []
    # hi = SIEVE_LIMIT itself is accepted and asks for primes up to 1e8 - 1
    with pytest.raises(MemoryError):
        sieve("mobius", SIEVE_LIMIT - 8, SIEVE_LIMIT)
    assert bounds == [isqrt(SIEVE_LIMIT - 1)] and isqrt(SIEVE_LIMIT - 1) < 10**8


def test_segment_boundary_consistency():
    # windows straddling the internal segment size must agree with a
    # window computed in one piece
    lo = SEGMENT - 17
    hi = SEGMENT + 23
    joined = sieve("mobius", lo, hi).values
    whole = sieve("mobius", 1, hi).values[lo - 1 :]
    assert np.array_equal(joined, whole)
    # one pass with out= fills every label as the single-label calls do,
    # also into views of a larger buffer, with or without the returned label
    out = {label: np.full(hi - lo, 7, dtype=np.int8) for label in LABELS}
    assert sieve("liouville", lo, hi, out=out).values is out["liouville"]
    buf = np.zeros(hi - lo + 10, dtype=np.int8)
    mu = sieve("mobius", lo, hi, out={"squarefree": buf[10:]}).values
    assert np.array_equal(mu, joined) and np.array_equal(out["mobius"], joined)
    assert np.array_equal(buf[10:], out["squarefree"]) and not buf[:10].any()
    for label in LABELS:
        assert np.array_equal(out[label], sieve(label, lo, hi).values)


def _all_labels(lo: int, hi: int) -> dict[str, np.ndarray]:
    out = {label: np.empty(hi - lo, dtype=np.int8) for label in LABELS}
    sieve("mobius", lo, hi, out=out)
    return out


def _labels_at(out: dict[str, np.ndarray], i: int) -> tuple[int, int, int]:
    return int(out["mobius"][i]), int(out["liouville"][i]), int(out["squarefree"][i])


@pytest.mark.parametrize("lo, hi", [
    # isqrt(hi - 1) < 11: wheel primes above the root bound
    (1, 2), (1, 50), (1, 122),
    # starting at a multiple of the wheel period, and crossing one
    (36 * WHEEL, 36 * WHEEL + 600),
    (37 * WHEEL - 300, 37 * WHEEL + 300),
])
def test_kernel_edges_match_oracle(lo, hi):
    out = _all_labels(lo, hi)
    for i, n in enumerate(range(lo, hi)):
        assert _labels_at(out, i) == oracle_values(n), n


def _check_tile(offset: int, size: int) -> None:
    for period in _wheel():
        out = np.empty(size, dtype=period.dtype)
        _tile(period, offset, out)
        assert np.array_equal(out, period[(offset + np.arange(size)) % WHEEL]), (offset, size)


@pytest.mark.parametrize("offset", [0, 1, WHEEL - 1])
def test_wheel_tiling_matches_the_period_modulo_wheel(offset):
    for size in (1, WHEEL - offset, WHEEL - offset + 1, 3 * WHEEL + 5, SEGMENT):
        _check_tile(offset, size)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, WHEEL - 1), st.integers(1, 4 * WHEEL))
def test_wheel_tiling_sweep(offset, size):
    _check_tile(offset, size)


def test_multi_segment_window_off_the_wheel_matches_oracle():
    lo = 3 * WHEEL + 12345
    hi = lo + 2 * SEGMENT + 999
    out = _all_labels(lo, hi)
    assert np.array_equal(out["mobius"], out["liouville"] * out["squarefree"])
    # every 997th index, and 40 on either side of each segment and wheel seam
    points = set(range(lo, hi, 997))
    seams = [lo + SEGMENT, lo + 2 * SEGMENT, *range(-(-lo // WHEEL) * WHEEL, hi, WHEEL)]
    for seam in seams:
        points.update(range(seam - 40, min(seam + 40, hi)))
    for n in sorted(points):
        assert _labels_at(out, n - lo) == oracle_values(n), n


PRIMORIAL_12 = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37  # 7 420 738 134 810


@pytest.mark.parametrize("lo, hi", [
    # below, across and above 2**31, the first index past int32
    (2**31 - 300, 2**31),
    (2**31 - 150, 2**31 + 150),
    (2**31, 2**31 + 150),
    # omega(12#) = 12 fills the low nibble of the packed counter far up
    (PRIMORIAL_12, PRIMORIAL_12 + 8),
])
def test_around_2_31_and_primorial_match_trial_division(lo, hi):
    out = _all_labels(lo, hi)
    for i, n in enumerate(range(lo, hi)):
        assert _labels_at(out, i) == _trial_division(n), n
    if lo == PRIMORIAL_12:
        assert _labels_at(out, 0) == (1, 1, 1)


# sha256 of each label's int8 bytes, frozen from the earlier leftover test that
# compared n with the product of its small prime powers: a second route to
# the same values
FROZEN_SHA256 = {
    (1, 2**20 + 12345): {
        "mobius": "ba7554a78760fc495cb24ef73854f86ee8729441c3ebd946b768659decb8d720",
        "liouville": "258d10d749d219df4e23e4f6e792280f6a6f7ab6f3968d5029f1001430906403",
        "squarefree": "80a00024879ef728bbddecffe1f96ae719a5079ca08f29e86c890c5dbe8479d8",
    },
    (2**31 - 2**16, 2**31 + 2**16): {
        "mobius": "62f9f9e50b7c1a8975d9371703b008c0f4cb341e37262b2ba749729e9ad97ef5",
        "liouville": "6d8a758389f02f3679e212d7b6472efee3e9b9ac3831199f733f2de76643f676",
        "squarefree": "f587fbe98888f95aa6fd41b6bfc92e7f53af39a2a21b9c4714e3f9533c2a3c61",
    },
    (10**15, 10**15 + 2**16): {
        "mobius": "02f2a53babe2f14336ae143ad6171798cca84d2ec6eae6722a523e0ecac71383",
        "liouville": "12c4d4b495c742bfe9f0228f169943b0ce6a1fc188a3719ae9cb93ef6cb1532b",
        "squarefree": "3869b6b64ee63fb1590ffb330b870367a81d943dc1ebdb5d89ba3f614d774e1c",
    },
}


@pytest.mark.parametrize("lo, hi", list(FROZEN_SHA256))
def test_sieve_bytes_match_frozen_sha256(lo, hi):
    out = _all_labels(lo, hi)
    assert {label: hashlib.sha256(out[label].tobytes()).hexdigest()
            for label in LABELS} == FROZEN_SHA256[lo, hi]


def test_powers_of_two_at_the_bottom_of_a_window(monkeypatch):
    # n = 2**k and 3 * 2**k carry the largest log byte for their band: 4k and
    # 4k + 6 (L(2) = 4, L(3) = 6) against the leftover threshold 3k.  Only 2
    # and 3 divide them, so the base primes are cut to those below 100: the
    # values at n do not depend on the others, and the windows stay cheap.
    sv = importlib.import_module("mflab.sieve")
    monkeypatch.setattr(sv, "primes_upto", lambda bound, full=sv.primes_upto: full(min(bound, 100)))
    for k in range(52):
        for t in (0, 1):
            n, distinct, omega = 3**t << k, (k > 0) + t, k + t
            assert n < SIEVE_LIMIT
            out = _all_labels(n, n + 8)
            squarefree = int(omega == distinct)
            assert _labels_at(out, 0) == ((-1) ** distinct * squarefree, (-1) ** omega,
                                          squarefree), n


_SMALL_PRIMES = primes_upto(2**16)


def _is_prime(n: int) -> bool:
    """Trial division by the primes up to 2**16; enough for n < 2**32."""
    return n > 1 and bool(np.all(n % _SMALL_PRIMES[_SMALL_PRIMES**2 <= n]))


def test_log_weight_is_floor_of_four_log2_at_the_band_edges():
    # L(p) steps from j - 1 to j at 2**(j/4); check the primes on either side
    # of each ceil(2**(j/4)) up to 2**32, past isqrt(MAX_INDEX), against a
    # 40-digit log2 (4 log2 p is irrational for p > 2, so its floor is sharp)
    checked = []
    with mpmath.workdps(40):
        for j in range(5, 129):
            edge = int(mpmath.ceil(mpmath.power(2, mpmath.mpf(j) / 4)))
            below = next(p for p in range(edge - 1, 1, -1) if _is_prime(p))
            above = next(p for p in range(edge, 2 * edge) if _is_prime(p))
            for p in (below, above):
                assert _log_weight(p) == int(mpmath.floor(4 * mpmath.log(p, 2))), p
            assert _log_weight(below) < j <= _log_weight(above)
            checked.append(above)
    assert checked[-1] > isqrt(MAX_INDEX)
    assert _log_weight(2) == 4 and _log_weight(3) == 6


def test_identity_on_medium_window(mu_window, lam_window, sq_window):
    top = 2 * 10**6
    assert np.array_equal(mu_window[:top], lam_window[:top] * sq_window[:top])


def test_mertens_values(mu_window):
    csum = np.cumsum(mu_window[: 10**6], dtype=np.int64)
    assert csum[10**3 - 1] == 2
    assert csum[10**4 - 1] == -23
    assert csum[10**6 - 1] == 212


def test_squarefree_count_at_ten_million(sq_window):
    assert int(np.sum(sq_window[: 10**7], dtype=np.int64)) == 6079291


def test_oracle_agreement_on_prefix(mu_window, lam_window, sq_window):
    for n in range(1, 3001):
        mu, lam, sq = oracle_values(n)
        assert mu_window[n - 1] == mu
        assert lam_window[n - 1] == lam
        assert sq_window[n - 1] == sq


@settings(max_examples=40, deadline=None)
@given(
    lo=st.integers(min_value=1, max_value=10**6),
    width=st.integers(min_value=1, max_value=300),
)
def test_sieve_matches_oracle_on_random_windows(lo, width):
    mu = sieve("mobius", lo, lo + width).values
    lam = sieve("liouville", lo, lo + width).values
    sq = sieve("squarefree", lo, lo + width).values
    for i, n in enumerate(range(lo, lo + width)):
        assert (mu[i], lam[i], sq[i]) == oracle_values(n)


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(min_value=1, max_value=10**9), width=st.integers(min_value=1, max_value=200))
def test_pointwise_invariants_hold_high_up(lo, width):
    mu = sieve("mobius", lo, lo + width).values
    lam = sieve("liouville", lo, lo + width).values
    sq = sieve("squarefree", lo, lo + width).values
    assert np.array_equal(mu, lam * sq)
    assert np.array_equal(np.abs(mu), sq)
    assert set(np.unique(lam)).issubset({-1, 1})
    assert set(np.unique(sq)).issubset({0, 1})


FAR_TOP = 10**13 + 10**6 + 64
_TRIAL_DIVISORS = np.arange(2, isqrt(FAR_TOP) + 1, dtype=np.int64)


def _trial_division(n: int) -> tuple[int, int, int]:
    """(mobius, liouville, squarefree) at n by dividing out every d <= isqrt(n) in turn.

    No prime table is involved: once the smaller divisors are divided out,
    only primes still divide the cofactor, and what remains above isqrt(n)
    is 1 or a prime.
    """
    candidates = _TRIAL_DIVISORS[: isqrt(n) - 1]
    m, total, distinct = n, 0, 0
    for d in candidates[n % candidates == 0].tolist():
        if m % d == 0:
            distinct += 1
        while m % d == 0:
            m //= d
            total += 1
    if m > 1:
        distinct += 1
        total += 1
    squarefree = int(total == distinct)
    return (-1) ** distinct * squarefree, (-1) ** total, squarefree


@pytest.mark.parametrize("base", [10**12, 10**13])
@settings(max_examples=4, deadline=None)
@given(offset=st.integers(min_value=0, max_value=10**6), width=st.integers(min_value=1, max_value=24))
def test_far_windows_match_trial_division(base, offset, width):
    lo = base + offset
    out = {label: np.empty(width, dtype=np.int8) for label in LABELS}
    sieve("mobius", lo, lo + width, out=out)
    for i, n in enumerate(range(lo, lo + width)):
        got = (int(out["mobius"][i]), int(out["liouville"][i]), int(out["squarefree"][i]))
        assert got == _trial_division(n), n
