"""Block combinatorics, admissibility, Mirsky densities, and the sign skew product."""

import dataclasses
import importlib.util
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.errors import (
    BlockExhaustedError,
    InvalidRangeError,
    NotDisjointError,
    SignWordTooShortError,
    WindowTooLongError,
    ZeroSetTooLargeError,
)
from mflab.sieve import primes_upto
from mflab.summation import BLOCK
from mflab.symbolic import (
    _BINARY_LEN_CAP,
    _TERNARY_LEN_CAP,
    Block2,
    Block3,
    MIRSKY_PRIME_BOUND,
    SkewPoint,
    _encode_windows,
    _truncated_product,
    _word,
    apply_signs,
    block_entropy_estimate,
    empirical_block_measure,
    is_admissible,
    mirsky_cylinder_density,
    shift_invariance_defect,
    skew_step,
    square_map,
)


def _residue_count(p, shifts):
    """t(p, A), read off the one-prime Mirsky factor 1 - t(p, A) / p^2."""
    return round((1.0 - _truncated_product(sorted(shifts), np.array([p]))) * p * p)


def test_residue_count_pinned():
    assert _residue_count(2, {0, 1}) == 2
    assert _residue_count(2, {0, 4}) == 1
    assert _residue_count(3, {0, 1, 2, 9}) == 3
    assert _residue_count(5, {0}) == 1


def test_residue_count_takes_shifts_past_int64():
    # counted as Python ints, like is_admissible
    assert _residue_count(5, {0, 2**70}) == 2  # 2**70 = 24 mod 25
    assert _residue_count(5, {1, 2**70 + 2}) == 1
    assert is_admissible([0, 2**70]) is True


def test_is_admissible_takes_shifts_past_int64():
    # residues taken as Python ints: 2**70 + 3 = 3 and 2**70 + 2 = 2 mod 4
    assert is_admissible([0, 1, 2, 2**70 + 3]) is False
    assert is_admissible([0, 1, 2, 2**70 + 2]) is True


def test_admissibility_pinned():
    assert is_admissible(set()) is True
    assert is_admissible({0}) is True
    assert is_admissible({0, 1, 2}) is True
    assert is_admissible({0, 1, 2, 3}) is False
    assert is_admissible({0, 1, 2, 7}) is False  # covers all classes mod 4
    assert is_admissible({0, 4, 8, 12}) is True  # one class mod 4 only
    assert is_admissible({0, 1, 2, 4}) is True


def test_admissibility_translation_invariant():
    base = {0, 2, 6}
    for t in (1, 5, 30):
        assert is_admissible({a + t for a in base}) == is_admissible(base)


def _brute_force_admissible(shifts):
    shifts = sorted(shifts)
    if not shifts:
        return True
    for p in (2, 3, 5, 7):
        if p * p > len(shifts):
            break
        if len({a % (p * p) for a in shifts}) == p * p:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=40), max_size=7))
def test_admissibility_matches_brute_force(shifts):
    assert is_admissible(shifts) == _brute_force_admissible(shifts)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=200), max_size=40),
       st.sampled_from([1, 2, 4, 36]))
def test_admissibility_of_lists_with_repeats_matches_enumeration(values, step):
    # rounding down to a multiple of step keeps fewer classes mod 4, so
    # lists of 9 or more distinct values reach the q >= 3 tests; the brute
    # force enumerates every prime p with p^2 <= 40 distinct values
    shifts = [a - a % step for a in values]
    assert is_admissible(shifts) == _brute_force_admissible(set(shifts))


def test_admissibility_of_many_repeats_is_fast():
    t = time.perf_counter()
    assert is_admissible([0] * 10**5) is True
    assert time.perf_counter() - t < 0.05


NON_INTEGERS = [1.5, 2.0, "3", np.float64(2.0), Fraction(1, 1)]


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
@pytest.mark.parametrize("size", [1, 4, 12])
def test_is_admissible_refuses_non_integer_shifts(bad, size):
    # size 1 skips every residue test but q = 2, 12 entries are deduped first
    with pytest.raises(TypeError):
        is_admissible([*range(0, 4 * size - 4, 4), bad])


def _perfbench_oracles():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def test_small_containers_take_the_verdict_of_the_general_path():
    # a list, tuple or set of fewer than 9 bytes is decided by one translate;
    # a frozenset is not read as it is, so it takes the general path
    admissible = _perfbench_oracles().admissible
    for size in range(9):
        for combo in combinations(range(12), size):
            want = admissible(list(combo))
            assert is_admissible(frozenset(combo)) is want
            for container in (list, tuple, set):
                assert is_admissible(container(combo)) is want


@pytest.mark.parametrize("bad, error", [(1.5, TypeError), (np.float64(2), TypeError),
                                        ("3", TypeError), (-1, InvalidRangeError)], ids=repr)
@pytest.mark.parametrize("container", [list, tuple, set])
def test_small_containers_refuse_what_the_general_path_refuses(bad, error, container):
    with pytest.raises(error):
        is_admissible(container([0, 1, bad]))
    with pytest.raises(error):
        is_admissible(container([bad]))


def test_small_containers_accept_every_integer_the_general_path_accepts():
    assert is_admissible([True, False]) is True
    assert is_admissible([True, False, 2, 3]) is False
    assert is_admissible([np.uint8(1), np.int64(2), np.uint64(3), 0]) is False
    assert is_admissible([np.int16(1), np.int64(2), np.uint64(3)]) is True
    assert is_admissible([255, 0, 1, 2]) is False  # 255 % 4 = 3
    assert is_admissible([256, 1, 2, 3]) is False  # past the byte range, 256 % 4 = 0
    assert is_admissible([256, 1, 2, 6]) is True
    assert is_admissible({0, 1, 2, 255}) is False and is_admissible((0, 4, 8)) is True
    assert is_admissible([]) is True and is_admissible(()) is True
    assert is_admissible(set()) is True


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_mirsky_refuses_non_integer_shifts(bad):
    with pytest.raises(TypeError):
        mirsky_cylinder_density([0, bad], [], 100)
    with pytest.raises(TypeError):
        mirsky_cylinder_density([0], [bad], 100)


ADMISSIBILITY_CASES = [[], [0, 1, 2], [0, 1, 2, 3], [0, 4, 8, 12], [0, 1, 2, 7],
                       list(range(0, 120, 4)), list(range(0, 127, 9)), list(range(0, 127, 36)),
                       list(range(0, 64)), [5, 5, 5, 6, 6, 9, 9, 9, 9, 12]]


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
def test_numpy_integer_shifts_give_the_verdict_of_python_ints(dtype):
    for shifts in ADMISSIBILITY_CASES:
        want = is_admissible(shifts)
        assert is_admissible(np.array(shifts, dtype=dtype)) is want
        assert is_admissible([dtype(a) for a in shifts]) is want
    # np.uint8(0) % 256 overflows in the q = 16 test of 289 shifts that all
    # lie in one class mod every q^2 <= 289
    step = 2**8 * 3**4 * 5**2 * 7**2 * 11**2 * 13**2 * 17**2
    assert is_admissible([dtype(0)] + [k * step for k in range(1, 289)]) is True


def test_mirsky_takes_numpy_integer_shifts(sq_window):
    want = mirsky_cylinder_density([0, 1, 3], [2, 6], 1000, squarefree_window=sq_window)
    for dtype in (np.uint8, np.int16, np.uint64):
        got = mirsky_cylinder_density(np.array([0, 1, 3], dtype=dtype),
                                      [dtype(2), dtype(6)], 1000, squarefree_window=sq_window)
        assert got == want


def test_mirsky_single_shift(sq_window):
    md = mirsky_cylinder_density({0}, set(), 10**6, squarefree_window=sq_window)
    assert md.product_estimate == pytest.approx(0.607933069114057, abs=1e-12)
    assert md.empirical == pytest.approx(0.607926, abs=1e-9)
    assert abs(md.product_estimate - md.empirical) < 5e-3
    assert 0.0 <= md.tail_lower_bound <= 1.0


def test_mirsky_mixed_pattern(sq_window):
    md = mirsky_cylinder_density({0, 1}, {4}, 10**6, squarefree_window=sq_window)
    assert md.product_estimate == pytest.approx(0.0716590803845441, abs=1e-12)
    assert abs(md.product_estimate - md.empirical) < 5e-3


def test_mirsky_validation(sq_window):
    with pytest.raises(NotDisjointError):
        mirsky_cylinder_density({0, 1}, {1}, 1000, squarefree_window=sq_window)
    with pytest.raises(ZeroSetTooLargeError):
        mirsky_cylinder_density({0}, set(range(1, 30)), 1000,
                                squarefree_window=sq_window)


def test_mirsky_empirical_is_exact_count(sq_window):
    n_check = 10**4
    md = mirsky_cylinder_density({0, 2}, {1}, n_check, squarefree_window=sq_window)
    sq = sq_window
    hits = sum(
        1 for n in range(1, n_check + 1)
        if sq[n - 1] == 1 and sq[n + 1] == 1 and sq[n] == 0)
    assert md.empirical == hits / n_check


@pytest.mark.parametrize("ones, zeros", [([0], []), ([0, 1, 3], [2, 6]), ([], [0, 7])])
def test_mirsky_counts_from_the_mobius_window_match_the_squarefree_window(ones, zeros,
                                                                           sq_window, mu_window):
    n_check = 3 * BLOCK + 5
    md = mirsky_cylinder_density(ones, zeros, n_check)
    assert md == mirsky_cylinder_density(ones, zeros, n_check, squarefree_window=sq_window)
    assert md == mirsky_cylinder_density(ones, zeros, n_check, squarefree_window=mu_window)


def _unique_product(shifts, primes):
    """Truncated Mirsky product with residues counted by np.unique, prime by prime."""
    arr = np.asarray(shifts, dtype=np.int64)
    out = 1.0
    for p in primes:
        if not len(arr):
            break
        sq = int(p) * int(p)
        out *= 1.0 - len(np.unique(arr % sq)) / sq
        if out == 0.0:
            break
    return out


@pytest.mark.parametrize("ones, zeros", [
    ([0], []), ([0, 1, 3], [2, 6]), ([0, 4, 8, 12], [1, 2, 3]), ([0, 1, 2, 3], []),
    ([5, 29, 150, 151], [0, 49]), ([], [0, 7]),
])
def test_mirsky_product_matches_unique_reference(ones, zeros, sq_window):
    primes = primes_upto(MIRSKY_PRIME_BOUND)
    expected = 0.0
    for r in range(len(zeros) + 1):
        for extra in combinations(zeros, r):
            term = _unique_product(ones + list(extra), primes)
            expected += term if r % 2 == 0 else -term
    md = mirsky_cylinder_density(ones, zeros, 100, squarefree_window=sq_window)
    assert md.product_estimate == expected


def test_block_table_frequencies_sum_to_one():
    word = Block3(np.array([1, -1, 0, 1, 1, -1, 0, 0, 1, -1], dtype=np.int8))
    table = empirical_block_measure(word, 3, 8)
    assert table.L == 3 and table.N == 8
    assert sum(table.counts.values()) == 8
    # (1, -1, 0) starts at offsets 0 and 4 among the eight windows
    assert table.frequency((1, -1, 0)) == pytest.approx(2.0 / 8.0)
    assert table.frequency((1, 1, 1)) == 0.0


def test_block_table_matches_counter():
    rng = np.random.default_rng(123)
    word = rng.integers(-1, 2, size=400).astype(np.int8)
    L, N = 4, 300
    table = empirical_block_measure(word, L, N)
    brute = Counter(tuple(int(v) for v in word[i : i + L]) for i in range(N))
    assert table.counts == dict(brute)


def test_block_table_binary_long_words():
    rng = np.random.default_rng(5)
    word = rng.integers(0, 2, size=200).astype(np.int8)
    table = empirical_block_measure(word, 40, 100)
    assert sum(table.counts.values()) == 100
    with pytest.raises(WindowTooLongError):
        empirical_block_measure(word, 70, 100)
    with pytest.raises(WindowTooLongError):
        empirical_block_measure(word, 40, 300)


def test_block_table_csv():
    word = Block3(np.array([1, -1, 0, 1], dtype=np.int8))
    table = empirical_block_measure(word, 2, 3)
    symbol = {-1: "-", 0: "0", 1: "+"}
    names = ["".join(symbol[s] for s in word) for word in table.counts]
    assert "+-" in names and "-0" in names and "0+" in names


def test_shift_defect_zero_for_periodic():
    word = np.tile(np.array([1, 0, -1, 0], dtype=np.int8), 50)
    table = empirical_block_measure(word, 3, 4 * 40)
    assert shift_invariance_defect(table) == 0.0


def test_shift_defect_small_for_mobius(mu_window):
    table = empirical_block_measure(mu_window[: 10**6 + 2], 3, 10**6)
    defect = shift_invariance_defect(table)
    assert 0.0 <= defect <= 2 * 3 / 10**6


def test_shift_defect_cross_window(mu_window):
    a = empirical_block_measure(mu_window, 3, 10**5)
    b = empirical_block_measure(mu_window[1:], 3, 10**5)
    assert shift_invariance_defect(a, b) < 1e-4
    with pytest.raises(ValueError):
        shift_invariance_defect(a, empirical_block_measure(mu_window, 4, 100))


def test_entropy_estimate_full_shift():
    rng = np.random.default_rng(77)
    word = rng.integers(0, 2, size=3000).astype(np.int8)
    est = block_entropy_estimate(word, [1, 2, 4], 2500)
    assert est.exponents[0] == pytest.approx(1.0)
    assert all(e <= 1.0 + 1e-12 for e in est.exponents)
    assert est.envelope == sorted(est.envelope, reverse=True)


@pytest.mark.parametrize("L_grid, N", [([], 10), ([0, 2], 10), ([2], 0), ([2], -3)])
def test_entropy_rejects_bad_ranges(L_grid, N):
    word = np.zeros(100, dtype=np.int8)
    with pytest.raises(InvalidRangeError):
        block_entropy_estimate(word, L_grid, N)


def test_entropy_envelope_monotone_for_squarefree(sq_window):
    est = block_entropy_estimate(sq_window[: 10**5 + 16], [4, 8, 16], 10**5)
    assert est.envelope[0] >= est.envelope[1] >= est.envelope[2]
    assert est.exponents[0] == pytest.approx(0.9767226489021297, abs=1e-9)


def _repetitive_word(alphabet: tuple[int, ...], size: int, seed: int) -> np.ndarray:
    """A period-37 word with a few random flips: long windows repeat, but not all."""
    rng = np.random.default_rng(seed)
    word = np.resize(rng.choice(alphabet, 37), size).astype(np.int8)
    flips = rng.choice(size, 12, replace=False)
    word[flips] = rng.choice(alphabet, 12)
    word[0] = alphabet[0]  # ternary words hold a -1, so they are read as ternary
    return word


@pytest.mark.parametrize("alphabet, L", [
    ((0, 1), 1), ((0, 1), 7), ((0, 1), _BINARY_LEN_CAP),
    ((-1, 0, 1), 1), ((-1, 0, 1), 7), ((-1, 0, 1), _TERNARY_LEN_CAP),
    # a whole grid in one call: unsorted, with a duplicate, up to the cap
    ((0, 1), [7, 1, _BINARY_LEN_CAP, 7, 30]), ((-1, 0, 1), [7, 1, _TERNARY_LEN_CAP, 7, 20]),
])
def test_entropy_distinct_counts_match_brute_force(alphabet, L):
    grid = L if isinstance(L, list) else [L]
    N = 600
    word = _repetitive_word(alphabet, N + max(grid) - 1, seed=max(grid))
    est = block_entropy_estimate(word, grid, N)
    want = []
    for L in sorted(grid):
        distinct = len({tuple(word[i : i + L]) for i in range(N)})
        assert 1 < distinct < N
        want.append(math.log2(distinct) / L)
    assert est.exponents == want


@pytest.mark.parametrize("alphabet, L", [
    ((0, 1), 1), ((0, 1), 5), ((0, 1), 32), ((0, 1), 33), ((0, 1), _BINARY_LEN_CAP),
    ((-1, 0, 1), 1), ((-1, 0, 1), 5), ((-1, 0, 1), 20), ((-1, 0, 1), 21),
    ((-1, 0, 1), _TERNARY_LEN_CAP),
])
def test_encode_windows_matches_python_fold(alphabet, L):
    binary = alphabet == (0, 1)
    base = len(alphabet)
    N = 200
    # ends in L copies of the top symbol, so the last code is base**L - 1
    word = np.concatenate([_repetitive_word(alphabet, N - 1, seed=L),
                           np.full(L, alphabet[-1], dtype=np.int8)])
    codes = _encode_windows(word, L, N, binary)
    # half-width codes while base**L fits 32 bits: binary L <= 32, ternary L <= 20
    assert codes.dtype == (np.uint32 if base**L <= 2**32 else np.uint64) and len(codes) == N
    for i in range(N):
        code = 0
        for symbol in word[i : i + L]:
            code = code * base + int(symbol) - alphabet[0]
        assert int(codes[i]) == code
    assert int(codes[-1]) == base**L - 1


@pytest.mark.parametrize("alphabet, L", [((0, 1), 32), ((0, 1), 33),
                                         ((-1, 0, 1), 20), ((-1, 0, 1), 21)])
def test_block_statistics_agree_across_the_code_width_boundary(alphabet, L):
    # L is the last length with 32-bit codes or the first with 64-bit ones;
    # the grid divides codes of one width down to a length below L
    N = 500
    word = _repetitive_word(alphabet, N + L - 1, seed=L)
    table = empirical_block_measure(word, L, N)
    brute = Counter(tuple(int(v) for v in word[i : i + L]) for i in range(N))
    assert 1 < len(brute) < N and table.counts == dict(brute)
    grid = [1, L - 1, L]
    est = block_entropy_estimate(word, grid, N)
    assert est.exponents == [math.log2(len({tuple(word[i : i + k]) for i in range(N)})) / k
                             for k in grid]


def test_entropy_memory_does_not_scale_with_window(mu_window):
    assert len(mu_window) > 10**7
    tracemalloc.start()
    try:
        block_entropy_estimate(mu_window, [2, 16], 500_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # converting the whole 1e7 window to uint64 alone would take 80 MB
    assert peak < 20 * 2**20


def test_alphabet_choice_needs_no_window_sized_temporary(mu_window):
    tracemalloc.start()
    try:
        values, binary = _word(mu_window, head=len(mu_window))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values is mu_window and not binary
    # a boolean mask of the 1e7 window alone would take 9.5 MiB
    assert peak < 2**20
    assert _word(np.empty(0, dtype=np.int8), head=0)[1]
    assert _word(mu_window[mu_window >= 0][:1000], head=1000)[1]


@pytest.mark.parametrize("alphabet, L", [((0, 1), _BINARY_LEN_CAP), ((-1, 0, 1), _TERNARY_LEN_CAP)])
def test_block_table_matches_counter_at_the_caps(alphabet, L):
    N = 500
    word = _repetitive_word(alphabet, N + L - 1, seed=L)
    table = empirical_block_measure(word, L, N)
    brute = Counter(tuple(int(v) for v in word[i : i + L]) for i in range(N))
    assert 1 < len(brute) < N and table.counts == dict(brute)


def test_blocks_on_the_whole_window_need_no_window_sized_temporary(mu_window, sq_window):
    assert len(mu_window) > 10**7
    tracemalloc.start()
    try:
        x, y = Block2(sq_window), Block3(mu_window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.values is sq_window and y.values is mu_window
    # np.isin over the 1e7 window took 114 MiB
    assert peak < 2**20


def test_block_classes_share_one_body_but_stay_apart():
    x, y = Block2([0, 1], start=5), Block3([0, 1], start=5)
    assert repr(x) == "Block2(start=5)" and repr(y) == "Block3(start=5)"
    assert not isinstance(x, Block3) and not isinstance(y, Block2)
    assert [f.name for f in dataclasses.fields(x)] == ["values", "start"]
    # a Block3 holding only 0 and 1 is read as binary, so the 64-symbol cap applies
    table = empirical_block_measure(Block3(np.ones(70, np.int8)), _BINARY_LEN_CAP, 2)
    assert table.counts == {(1,) * _BINARY_LEN_CAP: 2}


@pytest.mark.parametrize("make", [
    lambda: Block2([0, 2]),
    lambda: Block2([0, -1]),
    lambda: Block3([2]),
    lambda: Block3(np.zeros((2, 2), np.int8)),
    lambda: Block2(np.zeros((1, 3), np.int8)),
    lambda: SkewPoint(Block2([1, 0, 1]), [1, 0, -1]),
    lambda: SkewPoint(Block2([1]), [2]),
    lambda: apply_signs(Block2([1, 1]), [-1, 0]),
    lambda: apply_signs(Block2([1]), [[1]]),
])
def test_words_refuse_values_outside_their_alphabet(make):
    with pytest.raises(ValueError, match="block values"):
        make()


@pytest.mark.parametrize("values", [[0, 2, 1, 0, 2], [1, -1, 0, -2, 1], [0, 1, 100, 1, 0]])
def test_block_statistics_refuse_symbols_outside_the_alphabet(values):
    with pytest.raises(ValueError, match="block values"):
        empirical_block_measure(values, 2, 4)
    with pytest.raises(ValueError, match="block values"):
        block_entropy_estimate(values, [2], 4)


def test_wide_integers_are_range_checked_before_the_int8_cast():
    # an int8 cast alone would read 256 as 0 and 257 as 1
    with pytest.raises(ValueError, match="block values"):
        Block2(np.array([0, 256, 1], dtype=np.int64))
    with pytest.raises(ValueError, match="block values"):
        empirical_block_measure(np.array([0, 257, 1], dtype=np.int64), 1, 3)
    with pytest.raises(ValueError, match="block values"):
        Block3(np.array([-255, 0], dtype=np.int16))
    word = Block3(np.array([-1, 0, 1], dtype=np.int64))
    assert word.values.dtype == np.int8 and word.values.tolist() == [-1, 0, 1]


def test_fractional_words_are_refused_before_the_int8_cast():
    # an int8 cast alone would read 0.5 and 0.9 as 0
    with pytest.raises(ValueError, match="block values"):
        Block2(np.array([0.5, 1.0, 0.9]))
    with pytest.raises(ValueError, match="block values"):
        empirical_block_measure([0.5, 1, 0.2], 1, 3)
    with pytest.raises(ValueError, match="block values"):
        Block3(np.array([1.0, -1.0]))
    assert Block2(np.array([True, False])).values.tolist() == [1, 0]
    assert len(Block2([])) == 0


def _divmod_table(values: np.ndarray, L: int, N: int, binary: bool) -> dict:
    """The block table decoded one distinct code at a time with divmod."""
    base, shift = (2, 0) if binary else (3, 1)
    codes, counts = np.unique(_encode_windows(values, L, N, binary), return_counts=True)
    table = {}
    for code, m in zip(codes.tolist(), counts.tolist()):
        word = []
        for _ in range(L):
            code, digit = divmod(code, base)
            word.append(digit - shift)
        table[tuple(reversed(word))] = m
    return table


def test_block_table_decodes_as_divmod_does(mu_window, sq_window):
    N = 2 * 10**6
    for values, L, binary in ((mu_window, 12, False), (sq_window, 20, True)):
        table = empirical_block_measure(values, L, N).counts
        assert sorted(table.items()) == sorted(_divmod_table(values, L, N, binary).items())


def test_square_map_and_apply_signs_roundtrip():
    x = Block2(np.array([1, 0, 0, 1, 1, 0, 1], dtype=np.int8))
    signs = np.array([1, -1, -1, 1], dtype=np.int8)
    y = apply_signs(x, signs)
    assert y.values.tolist() == [1, 0, 0, -1, -1, 0, 1]
    assert np.array_equal(square_map(y).values, x.values)


def test_apply_signs_needs_enough_signs():
    x = Block2(np.array([1, 1, 1], dtype=np.int8))
    with pytest.raises(SignWordTooShortError):
        apply_signs(x, np.array([1], dtype=np.int8))
    with pytest.raises(SignWordTooShortError):
        SkewPoint(x, np.array([1, -1], dtype=np.int8))


def test_first_product_and_step():
    x = Block2(np.array([1, 0, 1], dtype=np.int8))
    pt = SkewPoint(x, np.array([-1, 1], dtype=np.int8))
    assert pt.first_product() == -1
    stepped = skew_step(pt)
    assert stepped.base.values.tolist() == [0, 1]
    assert stepped.base.start == x.start + 1
    assert stepped.signs.tolist() == [1]
    assert stepped.first_product() == 0
    third = skew_step(skew_step(stepped))
    with pytest.raises(BlockExhaustedError):
        skew_step(third)


def test_skew_equivariance_single_step():
    x = Block2(np.array([1, 1, 0, 1], dtype=np.int8))
    signs = np.array([1, -1, 1], dtype=np.int8)
    y = apply_signs(x, signs)
    stepped = skew_step(SkewPoint(x, signs))
    y_step = apply_signs(stepped.base, stepped.signs)
    assert np.array_equal(y_step.values, y.values[1:])
    assert y_step.start == y.start + 1


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_skew_identities_random(bits, seed):
    rng = np.random.default_rng(seed)
    x = Block2(np.array(bits, dtype=np.int8))
    ones = int(np.sum(x.values))
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=ones + 2)
    pt = SkewPoint(x, signs)
    y = apply_signs(x, signs)

    # projection: squaring the assembled word returns the base
    assert np.array_equal(square_map(y).values, x.values)
    # the leading assembled symbol is the first product
    assert int(y.values[0]) == pt.first_product()
    # one step downstairs matches one shift upstairs
    stepped = skew_step(pt)
    y_step = apply_signs(stepped.base, stepped.signs)
    assert np.array_equal(y_step.values, y.values[1:])


def test_reconstruction_from_squarefree_signs(mu_window, sq_window, lam_window):
    # placing the Liouville signs found at square-free positions onto the
    # square-free indicator rebuilds the first million values exactly
    top = 10**4
    x = Block2(sq_window[:top])
    signs = lam_window[:top][sq_window[:top] == 1]
    y = apply_signs(x, signs)
    assert np.array_equal(y.values, mu_window[:top])
