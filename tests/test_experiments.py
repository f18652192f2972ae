"""Decay experiments: exact small-scale oracles, caching, reports."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spectral_window_energy
import mflab.experiments as ex
from mflab.cache import write_cache
from mflab.errors import AllSquaredError, InvalidRangeError, NotDisjointError, WindowLimitError
from mflab.experiments import (
    EXPERIMENTS,
    THETA_STAR,
    WINDOW_LIMIT,
    Pattern,
    WindowStore,
    input_checksum,
    load_caches,
    mobius_exponential_sum,
    pattern_correlation,
    rotation_orthogonality,
    run_experiment,
    short_interval_average,
    sign_window,
    small_correlation_fraction,
    squarefree_modulated_sum,
    squarefree_support,
    two_point_correlation,
    windowed_sum_energy,
)
from mflab.sequences import BoundedSeq, TrigPoly, correlation_table, cross_correlation
from mflab.sieve import LABELS, SEGMENT, SignSeq, sieve
from mflab.summation import (
    BLOCK,
    CHUNK,
    PLANE_SPAN,
    blocks,
    lag_sums,
    modulated_average,
    product_sum,
)
from mflab.symbolic import mirsky_cylinder_density

TAU = 2.0 * math.pi


def test_exponential_sum_at_zero_is_mertens_ratio(mu_window):
    v = mobius_exponential_sum(0.0, 10**6)
    assert v == complex(212 / 10**6)
    assert v.imag == 0.0


def test_exponential_sum_matches_direct_evaluation(mu_window):
    theta = 1.2345
    N = 5000
    got = mobius_exponential_sum(theta, N)
    n = np.arange(1, N + 1, dtype=np.float64)
    direct = np.sum(mu_window[:N] * np.exp(1j * theta * n)) / N
    assert abs(got - direct) < 1e-12


# N on both sides of the row (1024), piece (65536) and CHUNK edges
KERNEL_NS = [1, 1023, 1024, 1025, 65537, CHUNK + 17]
KERNEL_THETAS = [THETA_STAR, -2.9, math.pi, 1e-6, TAU * 0.999]


def _direct_average(mask, theta, N):
    n = np.arange(1, N + 1, dtype=np.float64)
    return np.sum(mask[:N] * np.exp(1j * theta * n)) / N


@pytest.mark.parametrize("N", KERNEL_NS)
@pytest.mark.parametrize("theta", KERNEL_THETAS)
def test_exponential_sum_kernel_matches_per_element_oracle(mu_window, theta, N):
    got = mobius_exponential_sum(theta, N)
    assert abs(got - _direct_average(mu_window, theta, N)) < 1e-12


def test_squarefree_modulated_sum_matches_per_element_oracle(mu_window, sq_window):
    N = CHUNK + 17
    mask = mu_window[:N] * sq_window[1 : 1 + N] * sq_window[3 : 3 + N]
    got = squarefree_modulated_sum([1, 3], THETA_STAR, N)
    assert abs(got - _direct_average(mask, THETA_STAR, N)) < 1e-12


def test_two_point_pinned_values(lam_window):
    assert two_point_correlation(1, 10**5) == 68 / 10**5
    base = lam_window[: 10**4]
    s = int(np.sum(base * lam_window[3 : 3 + 10**4], dtype=np.int64))
    assert two_point_correlation(3, 10**4) == abs(s) / 10**4


def test_squarefree_modulated_sum_exact(sq_window, mu_window):
    N = 10**5
    got = squarefree_modulated_sum({1, 2}, 0.0, N)
    assert got == complex(-61 / N)
    mask = mu_window[:N] * sq_window[1 : 1 + N] * sq_window[2 : 2 + N]
    assert got.real == int(np.sum(mask, dtype=np.int64)) / N


def test_squarefree_modulated_sum_rejects_zero_shift():
    with pytest.raises(InvalidRangeError):
        squarefree_modulated_sum({0, 1}, 0.0, 100)


@pytest.mark.parametrize("shift", [1.5, "2", np.float64(2.0), Fraction(2, 1)])
def test_squarefree_modulated_sum_refuses_non_integer_shifts(shift):
    # a float used to be truncated and a str parsed by int()
    with pytest.raises(TypeError):
        squarefree_modulated_sum([shift, 3], 0.0, 1000)


def test_squarefree_modulated_sum_takes_numpy_integer_shifts(mu_window):
    N = 10**4
    want = squarefree_modulated_sum([1, 3], THETA_STAR, N)
    assert squarefree_modulated_sum([np.uint8(1), np.int64(3)], THETA_STAR, N) == want
    assert squarefree_modulated_sum(np.array([3, 1, 3], np.uint16), THETA_STAR, N) == want


def test_pattern_validation():
    with pytest.raises(NotDisjointError):
        Pattern((1, 1), (1, 1))
    with pytest.raises(ValueError):
        Pattern((0, 1), (1, 3))
    with pytest.raises(InvalidRangeError):
        Pattern((), ())
    with pytest.raises(AllSquaredError):
        pattern_correlation(Pattern((0, 1), (2, 2)), 100)


def test_pattern_correlation_matches_brute(mu_window):
    N = 10**4
    pat = Pattern((0, 1, 3), (1, 2, 1))
    got = pattern_correlation(pat, N)
    mu = mu_window
    total = sum(
        int(mu[n - 1]) * int(mu[n]) ** 2 * int(mu[n + 2])
        for n in range(1, N + 1))
    assert got == total / N


def test_small_correlation_fraction_matches_brute(lam_window):
    H, X, delta = 12, 10**4, 0.05
    got = small_correlation_fraction(H, X, delta)
    base = lam_window[:X]
    hits = sum(
        1 for h in range(1, H + 1)
        if abs(int(np.sum(base * lam_window[h : h + X], dtype=np.int64))) <= delta * X)
    assert got == hits / H
    with pytest.raises(ValueError):
        small_correlation_fraction(H, X, 1.5)


def test_windowed_sum_energy_direct_brute(mu_window):
    k, h, N = 2, 3, 4000
    direct = windowed_sum_energy(k, h, N)
    mu = mu_window
    total = sum(
        sum(int(mu[n + k * l - 1]) for l in range(1, h + 1)) ** 2
        for n in range(1, N + 1))
    assert direct == total / N
    assert abs(direct - spectral_window_energy(mu, k, h, N)) <= (2 * h * k / N) * h * h


@pytest.mark.parametrize("h", [11, 12, 127, 128, 129, 181, 182])
def test_windowed_sum_energy_both_accumulators_match_brute(h, mu_window, monkeypatch):
    # the sums take int8 up to h = 127 and int16 above, the squares int8 up to
    # h = 11, int16 up to 181 and int32 above: each h sits on one side of an
    # edge.  An int8 sum would still square right at h = 128 (+128 wraps to
    # -128), so 129 is the first h it would get wrong.
    k, N = 2, 300
    total = sum(
        sum(int(mu_window[n + k * l - 1]) for l in range(1, h + 1)) ** 2
        for n in range(1, N + 1))
    assert windowed_sum_energy(k, h, N) == total / N
    # constant windows reach the extremes |sum| = h and h^2 of each dtype
    for fill in (1, -1):
        monkeypatch.setattr(ex, "sign_window", lambda label, n: np.full(n, fill, dtype=np.int8))
        assert windowed_sum_energy(k, h, N) == h * h


def test_short_interval_average_matches_brute(mu_window):
    mu = mu_window[: 3 * 10**4].tolist()
    for H, X in [(10, 10**4), (1, 1), (3, 7), (50, 20), (7, 300)]:
        total = sum(abs(sum(mu[x : x + H])) for x in range(X, 2 * X))
        assert short_interval_average(H, X) == total / (H * X), (H, X)


# N on both sides of one BLOCK (65536) and a few blocks in, with a ragged tail
BLOCK_NS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]


@pytest.mark.parametrize("N", BLOCK_NS)
def test_block_kernels_match_int64_references(N, mu_window, lam_window, sq_window):
    top = 9 * BLOCK  # past every reach below: short_interval's 2N + H
    mu, lam, sq = (w[:top].astype(np.int64) for w in (mu_window, lam_window, sq_window))
    assert mobius_exponential_sum(0.0, N) == complex(int(mu[:N].sum()) / N)
    mask = mu[:N] * sq[1 : 1 + N] * sq[3 : 3 + N]
    assert squarefree_modulated_sum([1, 3], 0.0, N) == complex(int(mask.sum()) / N)
    got = squarefree_modulated_sum([1, 3], THETA_STAR, N)
    assert abs(got - _direct_average(mask, THETA_STAR, N)) < 1e-12
    for label, w in (("mobius", mu), ("liouville", lam), ("squarefree", sq)):
        product = w[:N] * w[1 : 1 + N] * w[2 : 2 + N] ** 2
        assert pattern_correlation(Pattern((0, 1, 2), (1, 1, 2)), N, label) == (
            int(product.sum()) / N)
    lags = [int(np.sum(lam[:N] * lam[h : h + N])) for h in range(1, 9)]
    assert two_point_correlation(3, N) == abs(lags[2]) / N
    assert small_correlation_fraction(8, N, 0.01) == sum(abs(s) <= 0.01 * N for s in lags) / 8
    for k, h in ((1, 1), (3, 10), (2, 200)):
        sums = sum(mu[k * l : k * l + N] for l in range(1, h + 1))
        assert windowed_sum_energy(k, h, N) == int(np.sum(sums**2)) / N
    for H in (1, 100, BLOCK + 5, 2 * BLOCK + 3):
        csum = np.concatenate(([0], np.cumsum(mu[N : 2 * N + H])))
        inner = np.abs(csum[H : H + N] - csum[:N])
        assert short_interval_average(H, N) == int(inner.sum()) / (H * N), H
    hits = (sq[:N] == 1) & (sq[1 : 1 + N] == 1) & (sq[3 : 3 + N] == 1)
    hits &= (sq[2 : 2 + N] == 0) & (sq[6 : 6 + N] == 0)
    got = mirsky_cylinder_density([0, 1, 3], [2, 6], N).empirical
    assert got == int(np.count_nonzero(hits)) / N


@pytest.mark.parametrize("value", [-128, 2, 100])
@pytest.mark.parametrize("lags", [[0, 5, PLANE_SPAN + 3], [PLANE_SPAN + 3, PLANE_SPAN + 8]])
@pytest.mark.parametrize("where", ["span start", "lag reach", "past a span group"])
def test_lag_sums_refuse_values_outside_the_sign_alphabet(value, lags, where):
    # one value planted where the second span starts, past stop inside the
    # lags' reach, or past stop + PLANE_SPAN, which only the lag group at
    # PLANE_SPAN reads; with no lag below PLANE_SPAN each span's own planes
    # are packed apart from the groups'
    start, stop = 3, 3 + PLANE_SPAN + 10
    w = np.random.default_rng(5).integers(-1, 2, stop + max(lags), dtype=np.int8)
    w[{"span start": start + PLANE_SPAN, "lag reach": stop + 2,
       "past a span group": stop + PLANE_SPAN + 1}[where]] = value
    with pytest.raises(ValueError, match="bit planes"):
        lag_sums(w, lags, start, stop)


def test_product_sum_forms_products_in_the_factors_result_dtype():
    # int16 products past the int8 range, one int8 factor, and a ragged last block
    N = 3 * BLOCK + 7
    rng = np.random.default_rng(7)
    a, b = (rng.integers(-181, 182, N + 2, dtype=np.int16) for _ in range(2))
    signs = rng.integers(-1, 2, N, dtype=np.int8)
    want = int(np.sum(a[:N].astype(np.int64) * signs * b[2 : 2 + N]))
    assert product_sum([a, signs, b[2:]], N) == want


def test_blocks_fold_the_operation_and_lend_a_lone_factor_read_only():
    N = 2 * BLOCK + 3
    x = np.arange(N + 2, dtype=np.int64)
    out = np.empty(BLOCK, np.int64)
    parts = [(b, part.copy()) for b, part in blocks([x[2:], x[1:], x], N, out, np.subtract)]
    assert [b for b, _ in parts] == [0, BLOCK, 2 * BLOCK]
    assert np.array_equal(np.concatenate([p for _, p in parts]), x[2 : N + 2] - x[1 : N + 1] - x[:N])
    (b, view), = blocks([x], 5, out)
    assert np.shares_memory(view, x) and not view.flags.writeable
    assert x.flags.writeable


# lags on both sides of a word (64) and of a span, and past two spans
PLANE_LAGS = [0, 1, 63, 64, 65, 129, PLANE_SPAN - 1, PLANE_SPAN, PLANE_SPAN + 1,
              PLANE_SPAN + 65, 2 * PLANE_SPAN + 3]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["ternary", "mobius", "liouville", "squarefree"]),
       lags=st.lists(st.one_of(st.sampled_from(PLANE_LAGS), st.integers(0, 3 * PLANE_SPAN)),
                     min_size=1, max_size=5),
       start=st.integers(0, 200),
       length=st.one_of(st.integers(1, 63), st.integers(1, 3 * PLANE_SPAN)),
       seed=st.integers(0, 2**32 - 1))
def test_lag_sums_equal_int64_products(kind, lags, start, length, seed,
                                       mu_window, lam_window, sq_window):
    rng = np.random.default_rng(seed)
    stop = start + length
    need = stop + max(lags)
    if kind == "ternary":
        w = rng.integers(-1, 2, need, dtype=np.int8)
    else:
        window = {"mobius": mu_window, "liouville": lam_window, "squarefree": sq_window}[kind]
        at = int(rng.integers(0, len(window) - need))
        w = window[at : at + need]
    w64 = w.astype(np.int64)
    want = [int(np.sum(w64[start:stop] * w64[start + h : stop + h])) for h in lags]
    assert lag_sums(w, lags, start, stop) == want


def test_block_kernels_allocate_no_window_sized_array(mu_window, lam_window, sq_window):
    # the windows are grown by the fixtures, so only the kernels' own arrays count
    N = 2 * 10**6
    g = BoundedSeq.from_samples(mu_window, label="mobius", sup_bound=1.0)
    h = BoundedSeq.from_samples(lam_window, label="liouville", sup_bound=1.0)
    runs = {
        "mobius_exponential": lambda: mobius_exponential_sum(THETA_STAR, N),
        "mobius_exponential at 0": lambda: mobius_exponential_sum(0.0, N),
        "squarefree_shifts": lambda: squarefree_modulated_sum([1, 3], THETA_STAR, N),
        "squarefree_shifts at 0": lambda: squarefree_modulated_sum([1, 3], 0.0, N),
        "pattern": lambda: pattern_correlation(Pattern((0, 1, 2), (1, 1, 2)), N),
        "pattern squarefree": lambda: pattern_correlation(
            Pattern((0, 1, 2), (1, 1, 2)), N, "squarefree"),
        "two_point": lambda: two_point_correlation(3, N),
        "small_fraction": lambda: small_correlation_fraction(8, N, 0.001),
        "window_energy h=10": lambda: windowed_sum_energy(3, 10, N),
        "window_energy h=200": lambda: windowed_sum_energy(3, 200, N),
        "short_interval": lambda: short_interval_average(100, N),
        "mirsky": lambda: mirsky_cylinder_density([0, 1, 3], [2, 6], N),
        "correlation_table": lambda: correlation_table(g, N, 8),
        "cross_correlation": lambda: cross_correlation(g, h, N),
    }
    peaks = {}
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peak < 1 << 20 for peak in peaks.values()), peaks


@pytest.mark.parametrize("N", [10**4, 2**20 - 1, 2**20 + 1, 3 * 2**20 + 5])
def test_rotation_orthogonality_is_linear(N):
    # one pass over the window serves every harmonic, bit for bit; at
    # frequency 0 the angle reduces to 0.0 and keeps the exact integer route
    alpha = 0.77
    poly = TrigPoly(np.array([0.0, 1.0, 2.5, 3.0]), np.array([0.5, 2.0, -1j, 0.25j]))
    thetas = [math.remainder(f * alpha, TAU) for f in poly.freqs]
    got = rotation_orthogonality(alpha, poly, N)
    want = 0j
    for theta, c in zip(thetas, poly.coeffs):
        want += complex(c) * mobius_exponential_sum(theta, N)
    assert got == want
    mu = sign_window("mobius", N)
    values = modulated_average([mu], thetas, N)
    assert values == [mobius_exponential_sum(theta, N) for theta in thetas]
    assert thetas[0] == 0.0 and values[0] == complex(int(mu[:N].sum()) / N)
    assert math.copysign(1.0, values[0].imag) == 1.0


def test_rotation_orthogonality_without_harmonics_reads_no_window(fresh_windows, sieve_calls):
    assert rotation_orthogonality(0.77, TrigPoly(np.array([]), np.array([])), 10**4) == 0j
    assert sieve_calls == []


def test_sign_window_grows_and_reuses(fresh_windows, sieve_calls):
    first = sign_window("mobius", 100)
    again = sign_window("mobius", 60)
    assert np.array_equal(again, first[:60])
    assert len(sign_window("mobius", 150)) == 150
    # the first pass filled every label up to one segment
    assert sieve_calls == [("mobius", 1, SEGMENT + 1)]
    assert np.array_equal(sign_window("liouville", 5000), sieve("liouville", 1, 5001).values)
    assert len(sieve_calls) == 1

    grown = sign_window("squarefree", SEGMENT + 5)
    # the square-free window is read off the grown mobius window
    assert sieve_calls[1] == ("mobius", SEGMENT + 1, 2 * SEGMENT + 1)
    assert np.array_equal(grown, sieve("squarefree", 1, SEGMENT + 6).values)
    assert len(sign_window("mobius", 2 * SEGMENT)) == 2 * SEGMENT
    assert len(sieve_calls) == 2
    # views handed out before the growth still hold the old values
    assert np.array_equal(first, sieve("mobius", 1, 101).values)


@pytest.mark.parametrize("cache_length, passes", [
    (0, [(1, SEGMENT + 1), (SEGMENT + 1, 2 * SEGMENT + 1), (2 * SEGMENT + 1, 4 * SEGMENT + 1)]),
    # the first three requests are read off the cached mobius window
    (SEGMENT + 3001, [(SEGMENT + 3002, 4 * SEGMENT + 1)]),
])
def test_squarefree_window_is_mobius_squared(tmp_path, fresh_windows, sieve_calls,
                                             cache_length, passes):
    if cache_length:
        write_cache(tmp_path / "mobius.bin", sieve("mobius", 1, cache_length + 1))
        load_caches(tmp_path)
    for hi in (SEGMENT - 1, SEGMENT, SEGMENT + 1, 3 * SEGMENT + 5):
        window = sign_window("squarefree", hi)
        assert window.dtype == np.int8
        assert np.array_equal(window, sieve("squarefree", 1, hi + 1).values)
    assert sieve_calls == [("mobius", *span) for span in passes]


@pytest.mark.parametrize("N", [BLOCK - 1, BLOCK + 1, CHUNK - 1, CHUNK + 17])
@pytest.mark.parametrize("theta", [0.0, THETA_STAR])
def test_squarefree_modulated_sum_equals_sieved_squarefree_factors(mu_window, N, theta):
    shifts = [1, 2, 5]
    sq = sieve("squarefree", 1, N + 6).values
    want = modulated_average([mu_window] + [sq[a:] for a in shifts], [theta], N)[0]
    assert squarefree_modulated_sum(shifts, theta, N) == want


@pytest.mark.parametrize("N", [10**5, 10**6])
def test_squarefree_pattern_equals_the_product_of_squarefree_factors(sq_window, N):
    pattern = Pattern((0, 1, 2, 5), (1, 2, 1, 2))
    want = product_sum([sq_window[a:] for a in (0, 1, 1, 2, 5, 5)], N) / N
    assert pattern_correlation(pattern, N, "squarefree") == want


def test_squarefree_pattern_reads_an_adopted_cache_without_sieving(tmp_path, fresh_windows,
                                                                  sieve_calls, sq_window):
    N, pattern = 5000, Pattern((0, 3), (1, 2))
    want = product_sum([sq_window, sq_window[3:]], N) / N
    write_cache(tmp_path / "squarefree.bin", sieve("squarefree", 1, N + 4))
    load_caches(tmp_path)
    assert pattern_correlation(pattern, N, "squarefree") == want
    assert sieve_calls == []
    # past the cache the factors come from the Mobius window
    assert pattern_correlation(pattern, N + 1, "squarefree") == (
        product_sum([sq_window, sq_window[3:]], N + 1) / (N + 1))
    assert sieve_calls == [("mobius", 1, SEGMENT + 1)]


def test_mirsky_reads_an_adopted_squarefree_cache_without_sieving(tmp_path, fresh_windows,
                                                                   sieve_calls, sq_window):
    n = 5000
    want = mirsky_cylinder_density([0, 1, 3], [2], n, squarefree_window=sq_window)
    write_cache(tmp_path / "squarefree.bin", sieve("squarefree", 1, n + 4))
    load_caches(tmp_path)
    assert mirsky_cylinder_density([0, 1, 3], [2], n) == want
    assert np.shares_memory(squarefree_support(n + 3), ex.WINDOWS._windows["squarefree"])
    assert sieve_calls == []
    # past the cache the support is the Mobius window
    assert np.array_equal(squarefree_support(n + 4), sign_window("mobius", n + 4))
    assert sieve_calls == [("mobius", 1, SEGMENT + 1)]


def test_battery_experiments_hold_no_squarefree_window(fresh_windows):
    mobius_exponential_sum(THETA_STAR, 10**5)
    two_point_correlation(1, 10**5)
    squarefree_modulated_sum([1, 2], 0.0, 10**5)
    assert sorted(ex.WINDOWS._windows) == ["liouville", "mobius"]


def test_growth_frees_the_old_windows_before_sieving():
    grown = {name: np.empty(SEGMENT, dtype=np.int8) for name in ("mobius", "liouville")}
    store = WindowStore()
    tracemalloc.start()
    try:
        # one pass as the store makes it, over the last segment of the growth below
        sieve("mobius", 3 * SEGMENT + 1, 4 * SEGMENT + 1, out=dict(grown))
        one_pass = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        store.get("mobius", SEGMENT)
        store.get("mobius", 4 * SEGMENT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two grown windows, the sieve's own flags, words and scratch, and
    # a page for the store's dicts and array headers (about 1.2 KB);
    # holding the old windows through the sieve pass would add 2 * SEGMENT
    assert peak < 8 * SEGMENT + one_pass + 4096


def test_growing_mobius_drops_a_shorter_squarefree_window(sieve_calls):
    store = WindowStore()
    store.get("squarefree", 10)
    store.get("mobius", 3 * SEGMENT)
    assert {k: len(v) for k, v in store._windows.items()} == {
        "mobius": 3 * SEGMENT, "liouville": 3 * SEGMENT}
    got = store.get("squarefree", 2 * SEGMENT + 5)
    assert np.array_equal(got, sieve("squarefree", 1, 2 * SEGMENT + 6).values)
    assert sieve_calls == [("mobius", 1, SEGMENT + 1), ("mobius", SEGMENT + 1, 3 * SEGMENT + 1)]


def test_adopting_a_longer_mobius_window_leaves_no_squarefree_window(sieve_calls):
    store = WindowStore()
    store.get("squarefree", 10)
    store.adopt(sieve("mobius", 1, 3 * SEGMENT + 1))
    assert {k: len(v) for k, v in store._windows.items()} == {
        "mobius": 3 * SEGMENT, "liouville": SEGMENT}
    got = store.get("squarefree", 2 * SEGMENT)
    assert np.array_equal(got, sieve("squarefree", 1, 2 * SEGMENT + 1).values)
    # a derived window is the caller's own array, not a view of the store's
    assert not np.shares_memory(got, store._windows["mobius"])
    assert sorted(store._windows) == ["liouville", "mobius"]
    assert sieve_calls == [("mobius", 1, SEGMENT + 1)]


def test_squarefree_read_off_a_held_mobius_window_passes_the_limit(sieve_calls):
    store = WindowStore(limit=SEGMENT)
    store.adopt(sieve("mobius", 1, 2 * SEGMENT + 1))
    got = store.get("squarefree", SEGMENT + 5)
    assert np.array_equal(got, sieve("squarefree", 1, SEGMENT + 6).values)
    assert sieve_calls == []


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
@pytest.mark.parametrize("stop", [0, SEGMENT])
def test_a_failed_growth_keeps_only_the_valid_prefix(monkeypatch, error, stop):
    store = WindowStore()
    held = {label: store.get(label, stop).copy() for label in LABELS} if stop else {}

    def fail_halfway(label, lo, hi, out=None):
        sieve(label, lo, lo + SEGMENT // 2, out={n: a[: SEGMENT // 2] for n, a in out.items()})
        raise error

    monkeypatch.setattr(ex, "sieve", fail_halfway)
    with pytest.raises(error):
        store.get("mobius", stop + 2 * SEGMENT)
    calls = []

    def recording(label, lo, hi, out=None):
        calls.append((lo, hi))
        return sieve(label, lo, hi, out=out)

    monkeypatch.setattr(ex, "sieve", recording)
    for label, values in held.items():
        assert np.array_equal(store.get(label, stop), values)
    assert calls == []
    # the half-filled tail is sieved again from the old end, not served
    got = store.get("squarefree", stop + 5)
    assert calls == [(stop + 1, stop + SEGMENT + 1)]
    assert np.array_equal(got, sieve("squarefree", 1, stop + 6).values)


def test_sign_window_rejects_bad_requests(fresh_windows):
    with pytest.raises(ValueError):
        sign_window("mertens", 10)
    with pytest.raises(InvalidRangeError):
        sign_window("mobius", 0)


def test_window_limit_boundary(sieve_calls):
    store = WindowStore(limit=SEGMENT)
    assert len(store.get("mobius", SEGMENT)) == SEGMENT
    with pytest.raises(WindowLimitError, match="allow_large"):
        store.get("liouville", SEGMENT + 1)
    assert sieve_calls == [("mobius", 1, SEGMENT + 1)]
    # a window already held is served past the limit; only growth is refused
    store.adopt(SignSeq("squarefree", 1, sieve("squarefree", 1, SEGMENT + 11).values))
    assert len(store.get("squarefree", SEGMENT + 10)) == SEGMENT + 10
    with pytest.raises(WindowLimitError):
        store.get("squarefree", SEGMENT + 11)
    assert len(sieve_calls) == 1


@pytest.mark.parametrize("label", ["mobius", "squarefree"])
def test_library_window_past_the_limit_allocates_nothing(fresh_windows, monkeypatch, label):
    def no_sieve(label, lo, hi, out=None):
        raise AssertionError(f"sieved {label} on [{lo}, {hi})")

    monkeypatch.setattr(ex, "sieve", no_sieve)
    assert ex.WINDOWS.limit == WINDOW_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(WindowLimitError, match="allow_large"):
            sign_window(label, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sign_window_reads_cache(tmp_path, fresh_windows, sieve_calls):
    hi = 5000
    seq = sieve("mobius", 1, hi + 1)
    write_cache(tmp_path / "mobius.bin", seq)
    load_caches(tmp_path)
    got = sign_window("mobius", hi)
    assert np.array_equal(got, seq.values[:hi])
    assert sieve_calls == []


def test_short_cache_is_extended_from_its_tail(tmp_path, fresh_windows, sieve_calls):
    write_cache(tmp_path / "mobius.bin", sieve("mobius", 1, 3001))
    load_caches(tmp_path)
    got = sign_window("mobius", 4000)
    assert sieve_calls == [("mobius", 3001, SEGMENT + 1)]
    assert np.array_equal(got, sieve("mobius", 1, 4001).values)


def test_run_experiment_report_shape(tmp_path):
    report = run_experiment("two_point", {"h": 1}, [1000, 2000])
    assert report.id == "two_point"
    assert report.grid == [1000, 2000]
    assert len(report.values) == 2
    assert set(report.indicators) == {
        "final_abs", "max_abs", "decreasing_abs", "endpoint_decay"}
    assert report.params == {"h": 1}
    out = tmp_path / "report.json"
    report.write(out)
    data = json.loads(out.read_text())
    assert data["id"] == "two_point"
    assert [row["N"] for row in data["grid"]] == [1000, 2000]
    assert all({"N", "value_re", "value_im"} == set(row) for row in data["grid"])
    assert data["input_checksum"] == report.input_checksum


def test_run_experiment_rejects_unknown_id():
    with pytest.raises(ValueError):
        run_experiment("mertens", {}, [100])


@pytest.mark.parametrize("exp_id, params, match", [
    ("mobius_exponential", {"theta_over_2pl": 0.618}, "'theta_over_2pl'"),
    ("mobius_exponential", {"theta": 1.0, "theta_over_2pi": 0.5}, "not both"),
    ("squarefree_shifts", {"shifts": [1], "theta": 1.0, "theta_over_2pi": 0.5}, "not both"),
    ("two_point", {"h": 1, "theta": 0.5}, "'theta'"),
    # every name an adapter indexes is required
    ("squarefree_shifts", {"theta": 1.0}, "needs param 'shifts'"),
    ("pattern", {"shifts": [0, 1]}, "needs param 'exponents'"),
    ("two_point", {}, "needs param 'h'"),
    ("small_fraction", {}, "needs param 'H', 'delta'"),
    ("window_energy", {"k": 3}, "needs param 'h'"),
    ("short_interval", {}, "needs param 'H'"),
    ("rotation", {"poly": []}, "needs param 'alpha'"),
])
def test_run_experiment_rejects_unknown_params(exp_id, params, match):
    with pytest.raises(ValueError, match=match):
        run_experiment(exp_id, params, [100])


@pytest.mark.parametrize("grid", [[1.5, True], [100, True], ["100"], [0], [100, -5], 100, []])
def test_run_experiment_refuses_grids_that_are_not_positive_integers(grid, sieve_calls):
    with pytest.raises(ValueError, match="'grid'"):
        run_experiment("two_point", {"h": 1}, grid)
    assert sieve_calls == []


@pytest.mark.parametrize("poly", [
    [{"freq": 1.0, "rel": 2.0}],
    [{"re": 1.0}],
    [1.0],
    [{"freq": 1.0, "re": 1.0}, ["freq", 2.0]],
    {"freq": 1.0},
])
def test_rotation_rejects_malformed_poly_terms(poly):
    with pytest.raises(ValueError, match="poly"):
        run_experiment("rotation", {"alpha": 1.0, "poly": poly}, [1000])


def test_run_experiment_is_deterministic():
    a = run_experiment("mobius_exponential", {"theta": 0.3}, [500, 1000])
    b = run_experiment("mobius_exponential", {"theta": 0.3}, [500, 1000])
    assert a.values == b.values
    assert a.input_checksum == b.input_checksum
    da, db = a.to_dict(), b.to_dict()
    da.pop("runtime_ms"), db.pop("runtime_ms")
    assert da == db


def test_checksum_tracks_inputs():
    base = input_checksum("two_point", {"h": 1}, [1000])
    assert input_checksum("two_point", {"h": 2}, [1000]) != base
    assert input_checksum("two_point", {"h": 1}, [2000]) != base
    assert input_checksum("two_point", {"h": 1}, [1000]) == base


# per id: params for run_experiment, and the same value by a direct call
REGISTRY_CASES = {
    "mobius_exponential": (
        {"theta_over_2pi": 0.3}, lambda N: mobius_exponential_sum(TAU * 0.3, N)),
    "squarefree_shifts": (
        {"shifts": [1, 2], "theta": 0.7}, lambda N: squarefree_modulated_sum([1, 2], 0.7, N)),
    "pattern": (
        {"shifts": [0, 1, 2], "exponents": [1, 1, 2], "label": "liouville"},
        lambda N: pattern_correlation(Pattern((0, 1, 2), (1, 1, 2)), N, "liouville")),
    "two_point": ({"h": 3}, lambda N: two_point_correlation(3, N)),
    "small_fraction": (
        {"H": 8, "delta": 0.01}, lambda N: small_correlation_fraction(8, N, 0.01)),
    "window_energy": (
        {"k": 3, "h": 10},
        lambda N: windowed_sum_energy(3, 10, N) / 10**2),
    "short_interval": ({"H": 100}, lambda N: short_interval_average(100, N)),
    "rotation": (
        {"alpha": 1.3, "poly": [{"freq": 2.5, "im": -1.0}, {"freq": 1.0, "re": 2.0}]},
        lambda N: rotation_orthogonality(
            1.3, TrigPoly(np.array([1.0, 2.5]), np.array([2.0 + 0j, -1j])), N)),
}


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_registry_dispatch_matches_direct_call(exp_id):
    params, direct = REGISTRY_CASES[exp_id]
    N = 5000
    report = run_experiment(exp_id, params, [N])
    assert report.values == [complex(direct(N))]
    assert report.params == params
    assert "shards" not in report.params
