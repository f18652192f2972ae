"""Lag correlations and trigonometric polynomials."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.errors import InvalidRangeError, LagTooLargeError
from mflab.sequences import (
    BoundedSeq,
    TrigPoly,
    correlation_table,
    cross_correlation,
)
from mflab.sieve import sieve
from mflab.summation import BLOCK, PLANE_SPAN, lag_sums

TAU = 2.0 * math.pi


def test_exponential_correlations_are_pure_phases():
    theta = 0.83
    g = BoundedSeq.exponential(theta)
    table = correlation_table(g, 500, 6)
    for k in range(7):
        assert abs(table.value(k) - np.exp(1j * k * theta)) < 1e-12


def test_negative_lags_conjugate():
    g = BoundedSeq.exponential(1.1)
    table = correlation_table(g, 200, 4)
    for k in range(1, 5):
        assert table.value(-k) == table.value(k).conjugate()
    with pytest.raises(LagTooLargeError):
        table.value(5)


def test_correlation_table_sums_all_lags_in_one_pass(mu_window, monkeypatch):
    import mflab.sequences as seq

    N, K = PLANE_SPAN + 77, 130
    g = BoundedSeq.from_samples(mu_window[: N + K], label="mobius", sup_bound=1.0)
    w = mu_window[: N + K].astype(np.int64)
    want = [float(np.sum(w[k : k + N] * w[:N])) / N for k in range(K + 1)]
    calls = []

    def counting(w, lags, start, stop):
        calls.append((list(lags), start, stop))
        return lag_sums(w, lags, start, stop)

    monkeypatch.setattr(seq, "lag_sums", counting)
    assert correlation_table(g, N, K).values.tolist() == want
    assert calls == [(list(range(K + 1)), 0, N)]


def test_correlation_table_validation():
    g = BoundedSeq.exponential(0.5)
    with pytest.raises(LagTooLargeError):
        correlation_table(g, 10, 10)
    with pytest.raises(InvalidRangeError):
        correlation_table(g, 0, 0)


def test_sign_correlation_is_exact_integer_ratio():
    N, K = 2000, 8
    seq = sieve("mobius", 1, N + K + 1)
    g = BoundedSeq.from_samples(seq.values, label="mobius", sup_bound=1.0)
    table = correlation_table(g, N, K)
    vals = [int(v) for v in seq.values]
    for k in range(K + 1):
        expected = sum(vals[n - 1 + k] * vals[n - 1] for n in range(1, N + 1))
        assert table.value(k) == complex(expected / N)


def test_lag_zero_is_mean_square(mu_window):
    N = 10**5
    g = BoundedSeq.from_samples(mu_window, label="mobius", sup_bound=1.0)
    table = correlation_table(g, N, 0)
    density = int(np.sum(np.abs(mu_window[:N]), dtype=np.int64)) / N
    assert table.value(0) == complex(density)


def test_correlation_csv_roundtrip(tmp_path):
    g = BoundedSeq.exponential(0.3)
    table = correlation_table(g, 100, 3)
    path = tmp_path / "table.csv"
    table.write_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "re", "im"]
    assert len(rows) == 5
    for k, row in enumerate(rows[1:]):
        v = table.value(k)
        assert float(row[1]) == v.real and float(row[2]) == v.imag


@pytest.mark.parametrize("N", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("value", [100, -128, 12])
def test_int8_windows_outside_the_sign_alphabet_sum_exactly(value, N):
    g = BoundedSeq.from_samples(np.full(N + 2, value, np.int8), sup_bound=128.0)
    assert correlation_table(g, N, 1).value(0) == value * value
    assert cross_correlation(g, g, N) == value * value
    signs = BoundedSeq.from_samples(np.array([1, -1, 0, 1], np.int8))
    assert signs.samples.dtype == np.int8


@pytest.mark.parametrize("dtype, value", [(np.uint8, 200), (np.int16, 300), (np.int32, 70_000),
                                          (np.int8, -128), (np.uint64, 2**40), (np.int64, 2**33)])
def test_wide_sample_windows_correlate_exactly(dtype, value):
    # products of two values wrap in each of these dtypes but uint64; the
    # float64 promotion is exact for these products of 0 and value
    N, K = 1000, 3
    w = np.resize(np.array([value, 0, value, value, 0], dtype), N + K)
    signs = np.resize(np.array([1, -1, 0, -1], np.int8), N)
    g = BoundedSeq.from_samples(w)
    ints = [int(v) for v in w]
    table = correlation_table(g, N, K)
    for k in range(K + 1):
        assert table.value(k) == sum(ints[n + k] * ints[n] for n in range(N)) / N
    assert cross_correlation(g, g, N) == sum(v * v for v in ints[:N]) / N
    want = sum(v * int(s) for v, s in zip(ints, signs)) / N
    assert cross_correlation(g, BoundedSeq.from_samples(signs), N) == want


def test_int64_sums_past_2_63_round_instead_of_wrapping():
    value = 3 * 10**9 + 7  # its square fits int64, five of them do not
    g = BoundedSeq.from_samples(np.full(6, value, np.int64))
    assert correlation_table(g, 5, 1).value(0) == pytest.approx(value * value, rel=1e-15)
    assert cross_correlation(g, g, 5) == pytest.approx(value * value, rel=1e-15)


def test_sign_windows_are_their_own_samples():
    for arr in (np.array([1, -1, 0], np.int8), np.array([1, -1, 0], np.int64),
                np.array([1, 0, 1], np.uint8)):
        assert BoundedSeq.from_samples(arr).samples is arr
    for arr in (np.array([1, -1, 2], np.int8), np.array([-2, 0], np.int64),
                np.array([1.0, -1.0]), np.array([True, False]), np.array([1 + 0j])):
        assert BoundedSeq.from_samples(arr).samples is None


@pytest.mark.parametrize("values, bound", [
    (np.array([-128, 5], np.int8), 128.0),
    (np.full(4, -128, np.int8), 128.0),
    (np.array([3, -7, 2], np.int64), 7.0),
    (np.array([200, 1], np.uint8), 200.0),
    (np.array([0.5, -1.5]), 1.5),
    (np.array([], np.int8), 0.0),
])
def test_default_sup_bound_is_the_largest_magnitude(values, bound):
    # int8 abs(-128) wraps to -128, so the bound is taken from min and max
    assert BoundedSeq.from_samples(values).sup_bound == bound


def test_cross_correlation_of_distinct_rotations_is_geometric():
    alpha, beta = 1.9, 0.4
    g = BoundedSeq.exponential(alpha)
    h = BoundedSeq.exponential(beta)
    N = 1000
    direct = sum(np.exp(1j * n * (alpha - beta)) for n in range(1, N + 1)) / N
    assert abs(cross_correlation(g, h, N) - direct) < 1e-12


def test_cross_correlation_self_is_one():
    g = BoundedSeq.exponential(2.2)
    assert abs(cross_correlation(g, g, 777) - 1.0) < 1e-12


def test_trigpoly_validation():
    with pytest.raises(ValueError):
        TrigPoly(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TrigPoly(np.array([0.5]), np.array([1.0, 2.0]))


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(min_value=0.0, max_value=TAU, exclude_max=True))
def test_exponential_sup_is_one(theta):
    g = BoundedSeq.exponential(theta)
    idx = np.arange(1, 65, dtype=np.int64)
    assert np.all(np.abs(np.abs(g.eval(idx)) - 1.0) < 1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=12, max_size=120))
def test_correlations_of_signs_are_bounded_by_density(vals):
    arr = np.array(vals, dtype=np.int8)
    g = BoundedSeq.from_samples(arr, sup_bound=1.0)
    N = len(arr) - 5
    table = correlation_table(g, N, 5)
    zero = table.value(0).real
    for k in range(6):
        assert abs(table.value(k)) <= zero + 1e-12
