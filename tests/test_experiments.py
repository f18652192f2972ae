"""Decay experiments: exact small-scale oracles, caching, reports."""

import json
import math

import numpy as np
import pytest

from mflab.cache import write_cache
from mflab.errors import AllSquaredError, InvalidRangeError, NotDisjointError
from mflab.experiments import (
    EXPERIMENTS,
    THETA_STAR,
    Pattern,
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
    two_point_correlation,
    windowed_sum_energy,
)
from mflab.sequences import TrigPoly
from mflab.sieve import SEGMENT, sieve
from mflab.summation import CHUNK

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
    direct, spectral = windowed_sum_energy(k, h, N)
    mu = mu_window
    total = sum(
        sum(int(mu[n + k * l - 1]) for l in range(1, h + 1)) ** 2
        for n in range(1, N + 1))
    assert direct == total / N
    assert abs(direct - spectral) <= (2 * h * k / N) * h * h


def test_windowed_sum_energy_skip_spectral():
    direct_only, none_part = windowed_sum_energy(1, 4, 2000, with_spectral=False)
    direct, _ = windowed_sum_energy(1, 4, 2000)
    assert none_part is None
    assert direct_only == direct


def test_short_interval_average_matches_brute(mu_window):
    H, X = 10, 10**4
    got = short_interval_average(H, X)
    mu = mu_window
    total = 0
    for x in range(X, 2 * X):
        total += abs(sum(int(mu[j - 1]) for j in range(x + 1, x + H + 1)))
    assert got == total / (H * X)


def test_rotation_orthogonality_is_linear():
    alpha = 0.77
    poly = TrigPoly(np.array([1.0, 2.5]), np.array([2.0 + 0j, -1j]))
    N = 10**4
    got = rotation_orthogonality(alpha, poly, N)
    parts = [
        c * mobius_exponential_sum(math.remainder(f * alpha, TAU), N)
        for f, c in zip(poly.freqs, poly.coeffs)
    ]
    assert got == sum(parts)


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
    assert sieve_calls[1] == ("squarefree", SEGMENT + 1, 2 * SEGMENT + 1)
    assert np.array_equal(grown, sieve("squarefree", 1, SEGMENT + 6).values)
    assert len(sign_window("mobius", 2 * SEGMENT)) == 2 * SEGMENT
    assert len(sieve_calls) == 2
    # views handed out before the growth still hold the old values
    assert np.array_equal(first, sieve("mobius", 1, 101).values)


def test_sign_window_rejects_bad_requests(fresh_windows):
    with pytest.raises(ValueError):
        sign_window("mertens", 10)
    with pytest.raises(InvalidRangeError):
        sign_window("mobius", 0)


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
        lambda N: windowed_sum_energy(3, 10, N, with_spectral=False)[0] / 10**2),
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
