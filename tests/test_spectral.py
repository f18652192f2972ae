"""Periodograms, the exact coefficient decomposition, and kernel energies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.errors import GridTooCoarseError, InvalidRangeError, LagTooLargeError
from mflab.measures import TorusMeasure, fourier_coeff
from mflab.sequences import BoundedSeq, correlation_table
from mflab.sieve import sieve
from mflab.spectral import (
    coefficient_consistency,
    dirichlet_energy,
    periodogram,
    spectral_limit_diagnostic,
)

TAU = 2.0 * math.pi


def _random_bounded(rng, n, sup=1.0):
    w = ((rng.random(n) - 0.5) + 1j * (rng.random(n) - 0.5)) * sup
    w = w.astype(np.complex128)
    return BoundedSeq.from_samples(w, sup_bound=sup), w


def test_periodogram_parseval_exact():
    rng = np.random.default_rng(0)
    n = 700
    g, w = _random_bounded(rng, n)
    gram = periodogram(g, n)
    mean_square = float(np.mean(np.abs(w) ** 2))
    assert gram.measure.total_mass == pytest.approx(mean_square, rel=1e-12)


def test_periodogram_density_is_nonnegative():
    rng = np.random.default_rng(5)
    g, _ = _random_bounded(rng, 256)
    gram = periodogram(g, 256)
    assert np.all(gram.measure.density >= 0.0)
    assert not gram.measure.atoms


def test_periodogram_rotation_peak_height():
    # the spectral measure of the rotation by alpha is the point mass at
    # 2*pi - alpha under the e^{-ikx} coefficient convention; aligned with a
    # grid midpoint it concentrates all power in one bin, with raw density
    # rho = density * 2*pi exactly n there
    n, bins = 512, 2048
    j = 100
    alpha = (j + 0.5) * TAU / bins
    g = BoundedSeq.exponential(alpha)
    gram = periodogram(g, n, bins=bins)
    rho = gram.measure.density * TAU
    peak = bins - 1 - j
    assert rho[peak] == pytest.approx(n, rel=1e-9)
    assert int(np.argmax(rho)) == peak


def test_periodogram_validation():
    g = BoundedSeq.exponential(0.3)
    with pytest.raises(InvalidRangeError):
        periodogram(g, 1)
    with pytest.raises(GridTooCoarseError):
        periodogram(g, 1000, bins=1024)


def test_coefficient_decomposition_is_exact():
    rng = np.random.default_rng(42)
    n, k = 1000, 17
    g, _ = _random_bounded(rng, n + k)
    check = coefficient_consistency(g, n, k)
    table = correlation_table(g, n, k)
    # same quantity through two summation paths; only bit-level order differs
    assert check.full == pytest.approx(table.value(k), rel=1e-12, abs=1e-15)
    assert check.spectral + check.edge == pytest.approx(check.full, abs=1e-15)
    assert abs(check.edge) <= check.bound
    assert check.bound == (k / n) * g.sup_bound**2


def test_coefficient_bound_saturates_for_constant_one():
    ones = BoundedSeq(lambda idx: np.ones(len(idx), dtype=np.complex128), 1.0)
    check = coefficient_consistency(ones, 1000, 7)
    assert abs(check.edge) == check.bound


def test_periodogram_coefficients_match_windowed_correlation():
    # the grid is fine enough that quadrature against the periodogram
    # recovers the truncated window correlation almost exactly
    rng = np.random.default_rng(9)
    n = 300
    g, _ = _random_bounded(rng, n + 20)
    gram = periodogram(g, n)
    for k in (0, 1, 5, 20):
        spectral = fourier_coeff(gram.measure, k)
        direct = coefficient_consistency(g, n, k).spectral
        assert spectral == pytest.approx(direct, abs=1e-10)


def test_dirichlet_energy_uniform_and_atom():
    u = TorusMeasure.uniform(4096)
    for h, k in ((1, 1), (4, 2), (10, 3)):
        assert dirichlet_energy(u, h, k) == pytest.approx(h, rel=1e-12)
    atom = TorusMeasure.from_atoms([(0.0, 1.0)])
    assert dirichlet_energy(atom, 6, 2) == pytest.approx(36.0, abs=1e-12)


def test_dirichlet_energy_closed_form_at_atom():
    theta = 0.9
    atom = TorusMeasure.from_atoms([(theta, 1.0)])
    h, k = 5, 3
    half = 0.5 * k * theta
    expected = (math.sin(h * half) / math.sin(half)) ** 2
    assert dirichlet_energy(atom, h, k) == pytest.approx(expected, rel=1e-12)


def test_dirichlet_energy_grid_guard():
    u = TorusMeasure.uniform(64)
    with pytest.raises(GridTooCoarseError):
        dirichlet_energy(u, 4, 4)
    with pytest.raises(ValueError):
        dirichlet_energy(u, 0, 1)


def test_spectral_limit_diagnostic_on_rotation():
    g = BoundedSeq.exponential(1.7)
    diag = spectral_limit_diagnostic(g, [200, 400, 800], 5, tolerance=0.05)
    assert diag.single_limit_plausible is True
    assert diag.rows.shape == (3, 6)
    assert float(np.max(diag.deviations)) < 0.05
    assert np.allclose(np.diag(diag.deviations), 0.0)


def test_spectral_limit_diagnostic_flags_two_regimes():
    # a sequence that switches frequency between window lengths has no
    # single limit: lag-1 correlations at different N disagree by order one
    # (constant up to 300, alternating signs after, so late products are -1)
    def two_regime(idx):
        out = np.ones(len(idx), dtype=np.complex128)
        out[idx > 300] = (-1.0) ** idx[idx > 300]
        return out

    g = BoundedSeq(two_regime, 1.0)
    # the flag only compares the later rows, so give it three window lengths
    diag = spectral_limit_diagnostic(g, [300, 1200, 4800], 2, tolerance=0.01)
    assert diag.single_limit_plausible is False
    assert float(np.max(diag.deviations)) > 0.1


def test_spectral_limit_diagnostic_validation():
    g = BoundedSeq.exponential(0.2)
    with pytest.raises(LagTooLargeError):
        spectral_limit_diagnostic(g, [100, 200], 100)
    with pytest.raises(InvalidRangeError):
        spectral_limit_diagnostic(g, [], 5)


@pytest.mark.parametrize("n_grid", [[1000.9, 2000], [1000, True], [0, 2000]])
def test_spectral_limit_diagnostic_takes_the_experiment_grid_rule(n_grid):
    # the same rule as experiments.check_grid: no float is truncated to an N
    with pytest.raises(ValueError, match="param 'grid'"):
        spectral_limit_diagnostic(BoundedSeq.exponential(0.2), n_grid, 3)


def test_diagnostic_csv(tmp_path):
    g = BoundedSeq.exponential(0.4)
    diag = spectral_limit_diagnostic(g, [64, 128], 3)
    path = tmp_path / "rows.csv"
    diag.write_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,k,re,im"
    assert len(lines) == 1 + 2 * 4


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(min_value=2, max_value=400))
def test_parseval_property(seed, n):
    rng = np.random.default_rng(seed)
    g, w = _random_bounded(rng, n)
    gram = periodogram(g, n)
    mean_square = float(np.mean(np.abs(w) ** 2))
    assert gram.measure.total_mass == pytest.approx(mean_square, rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=50, max_value=300),
    k=st.integers(min_value=0, max_value=40),
)
def test_edge_bound_property(seed, n, k):
    rng = np.random.default_rng(seed)
    g, _ = _random_bounded(rng, n + k, sup=1.0)
    check = coefficient_consistency(g, n, k)
    assert abs(check.edge) <= check.bound + 1e-15
