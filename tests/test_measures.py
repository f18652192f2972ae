"""Circle measures: affinity axioms, Fourier coefficients, smoothing, JSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.errors import GridMismatchError, GridTooCoarseError, ZeroMassError
from mflab.measures import (
    TorusMeasure,
    _fourier_coeffs,
    affinity,
    fourier_coeff,
    hellinger,
    rajchman_profile,
    read_json,
    smoothed,
    wiener_continuity_stat,
    write_json,
)

TAU = 2.0 * math.pi


def test_uniform_total_mass():
    eta = TorusMeasure.uniform(512)
    assert abs(eta.total_mass - 1.0) < 1e-12
    assert eta.bins == 512


def test_atom_validation():
    with pytest.raises(ValueError):
        TorusMeasure.from_atoms([(TAU, 1.0)])  # position must be < 2*pi
    with pytest.raises(ValueError):
        TorusMeasure.from_atoms([(1.0, 0.0)])  # mass must be positive
    with pytest.raises(ValueError):
        TorusMeasure.from_atoms([(1.0, 0.5), (1.0, 0.5)])  # duplicate position


def test_atoms_are_sorted():
    eta = TorusMeasure.from_atoms([(3.0, 0.25), (1.0, 0.75)])
    assert [pos for pos, _ in eta.atoms] == [1.0, 3.0]
    assert abs(eta.total_mass - 1.0) < 1e-15


def test_normalized_rejects_zero_measure():
    eta = TorusMeasure(16, np.zeros(16))
    with pytest.raises(ZeroMassError):
        eta.normalized()


def test_normalized_scales_to_unit_mass():
    eta = TorusMeasure.from_density(np.full(64, 3.2))
    unit = eta.normalized()
    assert abs(unit.total_mass - 1.0) < 1e-12


def test_affinity_identity_and_disjoint():
    u = TorusMeasure.uniform(256)
    atom = TorusMeasure.from_atoms([(1.5, 1.0)], bins=256)
    assert affinity(u, u) == pytest.approx(1.0, abs=1e-12)
    assert affinity(u, atom) == 0.0
    assert affinity(atom, atom) == pytest.approx(1.0, abs=1e-12)


def test_affinity_of_split_atom_pair():
    # one shared atom of half the mass: G = sqrt(1 * 1/2) = 1/sqrt(2)
    p = TorusMeasure.from_atoms([(0.0, 1.0)])
    q = TorusMeasure.from_atoms([(0.0, 0.5), (math.pi, 0.5)])
    assert affinity(p, q) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_affinity_symmetric_and_mix_independent():
    rng = np.random.default_rng(7)
    eta = TorusMeasure.from_density(rng.random(128) + 0.01)
    nu = TorusMeasure.from_density(rng.random(128) + 0.01)
    g = affinity(eta, nu)
    assert affinity(nu, eta) == pytest.approx(g, abs=1e-12)
    for mix in (0.25, 0.5, 0.9):
        assert affinity(eta, nu, mix=mix) == pytest.approx(g, abs=1e-10)


def test_hellinger_relation():
    u = TorusMeasure.uniform(128)
    atom = TorusMeasure.from_atoms([(2.0, 1.0)], bins=128)
    assert hellinger(u, atom) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    rng = np.random.default_rng(3)
    eta = TorusMeasure.from_density(rng.random(128) + 0.1)
    nu = TorusMeasure.from_density(rng.random(128) + 0.1)
    g = affinity(eta, nu)
    assert hellinger(eta, nu) == pytest.approx(math.sqrt(2.0 * (1.0 - g)), abs=1e-12)


def test_grid_mismatch_only_when_both_densities_live():
    a = TorusMeasure.from_density(np.ones(64))
    b = TorusMeasure.from_density(np.ones(128))
    with pytest.raises(GridMismatchError):
        affinity(a, b)
    atom = TorusMeasure.from_atoms([(1.0, 1.0)], bins=128)
    assert affinity(a, atom) == 0.0  # atom mass never meets density mass


def test_fourier_coeff_uniform_and_atom():
    u = TorusMeasure.uniform(1024)
    assert fourier_coeff(u, 0) == pytest.approx(1.0, abs=1e-12)
    for k in (1, 5, 17):
        assert abs(fourier_coeff(u, k)) < 1e-12
    x0 = 2.13
    atom = TorusMeasure.from_atoms([(x0, 1.0)])
    for k in (-3, 1, 9):
        assert fourier_coeff(atom, k) == pytest.approx(np.exp(-1j * k * x0), abs=1e-15)


def test_fourier_coeff_of_cosine_density():
    bins = 4096
    x = (np.arange(bins) + 0.5) * TAU / bins
    eta = TorusMeasure.from_density((1.0 + np.cos(x)) / TAU)
    assert fourier_coeff(eta, 0) == pytest.approx(1.0, abs=1e-9)
    assert fourier_coeff(eta, 1) == pytest.approx(0.5, abs=1e-6)
    assert fourier_coeff(eta, -1) == pytest.approx(0.5, abs=1e-6)
    assert abs(fourier_coeff(eta, 2)) < 1e-6


def test_fourier_coeff_resolution_guard():
    eta = TorusMeasure.uniform(64)
    with pytest.raises(GridTooCoarseError):
        fourier_coeff(eta, 33)


def test_wiener_stat_atom_vs_uniform():
    atom = TorusMeasure.from_atoms([(0.8, 1.0)])
    assert wiener_continuity_stat(atom, 40) == pytest.approx(1.0, abs=1e-12)
    u = TorusMeasure.uniform(512)
    assert wiener_continuity_stat(u, 40) == pytest.approx(1.0 / 41.0, abs=1e-9)


def test_rajchman_profile_flags():
    atom = TorusMeasure.from_atoms([(0.0, 2.0)])  # unnormalized on purpose
    prof = rajchman_profile(atom, 64)
    assert prof.dirichlet_flag is True
    assert np.allclose(prof.values, 1.0, atol=1e-12)
    u = TorusMeasure.uniform(512)
    prof_u = rajchman_profile(u, 64)
    assert prof_u.dirichlet_flag is False
    assert prof_u.tail_max < 1e-10


def test_rajchman_running_max_is_suffix_max():
    rng = np.random.default_rng(11)
    eta = TorusMeasure.from_density(rng.random(256) + 0.05)
    prof = rajchman_profile(eta, 32)
    assert len(prof.running_max) == len(prof.values)
    assert np.all(np.diff(prof.running_max) <= 1e-15)
    assert prof.running_max[0] == pytest.approx(np.max(prof.values), abs=1e-15)


def test_smoothed_preserves_mass_and_removes_atoms():
    eta = TorusMeasure.from_atoms([(1.0, 0.4), (4.0, 0.6)], bins=512)
    sm = smoothed(eta, 0.1)
    assert not sm.atoms
    assert sm.total_mass == pytest.approx(eta.total_mass, abs=1e-12)
    assert np.all(sm.density >= 0.0)


def test_smoothing_uniform_is_identity():
    u = TorusMeasure.uniform(256)
    sm = smoothed(u, 0.25)
    assert np.allclose(sm.density, u.density, atol=1e-12)


def test_smoothed_scale_validation():
    u = TorusMeasure.uniform(64)
    with pytest.raises(ValueError):
        smoothed(u, 0.0)


def _mixed_measure(seed: int, bins: int, scale: float) -> TorusMeasure:
    """Unnormalised: a density with some empty bins plus three atoms."""
    rng = np.random.default_rng(seed)
    density = scale * rng.random(bins)
    density[rng.random(bins) < 0.25] = 0.0
    atoms = [(float(p), float(scale * m + 0.01))
             for p, m in zip(rng.random(3) * TAU, rng.random(3))]
    return TorusMeasure(bins, density, atoms)


@pytest.mark.parametrize("bins", [2, 3, 16, 17, 128, 255])
def test_fourier_profiles_match_per_coefficient_oracle(bins):
    eta = _mixed_measure(bins, bins, scale=3.0)
    p = eta.normalized()
    for K in sorted({0, 1, bins // 4, bins // 2}):
        per_k = [fourier_coeff(eta, k) for k in range(K + 1)]
        got = _fourier_coeffs(eta.bin_masses(), eta.atoms, K)
        assert np.max(np.abs(got - per_k)) <= 1e-14 * eta.total_mass
        wiener = sum(abs(c) ** 2 for c in per_k) / (K + 1)
        assert abs(wiener_continuity_stat(eta, K) - wiener) <= 1e-14 * eta.total_mass ** 2
        if K >= 1:
            want = np.array([abs(fourier_coeff(p, k)) for k in range(K + 1)])
            assert np.max(np.abs(rajchman_profile(eta, K).values - want)) <= 1e-14
    with pytest.raises(GridTooCoarseError):
        rajchman_profile(eta, bins // 2 + 1)
    with pytest.raises(GridTooCoarseError):
        wiener_continuity_stat(eta, bins // 2 + 1)


def _smoothed_by_rolls(eta: TorusMeasure, scale: float) -> np.ndarray:
    """Density of smoothed(eta, scale), summed one kernel offset at a time."""
    width = eta.bin_width
    half = max(1, math.ceil(scale / width))
    masses = eta.bin_masses().copy()
    for pos, mass in eta.atoms:
        masses[int(pos / width) % eta.bins] += mass
    offsets = np.arange(-half, half + 1)
    kernel = np.maximum(0.0, 1.0 - np.abs(offsets) * width / scale)
    kernel /= kernel.sum()
    out = np.zeros(eta.bins)
    for off, w in zip(offsets, kernel):
        out += w * np.roll(masses, off)
    return out / width


# (7, 3.0) and (8, 3.0) have a kernel half-width of 4 bins, at least bins / 2
@pytest.mark.parametrize("bins, scale", [(7, 3.0), (8, 3.0), (64, 0.05), (64, 1.2),
                                         (255, 0.004), (4096, 0.004)])
def test_smoothed_matches_roll_oracle(bins, scale):
    for eta in (_mixed_measure(bins, bins, scale=2.0),
                TorusMeasure.from_atoms([(0.3, 1.0)], bins=bins)):
        got = smoothed(eta, scale).density
        want = _smoothed_by_rolls(eta, scale)
        assert np.all(got >= 0.0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


def test_json_roundtrip(tmp_path):
    eta = TorusMeasure(
        32, np.linspace(0.0, 1.0, 32), atoms=[(0.5, 0.2), (3.3, 0.7)])
    path = tmp_path / "measure.json"
    write_json(eta, path)
    back = read_json(path)
    assert back.bins == eta.bins
    assert np.allclose(back.density, eta.density, atol=0)
    assert back.atoms == eta.atoms


def test_density_must_be_one_dimensional():
    with pytest.raises(ValueError):
        TorusMeasure(2, np.array([[0.1], [0.2]]))
    with pytest.raises(ValueError):
        TorusMeasure(2, np.array(0.1))


@pytest.mark.parametrize("text", [
    json.dumps({"density": [0.1, 0.2]}),
    json.dumps({"bins": 2}),
    json.dumps({"bins": 2, "density": [0.1, 0.2], "atoms": [{"pos": 1.0}]}),
    json.dumps([0.1, 0.2]),
    json.dumps({"bins": "two", "density": [0.1, 0.2]}),
    json.dumps({"bins": 2, "density": "ab"}),
    json.dumps({"bins": 2, "density": None}),
    json.dumps({"bins": 2, "density": [[0.1], [0.2]]}),
    json.dumps({"bins": 2, "density": [0.1, 0.2], "atoms": [0.5]}),
    "{not json",
    json.dumps({"bins": 2, "density": [math.nan, 0.1]}),
    json.dumps({"bins": 2, "density": [math.inf, 0.1]}),
    json.dumps({"bins": 2, "density": [0.1, 0.2], "atoms": [{"pos": 1.0, "mass": math.inf}]}),
    json.dumps({"bins": 2, "density": [0.1, 0.2], "atoms": [{"pos": math.nan, "mass": 1.0}]}),
    json.dumps({"bins": 2, "density": [0.1, 0.2], "atoms": [{"pos": "1.0", "mass": 1.0}]}),
    json.dumps({"bins": 2, "density": [0.1, 0.2], "atoms": [{"pos": 1.0, "mass": True}]}),
    json.dumps({"bins": 2.9, "density": [0.1, 0.2]}),
    json.dumps({"bins": 2.0, "density": [0.1, 0.2]}),
    json.dumps({"bins": "2", "density": [0.1, 0.2]}),
    json.dumps({"bins": True, "density": [0.1, 0.2]}),
    json.dumps({"bins": 2, "density": ["0.1", "0.2"]}),
    json.dumps({"bins": 2, "density": [0.1, False]}),
    pytest.param(json.dumps({"bins": 2, "density": [10**400, 0.1]}), id="int-past-float64"),
])
def test_read_json_names_the_file_of_a_malformed_measure(text, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad.json"):
        read_json(path)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    with_atoms=st.booleans(),
)
def test_affinity_stays_in_unit_interval(seed, with_atoms):
    rng = np.random.default_rng(seed)
    eta = TorusMeasure.from_density(rng.random(64))
    atoms = [(float(rng.random() * 6.2), float(rng.random() + 0.01))]
    nu = (TorusMeasure.from_atoms(atoms, bins=64) if with_atoms
          else TorusMeasure.from_density(rng.random(64)))
    eta = TorusMeasure(64, eta.density + 1e-9)
    g = affinity(eta.normalized(), nu.normalized())
    assert -1e-12 <= g <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=1.5))
def test_smoothing_never_creates_mass(scale):
    eta = TorusMeasure.from_atoms([(2.0, 1.0)], bins=256)
    sm = smoothed(eta, scale)
    assert sm.total_mass == pytest.approx(1.0, abs=1e-10)
