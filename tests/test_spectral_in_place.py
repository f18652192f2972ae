"""The in-place spectral layer: the same bits as the allocating formulas it
replaced (kept here as oracles), non-finite measures refused, and a
tracemalloc budget in bins-sized arrays."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from mflab.cli import main
from mflab.experiments import sign_window
from mflab.measures import (
    TorusMeasure,
    _fourier_coeffs,
    affinity,
    hellinger,
    rajchman_profile,
    smoothed,
)
from mflab.sequences import BoundedSeq
from mflab.spectral import periodogram

TAU = 2.0 * math.pi


def _old_density(g, n, bins):
    w = g.eval(np.arange(1, n + 1, dtype=np.int64)).astype(np.complex128)
    padded = np.zeros(bins, dtype=np.complex128)
    padded[:n] = w * np.exp(1j * np.pi * np.arange(n) / bins)
    transform = np.fft.ifft(padded) * bins
    return np.abs(transform) ** 2 / (n * TAU)


def _old_affinity(eta, nu, mix=0.5):
    p = eta.normalized()
    q = nu.normalized()
    total = 0.0
    pm = p.bin_masses()
    qm = q.bin_masses() if p.bins == q.bins else np.zeros_like(pm)
    lam = mix * pm + (1.0 - mix) * qm
    live = lam > 0.0
    ratio = np.zeros_like(lam)
    ratio[live] = np.sqrt((pm[live] / lam[live]) * (qm[live] / lam[live]))
    total += float(np.sum(ratio * lam))
    qa = dict(q.atoms)
    pa = dict(p.atoms)
    for pos in sorted(set(pa) | set(qa)):
        a, b = pa.get(pos, 0.0), qa.get(pos, 0.0)
        lm = mix * a + (1.0 - mix) * b
        if lm > 0.0:
            total += math.sqrt((a / lm) * (b / lm)) * lm
    return total


def _old_smoothed(eta, scale):
    bins = eta.bins
    width = eta.bin_width
    half = max(1, int(math.ceil(scale / width)))
    offsets = np.arange(-half, half + 1)
    kernel = np.maximum(0.0, 1.0 - np.abs(offsets) * width / scale)
    kernel /= kernel.sum()
    masses = eta.bin_masses().copy()
    for pos, mass in eta.atoms:
        masses[int(pos / width) % bins] += mass
    out = np.convolve(np.pad(masses, half, mode="wrap"), kernel, mode="valid")
    return out / width


@pytest.fixture(scope="module")
def sequences():
    top = 2**16 + 8
    mu, lam = sign_window("mobius", top), sign_window("liouville", top)
    return [BoundedSeq.from_samples(mu, label="mobius", sup_bound=1.0),
            BoundedSeq.from_samples(lam, label="liouville", sup_bound=1.0),
            BoundedSeq.exponential(0.77)]


# From n = 2**14 the old twist product's phase temporary reaches 256 KiB, and
# a numpy that elides temporaries ran it as phase * w in place.  A complex
# product's last bit depends on operand order, so there a complex window is
# held to the old formula within 1e-15 of the peak; real windows stay exact.
@pytest.mark.parametrize("n", [3, 1000, 2**14 - 1, 2**14, 2**16])
@pytest.mark.parametrize("explicit_bins", [False, True])
def test_spectral_layer_is_bit_identical_to_the_allocating_formulas(sequences, n, explicit_bins):
    bins = 2 * n + 6 if explicit_bins else None
    grams = []
    for g in sequences:
        gram = periodogram(g, n, bins).measure
        old = _old_density(g, n, gram.bins)
        if g.samples is None and n >= 2**14:
            assert np.max(np.abs(gram.density - old)) <= 1e-15 * np.max(old)
        else:
            assert np.array_equal(gram.density, old)
        grams.append(gram)
    for a in grams:
        for b in grams:
            for mix in (0.5, 0.3):
                assert affinity(a, b, mix) == _old_affinity(a, b, mix)
            assert hellinger(a, b) == math.sqrt(max(0.0, 2.0 * (1.0 - _old_affinity(a, b))))
        with_atoms = TorusMeasure(a.bins, a.density, [(1.0, 0.3), (2.5, 1e-3)])
        assert affinity(with_atoms, a, 0.4) == _old_affinity(with_atoms, a, 0.4)
        for eta in (a, with_atoms):
            assert np.array_equal(smoothed(eta, 0.02).density, _old_smoothed(eta, 0.02))


@pytest.mark.parametrize("bins", [16, 17, 1000, 1001])
def test_fourier_coeffs_from_rfft_match_a_full_fft(bins):
    rng = np.random.default_rng(bins)
    eta = TorusMeasure(bins, rng.random(bins), [(0.4, 0.2)])
    masses = eta.bin_masses()
    for K in (0, 1, bins // 3, bins // 2):
        k = np.arange(K + 1)
        want = np.fft.fft(masses)[: K + 1] * np.exp(-1j * np.pi * k / bins)
        want += 0.2 * (np.cos(0.4 * k) - 1j * np.sin(0.4 * k))
        got = _fourier_coeffs(masses, eta.atoms, K)
        assert np.max(np.abs(got - want)) <= 1e-14 * eta.total_mass


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_measures_are_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        TorusMeasure(4, [bad, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        TorusMeasure(4, np.ones(4), [(1.0, bad)])


def test_spectral_layer_holds_few_bins_sized_arrays(sequences):
    n, bins = 2**16, 2**17
    floats = bins * 8  # bytes of one float bins-sized array; a complex one is two
    gram = periodogram(sequences[0], n).measure
    other = periodogram(sequences[1], n).measure
    budgets = {
        # the padded complex buffer, then beside it the window and the twist's
        # indices (0.5 each) or the density (1); the allocating version held 6.1
        "periodogram": (lambda: periodogram(sequences[0], n), 2 + 1),
        # both sides' masses, the mixture and a bool mask; it held 9.1
        "affinity": (lambda: affinity(gram, other), 3),
        # the masses and the rfft; it held 6.0
        "rajchman_profile": (lambda: rajchman_profile(gram, 32), 2),
        # the masses, their padded copy and the result; it held 3.1
        "smoothed": (lambda: smoothed(gram, 0.01), 3),
    }
    peaks = {}
    for name, (run, arrays) in budgets.items():
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1] / floats
        finally:
            tracemalloc.stop()
        assert peaks[name] <= arrays + 0.25, (name, peaks)


# sha256 of the measure JSON the allocating periodogram wrote for these commands
@pytest.mark.parametrize("label, digest", [
    ("mobius", "46e3afab07f9f3a41b13316be9b11054f782ff0611320ee43d4d21345145f40b"),
    ("liouville", "a443f9572f676f8d762e4a01dc996ff648ec91149147d85f952f95441715a727"),
])
def test_spectrum_command_writes_the_same_bytes(label, digest, tmp_path, capsys):
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--label", label, "--n", "2048", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
