"""Finite measures on the circle: a bin density plus a list of atoms.

The circle is [0, 2*pi) split into M equal bins; bin j carries mass
density[j] * 2*pi / M and is represented by its midpoint.  Atoms live at
exact float positions and never mix with the density: two atoms interact
only when their positions are equal as floats.  This split keeps mutually
singular parts honestly singular under discretisation.

The affinity of two measures is the integral of sqrt of the product of
their Radon-Nikodym derivatives against a dominating mixture.  It is 1
exactly for equal probability measures and 0 exactly for mutually singular
ones, and does not depend on the mixture weight; the weight is still a
parameter so that independence can be checked rather than assumed.

Memory: affinity holds three bins-sized float arrays (both sides' masses
and the mixture) plus a bool mask, rajchman_profile two (the masses and
their rfft) and smoothed three, all written in place.  Fourier
coefficients come from one rfft of the bin masses, so they may differ
from a full fft in the last bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import GridMismatchError, GridTooCoarseError, ZeroMassError

DEFAULT_BINS = 4096

TAU = 2.0 * math.pi


@dataclass
class TorusMeasure:
    """Non-negative measure on [0, 2*pi): bin density plus atoms."""

    bins: int
    density: np.ndarray = field(repr=False)
    atoms: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")
        self.density = np.asarray(self.density, dtype=np.float64)
        if self.density.shape != (self.bins,):
            raise ValueError("density must have shape (bins,)")
        d = self.density
        if not 0.0 <= d.min() <= d.max() < math.inf:
            raise ValueError("density must be finite and non-negative")
        self.atoms = sorted((float(p), float(m)) for p, m in self.atoms)
        positions = [p for p, _ in self.atoms]
        if len(set(positions)) != len(positions):
            raise ValueError("atom positions must be pairwise distinct")
        for p, m in self.atoms:
            if not 0.0 <= p < TAU:
                raise ValueError(f"atom position {p} outside [0, 2*pi)")
            if not 0.0 < m < math.inf:
                raise ValueError(f"atom mass must be positive and finite, got {m}")

    @classmethod
    def uniform(cls, bins: int = DEFAULT_BINS) -> "TorusMeasure":
        return cls(bins, np.full(bins, 1.0 / TAU), [])

    @classmethod
    def from_density(cls, density: np.ndarray) -> "TorusMeasure":
        return cls(len(density), density, [])

    @classmethod
    def from_atoms(cls, atoms: list[tuple[float, float]],
                   bins: int = DEFAULT_BINS) -> "TorusMeasure":
        return cls(bins, np.zeros(bins), list(atoms))

    @property
    def bin_width(self) -> float:
        return TAU / self.bins

    @property
    def midpoints(self) -> np.ndarray:
        return (np.arange(self.bins) + 0.5) * self.bin_width

    def bin_masses(self) -> np.ndarray:
        return self.density * self.bin_width

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.bin_masses()) + sum(m for _, m in self.atoms))

    def normalized(self) -> "TorusMeasure":
        """Scale to a probability measure; zero mass is an error."""
        t = self.total_mass
        if t <= 0.0:
            raise ZeroMassError("cannot normalise a measure with zero total mass")
        return TorusMeasure(self.bins, self.density / t,
                            [(p, m / t) for p, m in self.atoms])


def _check_grids(eta: TorusMeasure, nu: TorusMeasure) -> None:
    # grids only interact through their densities; atom-only parts are free
    if eta.bins != nu.bins and np.any(eta.density) and np.any(nu.density):
        raise GridMismatchError(f"bin grids differ: {eta.bins} vs {nu.bins}")


def _unit_masses(eta: TorusMeasure) -> tuple[np.ndarray, dict]:
    """The bin masses and atoms of eta.normalized(), the masses written over
    its density array, so (density / total) * bin_width bit for bit."""
    p = eta.normalized()
    p.density *= p.bin_width
    return p.density, dict(p.atoms)


def affinity(eta: TorusMeasure, nu: TorusMeasure, mix: float = 0.5) -> float:
    """Hellinger affinity of the two measures, normalised to probabilities.

    mix is the weight of the first measure in the dominating mixture
    lam = mix * eta + (1 - mix) * nu; the result is mix-independent up to
    rounding, which the test suite checks at 1e-10.
    """
    if not 0.0 < mix < 1.0:
        raise ValueError(f"mix must lie strictly between 0 and 1, got {mix}")
    _check_grids(eta, nu)
    pm, pa = _unit_masses(eta)
    qm, qa = _unit_masses(nu)

    total = 0.0
    if eta.bins == nu.bins:  # else one density is zero and adds nothing
        lam = np.multiply(qm, 1.0 - mix)
        pm *= mix
        lam += pm
        del pm  # the scaled masses go before the exact ones come back
        pm = _unit_masses(eta)[0]
        # off live, lam = 0 forces pm = qm = 0 (or a subnormal): the product is 0
        live = lam > 0.0
        np.divide(pm, lam, out=pm, where=live)
        np.divide(qm, lam, out=qm, where=live)
        pm *= qm
        np.sqrt(pm, out=pm)
        pm *= lam
        total += float(np.sum(pm))

    for pos in sorted(set(pa) | set(qa)):
        a, b = pa.get(pos, 0.0), qa.get(pos, 0.0)
        lm = mix * a + (1.0 - mix) * b
        if lm > 0.0:
            total += math.sqrt((a / lm) * (b / lm)) * lm
    return total


def hellinger(eta: TorusMeasure, nu: TorusMeasure) -> float:
    """Hellinger distance sqrt(2 * (1 - affinity))."""
    return math.sqrt(max(0.0, 2.0 * (1.0 - affinity(eta, nu))))


def fourier_coeff(eta: TorusMeasure, k: int) -> complex:
    """k-th Fourier coefficient, density part taken at bin midpoints.

    Only |k| <= bins / 2 is resolved by the grid; beyond that the midpoint
    rule aliases, so GridTooCoarseError is raised instead.
    """
    if abs(k) > eta.bins // 2:
        raise GridTooCoarseError(f"|k|={abs(k)} beyond grid resolution {eta.bins // 2}")
    coeff = complex(np.sum(eta.bin_masses() * np.exp(-1j * k * eta.midpoints)))
    for pos, mass in eta.atoms:
        coeff += mass * complex(math.cos(k * pos), -math.sin(k * pos))
    return coeff


def _fourier_coeffs(masses: np.ndarray, atoms, K: int) -> np.ndarray:
    """fourier_coeff(eta, k) for k = 0..K, K <= bins // 2, from one rfft,
    given eta's bin masses and its (position, mass) atoms.

    The rfft sums the bin masses against exp(-2 pi i j k / bins); the
    midpoint of bin j sits half a bin further on, which turns coefficient k
    by exp(-i pi k / bins).  Atoms are added exactly, one per atom.
    """
    k = np.arange(K + 1)
    coeffs = np.fft.rfft(masses)[: K + 1] * np.exp(-1j * np.pi * k / len(masses))
    for pos, mass in atoms:
        phase = k * pos
        coeffs += mass * (np.cos(phase) - 1j * np.sin(phase))
    return coeffs


def wiener_continuity_stat(eta: TorusMeasure, K: int) -> float:
    """Average of |fourier_coeff(k)|^2 over k = 0..K, all K + 1 coefficients
    taken from one FFT of the bin masses (see _fourier_coeffs).

    Converges to the summed squared atom masses as K grows, so a vanishing
    value is evidence of a continuous measure.
    """
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    if K > eta.bins // 2:
        raise GridTooCoarseError(f"K={K} beyond grid resolution {eta.bins // 2}")
    return float(np.mean(np.abs(_fourier_coeffs(eta.bin_masses(), eta.atoms, K)) ** 2))


@dataclass
class RajchmanProfile:
    """Coefficient decay profile |sigma_hat(k)| for k = 0..K of a probability
    measure, with a suffix running max and a Dirichlet-type flag."""

    values: np.ndarray
    tail_max: float
    running_max: np.ndarray
    dirichlet_flag: bool


def rajchman_profile(eta: TorusMeasure, K: int) -> RajchmanProfile:
    """Decay profile of the normalised measure up to frequency K.

    tail_max is the largest |sigma_hat(k)| with k in [K/2, K]; the flag
    fires when that max exceeds 1 - 1e-3, the signature of coefficients
    returning to full height the way pure Dirichlet spectra do.  The
    K + 1 coefficients come from one FFT of the bin masses (see
    _fourier_coeffs), not one O(bins) sum each.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K > eta.bins // 2:
        raise GridTooCoarseError(f"K={K} beyond grid resolution {eta.bins // 2}")
    masses, atoms = _unit_masses(eta)
    vals = np.abs(_fourier_coeffs(masses, atoms.items(), K))
    tail_max = float(np.max(vals[K // 2 :]))
    running = np.maximum.accumulate(vals[::-1])[::-1]
    return RajchmanProfile(vals, tail_max, running, bool(tail_max > 1.0 - 1e-3))


def smoothed(eta: TorusMeasure, scale: float) -> TorusMeasure:
    """Mollify at the given angular scale; the result is pure density.

    Atoms and density are both spread with the same triangular kernel of
    half-width `scale` (radians), discretised on the measure's own grid and
    normalised to unit mass, so total mass is preserved exactly up to
    rounding.  Structures further apart than 2 * scale stay disjoint.  The
    masses, padded circularly by the kernel's half-width, go through one
    direct np.convolve; a direct sum of non-negative terms keeps the
    density non-negative, which an FFT convolution would not.
    """
    if not 0.0 < scale < math.pi:
        raise ValueError(f"scale must lie in (0, pi), got {scale}")
    bins = eta.bins
    width = eta.bin_width
    half = max(1, int(math.ceil(scale / width)))
    offsets = np.arange(-half, half + 1)
    kernel = np.maximum(0.0, 1.0 - np.abs(offsets) * width / scale)
    kernel /= kernel.sum()

    masses = eta.bin_masses()
    for pos, mass in eta.atoms:
        masses[int(pos / width) % bins] += mass
    out = np.convolve(np.pad(masses, half, mode="wrap"), kernel, mode="valid")
    out /= width
    return TorusMeasure(bins, out, [])


def write_json(eta: TorusMeasure, path: str | Path) -> None:
    obj = {
        "bins": eta.bins,
        "density": [float(x) for x in eta.density],
        "atoms": [{"pos": p, "mass": m} for p, m in eta.atoms],
    }
    Path(path).write_text(json.dumps(obj, sort_keys=True))


def read_json(path: str | Path) -> TorusMeasure:
    """The measure write_json stored at path; ValueError, naming the file,
    when the file holds no valid measure: bins must be a JSON integer and
    every density value, atom position and mass a finite JSON number."""
    try:
        obj = json.loads(Path(path).read_text())
        bins, density = obj["bins"], obj["density"]
        atoms = [(a["pos"], a["mass"]) for a in obj.get("atoms", [])]
        if type(bins) is not int or not all(
                type(x) in (int, float) for x in [*density, *chain(*atoms)]):
            raise TypeError("bins must be an integer, the density and atoms numbers")
        return TorusMeasure(bins, np.array(density, dtype=np.float64), atoms)
    except KeyError as exc:
        raise ValueError(f"measure file {str(path)!r} has no key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"measure file {str(path)!r} is malformed: {exc}") from exc
