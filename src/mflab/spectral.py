"""Periodograms and finite-scale spectral diagnostics.

The size-n periodogram of a bounded sequence g is the density

    rho(x) = | n^(-1/2) * sum_{t=0..n-1} g(t+1) * exp(i t x) |^2

against dx / (2*pi).  It is stored as a TorusMeasure, whose density field
is therefore rho / (2*pi); this makes the measure's total mass equal the
mean square (1/n) * sum |g|^2 (Parseval), which is the invariant the tests
pin down.  The raw modulus-squared values are density * 2*pi.

Fourier coefficients of the periodogram are never read off the bin grid.
They are computed analytically as truncated lag correlations

    sigma_hat_{g,n}(k) = (1/n) * sum_{j=0..n-1-k} g(j+k+1) * conj(g(j+1)),

which differ from the full window correlation F_n(k) by k edge terms only,
so |F_n(k) - sigma_hat(k)| <= (k/n) * sup^2 holds exactly.

Memory: periodogram holds one bins-sized complex array (the zero-padded
window, twisted, transformed and scaled in place) and one float array
(the density); the n window values are dropped once multiplied in.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarseError, InvalidRangeError, LagTooLargeError
from .experiments import check_grid
from .measures import TAU, TorusMeasure
from .sequences import BoundedSeq, correlation_sums

DIRICHLET_GRID_FACTOR = 8


def _next_pow2(m: int) -> int:
    return 1 << (m - 1).bit_length()


@dataclass
class Periodogram:
    """A periodogram: window length, the measure, and the source label."""

    n: int
    measure: TorusMeasure
    label: str = "custom"


def periodogram(g: BoundedSeq, n: int, bins: int | None = None) -> Periodogram:
    """Size-n periodogram of g on a grid of at least 2n bins.

    bins defaults to the next power of two at or above max(4096, 2n).  An
    explicit bins below 2n raises GridTooCoarseError.  The transform is an
    FFT of the zero-padded window with a half-bin phase twist, so densities
    sit exactly at bin midpoints.
    """
    if n < 2:
        raise InvalidRangeError(f"window length must be >= 2, got {n}")
    if bins is None:
        bins = _next_pow2(max(4096, 2 * n))
    if bins < 2 * n:
        raise GridTooCoarseError(f"bins={bins} below the 2n={2 * n} floor")
    w = g.eval(np.arange(1, n + 1, dtype=np.int64))
    padded = np.zeros(bins, dtype=np.complex128)
    head = padded[:n]
    np.multiply(1j * np.pi, np.arange(n), out=head)
    np.divide(head, bins, out=head)
    np.exp(head, out=head)
    np.multiply(w, head, out=head)
    del w
    np.fft.ifft(padded, out=padded)
    padded *= bins
    density = np.abs(padded)
    density **= 2
    density /= n * TAU
    return Periodogram(n, TorusMeasure(bins, density, []), label=g.label)


@dataclass
class CoeffCheck:
    """Analytic coefficient against full correlation at one lag.

    Attributes:
        spectral: sigma_hat_{g,n}(k), the truncated correlation.
        full: F_n(k), the full window correlation (spectral + edge).
        edge: the k-term edge average, F_n(k) - sigma_hat exactly.
        bound: (k/n) * sup_bound^2, which |edge| can never exceed.
    """

    spectral: complex
    full: complex
    edge: complex
    bound: float


def coefficient_consistency(g: BoundedSeq, n: int, k: int) -> CoeffCheck:
    """Split F_n(k) into the analytic coefficient plus its edge term.

    The split is exact: full = spectral + edge by construction, and the
    returned bound dominates |edge| with no tolerance.  A lag k >= n raises
    LagTooLargeError.
    """
    if n < 1:
        raise InvalidRangeError(f"n must be >= 1, got {n}")
    if k < 0 or k >= n:
        raise LagTooLargeError(f"need 0 <= k < n, got k={k}, n={n}")
    truncated = correlation_sums(g, [k], 1, n - k + 1)[0] / n
    edge = correlation_sums(g, [k], n - k + 1, n + 1)[0] / n if k else 0.0 + 0.0j
    bound = (k / n) * g.sup_bound**2
    check = CoeffCheck(complex(truncated), complex(truncated + edge), complex(edge), bound)
    # k products each of modulus at most sup_bound^2: the bound is exact
    assert abs(check.edge) <= check.bound
    return check


@dataclass
class SpectralLimitDiagnostic:
    """Coefficient vectors along a window grid and their spread.

    rows[i, k] holds sigma_hat_{g, n_grid[i]}(k).  deviations[i, j] is the
    max over k of |rows[i] - rows[j]|.  The plausibility flag reports
    whether the top half of the grid has settled below the tolerance; it is
    a heuristic reading of the numbers, not a verdict on the limit.
    """

    n_grid: list[int]
    K: int
    rows: np.ndarray
    deviations: np.ndarray
    tolerance: float
    single_limit_plausible: bool

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "k", "re", "im"])
            for i, n in enumerate(self.n_grid):
                for k in range(self.K + 1):
                    v = complex(self.rows[i, k])
                    writer.writerow([n, k, repr(v.real), repr(v.imag)])


def spectral_limit_diagnostic(g: BoundedSeq, n_grid: list[int], K: int,
                              tolerance: float = 0.01) -> SpectralLimitDiagnostic:
    """Tabulate analytic coefficients along n_grid, which experiments.check_grid
    checks and sorts, and compare rows."""
    grid = check_grid(n_grid)
    if K < 0 or K >= grid[0]:
        raise LagTooLargeError(f"need K < min(n_grid), got K={K}")
    rows = np.empty((len(grid), K + 1), dtype=np.complex128)
    for i, n in enumerate(grid):
        for k in range(K + 1):
            rows[i, k] = correlation_sums(g, [k], 1, n - k + 1)[0] / n
    m = len(grid)
    dev = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d = float(np.max(np.abs(rows[i] - rows[j])))
            dev[i, j] = dev[j, i] = d
    top = list(range(m // 2, m)) if m > 1 else [0]
    plausible = all(dev[i, j] < tolerance for i in top for j in top if i < j)
    return SpectralLimitDiagnostic(grid, K, rows, dev, tolerance, plausible)


def dirichlet_energy(eta: TorusMeasure, h: int, k: int) -> float:
    """Integral of |D_h(k * theta)|^2 against eta, D_h(t) = sum_{l=1..h} e^{ilt}.

    Needs at least 8*h*k bins to resolve the kernel; raises
    GridTooCoarseError below that.  Uses the closed form
    |D_h(t)|^2 = (sin(h t / 2) / sin(t / 2))^2 with the h^2 limit at t = 0.
    """
    if h < 1 or k < 1:
        raise ValueError(f"need h >= 1 and k >= 1, got h={h}, k={k}")
    if eta.bins < DIRICHLET_GRID_FACTOR * h * k:
        raise GridTooCoarseError(
            f"bins={eta.bins} below {DIRICHLET_GRID_FACTOR}*h*k={DIRICHLET_GRID_FACTOR * h * k}")

    def kernel_sq(theta: np.ndarray) -> np.ndarray:
        half = 0.5 * k * theta
        s = np.sin(half)
        flat = s == 0.0
        num = np.sin(h * half)
        out = np.empty_like(theta)
        out[flat] = float(h) ** 2
        out[~flat] = (num[~flat] / s[~flat]) ** 2
        return out

    return math.fsum([np.sum(kernel_sq(eta.midpoints) * eta.bin_masses())]
                     + [mass * float(kernel_sq(np.array([pos]))[0]) for pos, mass in eta.atoms])
