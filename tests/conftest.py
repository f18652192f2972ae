"""Shared fixtures: big sieve windows are built once per session.

The three sign windows cover [1, 1e7 + 256] so every test (including the
acceptance battery, which reads lags up to 100 past 1e7) can slice the
same arrays instead of re-sieving.
"""

import numpy as np
import pytest

import mflab.experiments as ex
from mflab.cache import write_cache
from mflab.experiments import WindowStore, sign_window
from mflab.sequences import BoundedSeq
from mflab.sieve import SignSeq, sieve
from mflab.spectral import dirichlet_energy, periodogram

WINDOW_TOP = 10**7 + 256

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def spectral_window_energy(mu: np.ndarray, k: int, h: int, N: int) -> float:
    """The spectral side of windowed_sum_energy(k, h, N) (Veech): the squared
    Dirichlet kernel |D_h(k theta)|^2 integrated against the periodogram of
    mu on [1, N + h*k], on a grid of at least 2(N + h*k) and 8hk bins.  It
    agrees with the direct mean square up to (2hk/N) * h^2."""
    m = N + h * k
    bins = 1 << max(2 * m - 1, 8 * h * k - 1, 4095).bit_length()
    g = BoundedSeq.from_samples(mu[:m], label="mobius", sup_bound=1.0)
    return dirichlet_energy(periodogram(g, m, bins=bins).measure, h, k)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mu_window() -> np.ndarray:
    return sign_window("mobius", WINDOW_TOP)


@pytest.fixture(scope="session")
def lam_window() -> np.ndarray:
    return sign_window("liouville", WINDOW_TOP)


@pytest.fixture(scope="session")
def sq_window() -> np.ndarray:
    return sign_window("squarefree", WINDOW_TOP)


@pytest.fixture
def fresh_windows(monkeypatch):
    """An empty window store for one test; the session's windows come back after it."""
    monkeypatch.setattr(ex, "WINDOWS", WindowStore())


@pytest.fixture
def sieve_calls(monkeypatch):
    """Record (label, lo, hi) of every sieve pass the window store makes."""
    calls = []

    def recording(label, lo, hi, out=None):
        calls.append((label, lo, hi))
        return sieve(label, lo, hi, out=out)

    monkeypatch.setattr(ex, "sieve", recording)
    return calls


@pytest.fixture(params=["starts_late", "custom_label", "empty"])
def unusable_cache_dir(request, tmp_path):
    """(directory, what the refusal must name): an existing cache directory
    that load_caches refuses, beside a valid mobius cache."""
    cache_dir = tmp_path / "caches"
    cache_dir.mkdir()
    if request.param == "empty":
        return cache_dir, str(cache_dir)
    write_cache(cache_dir / "mobius.bin", sieve("mobius", 1, 3001))
    if request.param == "starts_late":
        write_cache(cache_dir / "squarefree.bin", sieve("squarefree", 2, 3001))
        return cache_dir, "squarefree.bin"
    write_cache(cache_dir / "custom.bin", SignSeq("custom", 1, np.ones(3000, dtype=np.int8)))
    return cache_dir, "custom.bin"
