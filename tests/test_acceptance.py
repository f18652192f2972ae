"""Acceptance suite: one test per contract criterion, one summary line each.

Every criterion states its own tolerance; nothing here loosens them.  The
terminal summary block lists a PASS/FAIL line per criterion (see conftest).
"""

import json
import math
import time
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from conftest import record_acceptance, spectral_window_energy
from mflab.config import EXIT_OK, load_config, run
from mflab.experiments import (
    sign_window,
    windowed_sum_energy,
)
from mflab.measures import TorusMeasure, affinity, hellinger, smoothed
from mflab.sequences import BoundedSeq, cross_correlation
from mflab.sieve import oracle_values, primes_upto, sieve
from mflab.spectral import coefficient_consistency, periodogram
from mflab.symbolic import (
    Block2,
    SkewPoint,
    apply_signs,
    is_admissible,
    mirsky_cylinder_density,
    skew_step,
    square_map,
)

REPO = Path(__file__).resolve().parent.parent
TAU = 2.0 * math.pi


def _record(num: int, name: str, ok: bool) -> None:
    record_acceptance(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_sieve_exactness(mu_window, lam_window, sq_window):
    t0 = time.perf_counter()
    oracle_ok = True
    for n in range(1, 10**6 + 1):
        if ((int(mu_window[n - 1]), int(lam_window[n - 1]), int(sq_window[n - 1]))
                != oracle_values(n)):
            oracle_ok = False
            break

    top = 10**8
    # one pass fills all three labels; their parity counters stay independent
    lam = np.empty(top, dtype=np.int8)
    sq = np.empty(top, dtype=np.int8)
    mu = sieve("mobius", 1, top + 1, out={"liouville": lam, "squarefree": sq}).values
    identity_ok = bool(np.array_equal(mu, lam * sq))
    del mu, lam, sq
    elapsed = time.perf_counter() - t0
    fast_enough = elapsed < 60.0

    ok = oracle_ok and identity_ok and fast_enough
    _record(1, "sieve exactness and identity to 1e8", ok)
    assert oracle_ok, "sieve disagrees with the trial-factorization oracle on [1, 1e6]"
    assert identity_ok, "mobius != liouville * squarefree somewhere on [1, 1e8]"
    assert fast_enough, f"criterion took {elapsed:.1f}s, budget is 60s"


def test_criterion_02_squarefree_density(sq_window):
    count = int(np.sum(sq_window[: 10**7], dtype=np.int64))
    density = count / 10**7
    p = primes_upto(10**4).astype(np.float64)
    product = float(np.prod(1.0 - 1.0 / (p * p)))
    ok = abs(density - product) < 2e-3
    _record(2, "square-free density vs Euler product", ok)
    assert ok, f"|{density} - {product}| = {abs(density - product)} >= 2e-3"


def test_criterion_03_mirsky_pair_density(sq_window):
    md = mirsky_cylinder_density({0, 1}, set(), 10**7, squarefree_window=sq_window)
    diff = abs(md.product_estimate - md.empirical)
    ok = diff < 5e-3
    _record(3, "consecutive square-free pair density", ok)
    assert ok, (f"product {md.product_estimate} vs empirical {md.empirical}, "
                f"diff {diff} >= 5e-3")


def _random_window(rng, length, sup):
    radius = sup * np.sqrt(rng.random(length))
    phase = rng.random(length) * TAU
    return radius * np.exp(1j * phase)


def test_criterion_04_coefficient_edge_bound():
    rng = np.random.default_rng(20260819)
    ok = True
    worst = 0.0
    for n in (10**3, 10**4):
        for trial in range(100):
            sup = 0.5 + 1.5 * rng.random()
            w = _random_window(rng, n + 100, sup)
            g = BoundedSeq.from_samples(w, sup_bound=sup)
            for k in range(101):
                check = coefficient_consistency(g, n, k)
                if abs(check.edge) > check.bound:
                    ok = False
                    worst = max(worst, abs(check.edge) - check.bound)

    ones = BoundedSeq(lambda idx: np.ones(len(idx), dtype=np.complex128), 1.0)
    equality = all(
        abs(coefficient_consistency(ones, n, k).edge)
        == coefficient_consistency(ones, n, k).bound
        for n in (10**3, 10**4)
        for k in (1, 7, 100))
    ok = ok and equality
    _record(4, "edge bound |F_n(k) - truncated| <= k/n sup^2", ok)
    assert ok, f"edge exceeded its bound by up to {worst} or saturation failed"


def test_criterion_05_parseval():
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(50, 2000))
        w = _random_window(rng, n, sup=1.0 + rng.random())
        g = BoundedSeq.from_samples(w, sup_bound=float(np.max(np.abs(w))))
        gram = periodogram(g, n)
        mean_square = float(np.mean(np.abs(w) ** 2))
        rel = abs(gram.measure.total_mass - mean_square) / mean_square
        worst = max(worst, rel)
    ok = worst <= 1e-8
    _record(5, "Parseval total mass within 1e-8 relative", ok)
    assert ok, f"worst relative Parseval error {worst} > 1e-8"


def _random_measure(rng, allow_atoms=True):
    if allow_atoms and rng.random() < 0.3:
        k = int(rng.integers(1, 4))
        pos = np.sort(rng.random(k)) * (TAU - 1e-9)
        atoms = [(float(p), float(m)) for p, m in zip(pos, rng.random(k) + 0.05)]
        return TorusMeasure.from_atoms(atoms, bins=64).normalized()
    return TorusMeasure.from_density(rng.random(64) + 1e-3).normalized()


def test_criterion_06_affinity_axioms():
    rng = np.random.default_rng(6)

    identity_ok = all(
        abs(affinity(eta, eta) - 1.0) < 1e-10
        for eta in (_random_measure(rng) for _ in range(25)))

    left = TorusMeasure(64, np.concatenate([np.ones(32), np.zeros(32)])).normalized()
    right = TorusMeasure(64, np.concatenate([np.zeros(32), np.ones(32)])).normalized()
    atom_a = TorusMeasure.from_atoms([(0.5, 1.0)])
    atom_b = TorusMeasure.from_atoms([(0.6, 1.0)])
    disjoint_ok = (affinity(left, right) == 0.0 and affinity(atom_a, atom_b) == 0.0)

    range_ok = True
    for _ in range(10**3):
        g = affinity(_random_measure(rng), _random_measure(rng))
        if not 0.0 <= g <= 1.0:
            range_ok = False

    mix_ok = True
    for _ in range(20):
        eta, nu = _random_measure(rng), _random_measure(rng)
        vals = [affinity(eta, nu, mix=m) for m in (0.3, 0.5, 0.7)]
        if max(vals) - min(vals) >= 1e-10:
            mix_ok = False

    hellinger_ok = True
    for _ in range(20):
        eta, nu = _random_measure(rng), _random_measure(rng)
        g = affinity(eta, nu)
        if abs(hellinger(eta, nu) ** 2 - 2.0 * (1.0 - g)) > 1e-14:
            hellinger_ok = False

    ok = identity_ok and disjoint_ok and range_ok and mix_ok and hellinger_ok
    _record(6, "affinity axioms", ok)
    assert identity_ok, "G(eta, eta) deviates from 1 beyond 1e-10"
    assert disjoint_ok, "G of disjointly supported measures is not exactly 0"
    assert range_ok, "G left [0, 1] on a random pair"
    assert mix_ok, "G depends on the dominating mixture beyond 1e-10"
    assert hellinger_ok, "H^2 != 2(1 - G) at machine precision"


def test_criterion_07_smoothing_family():
    p = TorusMeasure.from_atoms([(0.0, 1.0)])
    q = TorusMeasure.from_atoms([(0.0, 0.5), (math.pi, 0.5)])
    g_limit = affinity(p, q)
    closed_form_ok = abs(g_limit - 1.0 / math.sqrt(2.0)) < 1e-12

    family_ok = True
    for n in (1, 2, 4, 8, 16, 64):
        g_n = affinity(smoothed(p, 1.0 / n), smoothed(q, 1.0 / n))
        if g_n > g_limit + 1e-6:
            family_ok = False

    # a family where the inequality is strict: disjoint atoms that merge
    # only in the limit, so every finite-stage affinity is 0 while the
    # limit affinity is 1
    strict_ok = all(
        affinity(TorusMeasure.from_atoms([(2.0 - 1.0 / n, 1.0)]),
                 TorusMeasure.from_atoms([(2.0 + 1.0 / n, 1.0)])) == 0.0
        for n in (2, 4, 8, 64))

    ok = closed_form_ok and family_ok and strict_ok
    _record(7, "smoothing family respects the affinity limsup bound", ok)
    assert closed_form_ok, f"G(P, Q) = {g_limit}, expected 1/sqrt(2)"
    assert family_ok, "some smoothed pair exceeded G(P, Q) + 1e-6"
    assert strict_ok, "disjoint-bump family should have affinity exactly 0"


def test_criterion_08_single_frequency_pairs():
    rng = np.random.default_rng(8)
    ok = True
    for trial in range(50):
        alpha = float(rng.random() * TAU)
        gap = 0.5 + float(rng.random()) * (TAU - 1.0)
        beta = math.fmod(alpha + gap, TAU)
        N = 1000 if trial % 2 == 0 else 5000
        cc = abs(cross_correlation(
            BoundedSeq.exponential(alpha), BoundedSeq.exponential(beta), N))
        if cc > 5.0 / N:
            ok = False
        if affinity(TorusMeasure.from_atoms([(alpha, 1.0)]),
                    TorusMeasure.from_atoms([(beta, 1.0)])) != 0.0:
            ok = False
    _record(8, "rotation pairs: small cross correlation, zero affinity", ok)
    assert ok, "a rotation pair broke the 5/N bound or had nonzero affinity"


def test_criterion_09_skew_product_identities(mu_window, lam_window, sq_window):
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(10**4):
        length = int(rng.integers(1, 40))
        base = Block2(rng.integers(0, 2, size=length).astype(np.int8))
        ones = int(np.sum(base.values))
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=ones + 2)
        pt = SkewPoint(base, signs)
        y = apply_signs(base, signs)
        if not np.array_equal(square_map(y).values, base.values):
            ok = False
        if int(y.values[0]) != pt.first_product():
            ok = False
        stepped = skew_step(pt)
        y_step = apply_signs(stepped.base, stepped.signs)
        if not np.array_equal(y_step.values, y.values[1:]):
            ok = False

    top = 10**6
    x = Block2(sq_window[:top])
    signs_at_squarefree = lam_window[:top][sq_window[:top] == 1]
    rebuilt = apply_signs(x, signs_at_squarefree)
    rebuild_ok = bool(np.array_equal(rebuilt.values, mu_window[:top]))

    ok = ok and rebuild_ok
    _record(9, "skew product identities and sign reconstruction", ok)
    assert ok, "a skew identity failed on random points or the rebuild differed"


def _brute_force_admissible(shifts) -> bool:
    for p in (2, 3, 5):
        m = p * p
        if len({a % m for a in shifts}) == m:
            return False
    return True


def test_criterion_10_admissibility_exhaustive(sq_window):
    ok = True
    checked = 0
    for size in range(0, 7):
        for combo in combinations(range(31), size):
            if is_admissible(combo) != _brute_force_admissible(combo):
                ok = False
            checked += 1
    exhaustive_ok = ok and checked == sum(
        math.comb(31, s) for s in range(0, 7))

    support = np.flatnonzero(sq_window[: 10**4] == 1)
    support_ok = is_admissible(support.tolist()) is True

    ok = exhaustive_ok and support_ok
    _record(10, "admissibility matches brute force; mu^2 support admissible", ok)
    assert exhaustive_ok, "is_admissible disagreed with residue enumeration"
    assert support_ok, "square-free support of [1, 1e4] reported inadmissible"


def test_criterion_11_decay_battery(tmp_path, mu_window, lam_window, sq_window):
    t0 = time.perf_counter()
    config = load_config(REPO / "configs" / "decay_battery.json")
    config = replace(config,
                     output_dir=str(tmp_path / "reports"),
                     golden_file=str(REPO / "goldens" / "decay_battery.json"))
    code = run(config)
    elapsed = time.perf_counter() - t0

    finals = {}
    decays = {}
    for spec in config.experiments:
        data = json.loads((tmp_path / "reports" / f"{spec.name}.json").read_text())
        finals[spec.name] = data["indicators"]["final_abs"]
        decays[spec.name] = data["indicators"]["endpoint_decay"]
    small_ok = all(v < 0.05 for v in finals.values())
    decay_ok = all(decays.values())
    fast_ok = elapsed < 300.0
    ok = code == EXIT_OK and small_ok and decay_ok and fast_ok
    _record(11, "decay battery matches goldens", ok)
    assert code == EXIT_OK, "golden comparison failed"
    assert small_ok, f"a final magnitude reached 0.05: {finals}"
    assert decay_ok, f"magnitude grew from N=1e5 to 1e7: {decays}"
    assert fast_ok, f"battery took {elapsed:.1f}s, budget is 300s"


def test_criterion_12_windowed_energy_consistency(mu_window):
    ok = True
    worst = 0.0
    for k in (1, 3):
        for h in (10, 30):
            for N in (10**5, 10**6):
                direct = windowed_sum_energy(k, h, N)
                spectral = spectral_window_energy(mu_window, k, h, N)
                bound = (2.0 * h * k / N) * h * h
                gap = abs(direct - spectral)
                if gap > bound:
                    ok = False
                    worst = max(worst, gap - bound)

    ratios = []
    for h in (10, 30, 100):
        ratios.append(windowed_sum_energy(1, h, 10**7) / (h * h))
    decreasing_ok = ratios[0] > ratios[1] > ratios[2]

    ok = ok and decreasing_ok
    _record(12, "windowed energy direct vs spectral", ok)
    assert ok, (f"spectral gap exceeded the edge bound by {worst} "
                f"or direct/h^2 ratios {ratios} are not decreasing")


def test_criterion_13_deterministic_reports(tmp_path, mu_window, lam_window, sq_window):
    config = load_config(REPO / "configs" / "decay_battery.json")
    runs = []
    for tag in ("first", "second"):
        cfg = replace(config,
                      output_dir=str(tmp_path / tag),
                      golden_file=str(REPO / "goldens" / "decay_battery.json"))
        assert run(cfg) == EXIT_OK
        runs.append(tmp_path / tag)

    ok = True
    for spec in config.experiments:
        blobs = []
        for out_dir in runs:
            text = (out_dir / f"{spec.name}.json").read_text()
            kept = [line for line in text.splitlines()
                    if '"runtime_ms"' not in line]
            blobs.append("\n".join(kept))
        if blobs[0] != blobs[1]:
            ok = False
    _record(13, "byte-identical reports modulo runtime", ok)
    assert ok, "two runs of the battery produced different report bytes"
