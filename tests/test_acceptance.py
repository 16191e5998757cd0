"""End-to-end acceptance checks, one test per headline result.

Each test pins a physical deliverable of the package: the exact angular
table, tensor-vs-quadrature equivalence, the depth-ratio curve, tensor
splittings, the magic pair, series fits, the pair-channel defect, the
loss pipelines, the coherence simulation, and the module invariants.
Tolerances are stated inline next to each assertion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rydtrap.angular import (Term, angular_factor_exact, angular_table,
                             reference_m, wigner_3j, wigner_6j)
from rydtrap.beam import brute_force_average, decompose
from rydtrap.coherence import DephasingScenario, ramsey_contrast
from rydtrap.constants import AU_POLARIZABILITY, C, CM1_TO_MHZ, H
from rydtrap.loss import (LifetimeRecord, autoionization_coefficient,
                          autoionization_rate, fit_photoionization,
                          trapped_lifetime_reduction)
from rydtrap.potential import (RydbergState, core_depth, core_shift,
                               differential_shift, field_for, ground_depth,
                               oracle_compare, pond_prefactor,
                               ponderomotive_shift, tensor_splitting, yb174)
from rydtrap.radial import RadialGrid, hydrogen_radial, numerov_radial
from rydtrap import spectroscopy as sp

from conftest import POWER, ylm_density

EPSILON_0 = 1.0 / (4e-7 * math.pi * C * C)

# closed-form angular factors (k = 0, 2, 4) per term, exact rationals
ANGULAR_TABLE = {
    "2S1/2": (1, 0, 0),
    "2P1/2": (1, 0, 0),
    "2P3/2": (1, Fraction(1, 5), 0),
    "2D3/2": (1, Fraction(1, 5), 0),
    "2D5/2": (1, Fraction(8, 35), Fraction(2, 21)),
    "1S0": (1, 0, 0),
    "3S1": (1, 0, 0),
    "1P1": (1, Fraction(2, 5), 0),
    "3P0": (1, 0, 0),
    "3P1": (1, Fraction(-1, 5), 0),
    "3P2": (1, Fraction(1, 5), 0),
    "1D2": (1, Fraction(2, 7), Fraction(2, 7)),
    "3D1": (1, Fraction(1, 5), 0),
    "3D2": (1, Fraction(1, 7), Fraction(-4, 21)),
    "3D3": (1, Fraction(8, 35), Fraction(2, 21)),
}


def test_01_angular_factor_table():
    """All 15 term rows x 3 ranks match the closed forms exactly, < 1 s."""
    t0 = time.perf_counter()
    rows = dict(angular_table())
    assert set(rows) == set(ANGULAR_TABLE)
    for label, want in ANGULAR_TABLE.items():
        got = rows[label]
        assert len(got) == 3
        for k_index in range(3):
            assert got[k_index] == Fraction(want[k_index]), \
                "term %s rank %d: got %s, want %s" % (
                    label, 2 * k_index, got[k_index], want[k_index])
    assert time.perf_counter() - t0 < 1.0


def test_02_tensor_vs_quadrature(species, beam9):
    """Tensor-path shift equals direct 3D quadrature to 1e-6, < 5 min.

    The two agree to <= 1.7e-7 relative on these eight states (1D2 n = 100
    is the worst); the bound is max(1e-6, 3x that), tight enough that a
    1e-5 * I0 error in the f_20 profile (<= 6.3e-6 relative) fails it.
    """
    t0 = time.perf_counter()
    for label in ("3S1", "1D2"):
        term = Term(label)
        for n in (40, 60, 75, 100):
            state = RydbergState(species, n, term, reference_m(term))
            tensor_hz, brute_hz = oracle_compare(
                state, field_for(beam9, [state]))
            rel = abs(tensor_hz - brute_hz) / abs(brute_hz)
            assert rel < 1e-6, "%s n=%d: tensor %.6g Hz vs quadrature " \
                "%.6g Hz (rel %.2e)" % (label, n, tensor_hz, brute_hz, rel)
    assert time.perf_counter() - t0 < 300.0


def test_03_depth_ratio_curve(species, beam9):
    """Depth-ratio vs n: zero crossing, low-n identity, high-n approach.

    The ratio of Rydberg to ground trap depth for the S series must cross
    zero at n = 62 +- 1, equal (alpha_core - alpha_free * w(n)) /
    alpha_ground exactly at low n (w = wavefunction-averaged relative
    intensity), and approach alpha_core / alpha_ground from below at high
    n: strictly increasing over n = 80, 100, 120, 140, and at n = 140 the
    gap left to the asymptote equals alpha_free * w / alpha_ground with w
    taken from the direct 3D quadrature of a Numerov wavefunction at the
    state's n*, to 0.5%. The gap is not small at n = 140:
    w falls only as n*^-3 (the s-state density near the core), so for this
    532 nm, 650 nm waist tweezer it is about 14% there and reaches 3% near
    n = 230.
    """
    t0 = time.perf_counter()
    grid = RadialGrid.default(146, npoints=40 * 146)
    field = decompose(beam9, grid, k_max=0)
    omega = beam9.angular_frequency
    alpha_free_au = pond_prefactor(omega) * 2.0 * EPSILON_0 * C \
        / AU_POLARIZABILITY

    def ratio_and_weight(n):
        state = RydbergState(species, n, "3S1")
        pond_hz = ponderomotive_shift(state, field)
        weight = pond_hz * H / (pond_prefactor(omega) * beam9.peak_intensity)
        u_total_hz = core_shift(species, beam9) + pond_hz
        return -u_total_hz / ground_depth(species, beam9), weight

    # low-n identity: the curve is the polarizability balance by construction
    for n in (30, 40):
        ratio, weight = ratio_and_weight(n)
        ident = (species.alpha_core_au - alpha_free_au * weight) \
            / species.alpha_ground_au
        assert ratio == pytest.approx(ident, rel=1e-9), n
        assert 0.9 < weight < 1.0
    assert ratio_and_weight(30)[1] > ratio_and_weight(40)[1]

    # zero crossing of the trapped/anti-trapped boundary
    ratios = {n: ratio_and_weight(n)[0] for n in range(58, 67)}
    crossing = None
    for n in range(58, 66):
        if ratios[n] < 0.0 <= ratios[n + 1]:
            crossing = n + ratios[n] / (ratios[n] - ratios[n + 1])
    assert crossing is not None and 61.0 <= crossing <= 63.0, crossing
    assert time.perf_counter() - t0 < 120.0

    # high-n approach to the core-only value, from below
    target = species.alpha_core_au / species.alpha_ground_au
    high = (80, 100, 120, 140)
    high_ratios = [ratio_and_weight(n)[0] for n in high]
    shown = ", ".join("n=%d: %.4f" % nr for nr in zip(high, high_ratios))
    assert all(a < b for a, b in zip(high_ratios, high_ratios[1:])) \
        and high_ratios[-1] < target, \
        "ratios %s do not rise strictly towards the core-only asymptote " \
        "%.4f from below" % (shown, target)

    # the gap left at n = 140 is the electron's share, weighted by the
    # intensity average from the independent 3D quadrature oracle
    wf = numerov_radial(RydbergState(species, 140, "3S1").n_star, 0,
                        field.grid)
    w_oracle = brute_force_average(beam9, wf, (0.0, 0.0, 0.0),
                                   ylm_density(0, 0)) / beam9.peak_intensity
    gap_oracle = alpha_free_au * w_oracle / species.alpha_ground_au
    gap = target - high_ratios[-1]
    assert gap == pytest.approx(gap_oracle, rel=5e-3), \
        "gap to the core-only asymptote %.4f at n=140 is %.6f, the 3D " \
        "quadrature oracle gives %.6f (w = %.6f); ratios %s" % (
            target, gap, gap_oracle, w_oracle, shown)


def test_04_tensor_splitting(species, field_op):
    """n=74 triplet P2 splitting: 400 kHz +- 15%, exact even-in-M pattern."""
    shifts = tensor_splitting(RydbergState(species, 74, "3P2"), field_op,
                              90.0)
    spread = max(shifts.values()) - min(shifts.values())
    assert 0.85 * 400e3 <= spread <= 1.15 * 400e3, spread
    by_m = {int(m): v for m, v in shifts.items()}
    assert set(by_m) == {-2, -1, 0, 1, 2}
    assert by_m[2] == by_m[-2] and by_m[1] == by_m[-1]
    # quadratic-in-M pattern: s(2) - s(0) = 4 [s(1) - s(0)]
    assert by_m[2] - by_m[0] == pytest.approx(4.0 * (by_m[1] - by_m[0]),
                                              abs=1e-6 * spread)


def test_05_magic_pair(species, field9):
    """Triplet S1 / triplet P0 magic pair.

    The angular factors of the two series are identical rationals, so at
    equal n* the ponderomotive shifts match up to the tiny L dependence
    of the radial sampling; the physical n=75 / n=74 pair stays within
    10% of the trap depth at the 1.4 MHz operating depth.
    """
    for k in (0, 2, 4):
        a = angular_factor_exact(Term("3S1"), k, 0)
        b = angular_factor_exact(Term("3P0"), k, 0)
        c = angular_factor_exact(Term("1S0"), k, 0)
        assert a == b == c

    flat = yb174()
    flat.defects = {"3S1": 4.44, "3P0": 3.44}
    state_a = RydbergState(flat, 75, "3S1")
    state_b = RydbergState(flat, 74, "3P0")
    assert abs(state_a.n_star - state_b.n_star) < 1e-12
    diff = differential_shift(state_a, state_b, field9)
    pond = ponderomotive_shift(state_a, field9)
    assert abs(diff) <= 1e-3 * abs(pond), (diff, pond)

    real_a = RydbergState(species, 75, "3S1")
    real_b = RydbergState(species, 74, "3P0")
    depth_hz = -(core_shift(species, field9.beam)
                 + ponderomotive_shift(real_a, field9))
    scale = 1.4e6 / depth_hz        # shifts are linear in power
    diff_at_point = differential_shift(real_a, real_b, field9) * scale
    assert abs(diff_at_point) < 0.1 * 1.4e6, diff_at_point


def test_06_series_fits(species):
    """Ritz and threshold fits on the bundled series table, < 10 s."""
    t0 = time.perf_counter()
    records = sp.load_energy_csv(sp.bundled_energy_path())
    model = sp.fit_ritz(records, fit_range=(35, 80),
                        ionization_cm1=species.ionization_cm1,
                        rydberg_cm1=species.rydberg_cm1)
    assert abs(model.params[0] - 4.4382) < 0.001, model.params[0]
    assert model.rms_residual_mhz() <= 4.0

    threshold = sp.fit_threshold(records, fit_range=(60, 80),
                                 rydberg_cm1=species.rydberg_cm1)
    off_mhz = (threshold.ionization_cm1 - species.ionization_cm1) * CM1_TO_MHZ
    assert abs(off_mhz) < 5.0, off_mhz

    # the n=100 line sits above the extrapolated series by +17 MHz
    row100 = next(rec for rec in records if rec.n == 100)
    extrap_mhz = (row100.energy_cm1 - model.energy_cm1(100)) * CM1_TO_MHZ
    assert 12.0 <= extrap_mhz <= 22.0, extrap_mhz
    assert time.perf_counter() - t0 < 10.0


def test_07_forster_defect(species):
    """(80,80) S pair to (80,79) P2 pair channel: -320 +- 15 MHz."""
    assert species.defect("3S1", 80) == pytest.approx(4.439, abs=1e-3)
    assert species.defect("3P2", 79) == pytest.approx(3.923, abs=1e-9)
    pair_in = [RydbergState(species, 80, "3S1"),
               RydbergState(species, 80, "3S1")]
    pair_out = [RydbergState(species, 80, "3P2"),
                RydbergState(species, 79, "3P2")]
    defect_mhz = sp.forster_defect(pair_in, pair_out)
    assert -335.0 <= defect_mhz <= -305.0, defect_mhz


def test_08_photoionization_pipeline(beam9):
    """Parameter recovery under noise, and the 9 mW lifetime reduction."""
    gamma0 = 1.0 / 83e-6
    gamma_pi = 3.7e5
    powers_mw = (1.5, 3.0, 4.5, 6.0, 7.5, 9.0, 10.5, 12.0)

    # 200 noisy synthetic datasets: both parameters inside 2 sigma >= 90%
    noise = 0.06
    rng = np.random.default_rng(np.random.Philox(key=0))
    successes = 0
    for _ in range(200):
        records = []
        for p_mw in powers_mw:
            tau = 1.0 / (gamma0 + gamma_pi * p_mw * 1e-3)
            noisy = tau * (1.0 + noise * rng.standard_normal())
            if noisy <= 0:
                noisy = 0.01 * tau
            records.append(LifetimeRecord(p_mw * 1e-3, noisy, noise * tau))
        fit = fit_photoionization(records, beam9)
        if (abs(fit.gamma0 - gamma0) < 2.0 * fit.gamma0_sigma
                and abs(fit.gamma_pi - gamma_pi) < 2.0 * fit.gamma_pi_sigma):
            successes += 1
    assert successes >= 180, "%d / 200 joint 2-sigma recoveries" % successes

    # noiseless fit at the measured zero-power lifetime: 15-30% reduction
    exact = [LifetimeRecord(p_mw * 1e-3,
                            1.0 / (gamma0 + gamma_pi * p_mw * 1e-3))
             for p_mw in powers_mw]
    fit = fit_photoionization(exact, beam9)
    reduction = trapped_lifetime_reduction(fit, POWER)
    assert 0.15 <= reduction <= 0.30, reduction


def test_09_autoionization(species, beam9):
    """Isolated-core estimate: coefficient and the n=75 lifetime."""
    depth = core_depth(species, beam9, None)
    coeff = autoionization_coefficient(species, beam9.wavelength, depth)
    assert abs(coeff - 58e6) <= 0.10 * 58e6, coeff
    state = RydbergState(species, 75, "3S1")
    lifetime = 1.0 / autoionization_rate(state, beam9.wavelength, depth)
    assert abs(lifetime - 7e-3) <= 0.15 * 7e-3, lifetime


def test_10_ramsey_simulation():
    """90 kHz shift at 13 uK, T1 = 108 us: 22 us 1/e decay, < 30 s."""
    t0 = time.perf_counter()
    times = np.linspace(0.0, 60e-6, 121)
    scenario = DephasingScenario(dnu0_hz=90e3, temperature_k=13e-6,
                                 depth_hz=2.0e6, t1_s=108e-6,
                                 n_atoms=100000, seed=0)
    t_decay = ramsey_contrast(scenario, times).one_over_e_time_s
    assert abs(t_decay - 22e-6) <= 0.20 * 22e-6, t_decay

    envelope = np.exp(-times / 108e-6)
    cold = DephasingScenario(dnu0_hz=90e3, temperature_k=0.0, depth_hz=2.0e6,
                             t1_s=108e-6, n_atoms=100000, seed=0)
    assert np.allclose(ramsey_contrast(cold, times).contrast, envelope,
                       rtol=1e-12)
    flat = DephasingScenario(dnu0_hz=0.0, temperature_k=13e-6, depth_hz=2.0e6,
                             t1_s=108e-6, n_atoms=100000, seed=0)
    assert np.allclose(ramsey_contrast(flat, times).contrast, envelope,
                       rtol=1e-12)
    assert time.perf_counter() - t0 < 30.0


def test_11_invariant_suites(species, beam9, sphere9):
    """Module invariants: symbol algebra, wavefunctions, field, linearity."""

    def triangle(ta, tb, tc):
        return (abs(ta - tb) <= tc <= ta + tb
                and (ta + tb + tc) % 2 == 0)

    half = {}

    def hi(t):
        if t not in half:
            half[t] = Fraction(t, 2)
        return half[t]

    # 3j orthogonality, exhaustive over 2j <= 8
    for tj1 in range(9):
        for tj2 in range(9):
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    total = 0.0
                    for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                        if abs(tm1 + tm2) > tj3:
                            continue
                        w = wigner_3j(hi(tj1), hi(tj2), hi(tj3), hi(tm1),
                                      hi(tm2), hi(-tm1 - tm2))
                        total += (tj3 + 1) * w * w
                    assert total == pytest.approx(1.0, abs=1e-12)

    # 3j symmetries, exhaustive over the same span
    for tj1 in range(9):
        for tj2 in range(9):
            for tj3 in range(abs(tj1 - tj2), min(tj1 + tj2, 8) + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        tm3 = -tm1 - tm2
                        if abs(tm3) > tj3:
                            continue
                        base = wigner_3j(hi(tj1), hi(tj2), hi(tj3),
                                         hi(tm1), hi(tm2), hi(tm3))
                        cyc = wigner_3j(hi(tj2), hi(tj3), hi(tj1),
                                        hi(tm2), hi(tm3), hi(tm1))
                        assert cyc == pytest.approx(base, abs=1e-14)
                        odd = ((tj1 + tj2 + tj3) // 2) % 2
                        phase = -1.0 if odd else 1.0
                        swap = wigner_3j(hi(tj2), hi(tj1), hi(tj3),
                                         hi(tm2), hi(tm1), hi(tm3))
                        assert swap == pytest.approx(phase * base, abs=1e-14)
                        neg = wigner_3j(hi(tj1), hi(tj2), hi(tj3),
                                        hi(-tm1), hi(-tm2), hi(-tm3))
                        assert neg == pytest.approx(phase * base, abs=1e-14)

    # 6j orthogonality and symmetries, exhaustive fixed entries 2j <= 8;
    # the completeness sum itself runs over every valid middle rank
    for ta in range(9):
        for tb in range(9):
            for td in range(9):
                for te in range(9):
                    tfs = [tf for tf in range(9)
                           if triangle(ta, te, tf) and triangle(td, tb, tf)]
                    if not tfs:
                        continue
                    tcs = [tc for tc in range(min(ta + tb, td + te) + 1)
                           if triangle(ta, tb, tc) and triangle(td, te, tc)]
                    w = {}
                    for tc in tcs:
                        for tf in tfs:
                            w[tc, tf] = wigner_6j(hi(ta), hi(tb), hi(tc),
                                                  hi(td), hi(te), hi(tf))
                    for i, tf in enumerate(tfs):
                        for tf2 in tfs[i:]:
                            total = (tf + 1) * sum(
                                (tc + 1) * w[tc, tf] * w[tc, tf2]
                                for tc in tcs)
                            want = 1.0 if tf == tf2 else 0.0
                            assert total == pytest.approx(want, abs=1e-11)
                    for tc in tcs[:1]:
                        for tf in tfs:
                            base = w[tc, tf]
                            perm = wigner_6j(hi(tb), hi(ta), hi(tc),
                                             hi(te), hi(td), hi(tf))
                            assert perm == pytest.approx(base, abs=1e-14)
                            flip = wigner_6j(hi(td), hi(te), hi(tc),
                                             hi(ta), hi(tb), hi(tf))
                            assert flip == pytest.approx(base, abs=1e-14)

    # wavefunction normalization and node counts up to n = 120
    grid = RadialGrid.default(120)
    for n in (1, 2, 5, 10, 20, 40, 60, 80, 100, 120):
        for l in sorted({0, 1, n // 2, n - 1}):
            if l >= n:
                continue
            wf = hydrogen_radial(n, l, grid)
            assert wf.norm() == pytest.approx(1.0, abs=5e-8), (n, l)
            assert wf.node_count() == n - l - 1, (n, l)
    frac = numerov_radial(70.56, 0, grid)
    assert frac.norm() == pytest.approx(1.0, rel=1e-9)

    # zero trace of the tensor factors over M, exact rationals
    for label in ANGULAR_TABLE:
        term = Term(label)
        for k in (2, 4):
            acc = Fraction(0)
            for twice_m in range(-int(2 * term.J), int(2 * term.J) + 1, 2):
                acc += angular_factor_exact(term, k, Fraction(twice_m, 2))
            assert acc == 0, (label, k)

    # on-axis beam: every q != 0 component of the (theta, phi) rule vanishes
    i0 = beam9.peak_intensity
    checked = [kq for kq in sphere9 if kq[1] != 0]
    assert len(checked) == 20
    for k, q in checked:
        assert np.max(np.abs(sphere9[k, q])) < 1e-12 * i0, (k, q)

    # power linearity of every shift component: the 3P2 totals at M = 2
    # and M = 0 weigh the rank-2 element by different A_2, so together they
    # pin both ranks
    grid_small = RadialGrid.default(33, npoints=4000)
    f1 = decompose(beam9.with_power(9e-3), grid_small, k_max=4)
    f2 = decompose(beam9.with_power(18e-3), grid_small, k_max=4)
    assert core_shift(species, f2.beam) == pytest.approx(
        2.0 * core_shift(species, f1.beam), rel=1e-12)
    for m in (2, 0):
        state = RydbergState(species, 30, "3P2", m)
        assert ponderomotive_shift(state, f2) == pytest.approx(
            2.0 * ponderomotive_shift(state, f1), rel=1e-11), m
    s1 = tensor_splitting(RydbergState(species, 30, "3P2"), f1)
    s2 = tensor_splitting(RydbergState(species, 30, "3P2"), f2)
    for m in s1:
        assert s2[m] == pytest.approx(2.0 * s1[m], rel=1e-11)
    assert ground_depth(species, beam9.with_power(18e-3)) == pytest.approx(
        2.0 * ground_depth(species, beam9), rel=1e-12)
