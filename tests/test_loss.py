"""Photoionization fitting and the isolated-core autoionization estimate."""

import io

import numpy as np
import pytest

from rydtrap.beam import TweezerBeam
from rydtrap.constants import HBAR
from rydtrap.loss import (InsufficientDataError, LifetimeRecord,
                          autoionization_coefficient, autoionization_rate,
                          fit_photoionization, load_lifetime_csv,
                          trapped_lifetime_reduction)
from rydtrap.potential import RydbergState, core_depth, rb87

from conftest import POWER, WAIST

GAMMA0 = 1.0 / 83e-6          # zero-power decay rate, 1/s
GAMMA_PI = 3.7e5              # photoionization rate per watt


def synthetic_records(powers_mw, sigma_frac=None, rng=None):
    records = []
    for p_mw in powers_mw:
        tau = 1.0 / (GAMMA0 + GAMMA_PI * p_mw * 1e-3)
        sigma = None
        if sigma_frac is not None:
            sigma = sigma_frac * tau
            if rng is not None:
                tau = tau * (1.0 + sigma_frac * rng.standard_normal())
        records.append(LifetimeRecord(p_mw * 1e-3, tau, sigma))
    return records


class TestLoading:
    def test_units_and_optional_sigma(self):
        text = "power_mw,lifetime_us,sigma_us\n3.0,75.0,4.0\n6.0,64.0,3.0\n"
        recs = load_lifetime_csv(io.StringIO(text))
        assert recs[0].power_w == pytest.approx(3e-3)
        assert recs[0].lifetime_s == pytest.approx(75e-6)
        assert recs[0].sigma_s == pytest.approx(4e-6)
        bare = load_lifetime_csv(io.StringIO(
            "power_mw,lifetime_us\n3.0,75.0\n"))
        assert bare[0].sigma_s is None

    def test_header_and_empty_errors(self):
        with pytest.raises(ValueError):
            load_lifetime_csv(io.StringIO("watts,tau\n1,2\n"))
        with pytest.raises(ValueError):
            load_lifetime_csv(io.StringIO("power_mw,lifetime_us\n"))

    def test_record_validation(self):
        with pytest.raises(ValueError):
            LifetimeRecord(-1e-3, 50e-6)
        with pytest.raises(ValueError):
            LifetimeRecord(1e-3, 50e-6, -1e-6)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["power_w", "lifetime_s", "sigma_s"])
    def test_non_finite_record_names_field(self, field, value):
        kw = dict(power_w=1e-3, lifetime_s=50e-6, sigma_s=1e-6)
        kw[field] = value
        with pytest.raises(ValueError, match="%s must be finite, got %r"
                           % (field, value)):
            LifetimeRecord(**kw)


class TestPhotoionizationFit:
    def test_noiseless_recovery_is_exact(self, beam9):
        recs = synthetic_records([2.0, 4.0, 6.0, 9.0, 12.0])
        fit = fit_photoionization(recs, beam9)
        assert fit.gamma0 == pytest.approx(GAMMA0, rel=1e-10)
        assert fit.gamma_pi == pytest.approx(GAMMA_PI, rel=1e-10)
        assert fit.zero_power_lifetime_s == pytest.approx(83e-6, rel=1e-10)

    def test_weighted_fit_uncertainties_scale(self, beam9):
        rng = np.random.default_rng(12)
        recs = synthetic_records(np.linspace(1.0, 12.0, 8),
                                 sigma_frac=0.05, rng=rng)
        fit = fit_photoionization(recs, beam9)
        assert fit.gamma0_sigma > 0 and fit.gamma_pi_sigma > 0
        assert abs(fit.gamma0 - GAMMA0) < 4 * fit.gamma0_sigma
        assert abs(fit.gamma_pi - GAMMA_PI) < 4 * fit.gamma_pi_sigma

    def test_cross_section_conversion(self, beam9):
        recs = synthetic_records([2.0, 4.0, 6.0, 9.0])
        fit = fit_photoionization(recs, beam9)
        # rate per power -> cross section through the peak photon flux
        want = fit.gamma_pi * HBAR * beam9.angular_frequency \
            * np.pi * WAIST**2 / 2.0
        assert fit.sigma_pi_m2 == pytest.approx(want, rel=1e-12)

    def test_rate_and_reduction(self, beam9):
        recs = synthetic_records([2.0, 4.0, 6.0, 9.0])
        fit = fit_photoionization(recs, beam9)
        assert fit.rate(POWER) == pytest.approx(GAMMA0 + GAMMA_PI * POWER,
                                                rel=1e-9)
        reduction = trapped_lifetime_reduction(fit, POWER)
        assert reduction == pytest.approx(0.2165, abs=5e-3)
        assert trapped_lifetime_reduction(fit, 0.0) == 0.0

    def test_negative_power_refused(self, beam9):
        fit = fit_photoionization(synthetic_records([2.0, 4.0, 6.0]), beam9)
        with pytest.raises(ValueError, match="-0.005 W"):
            trapped_lifetime_reduction(fit, -5e-3)

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unweighted", "weighted"])
    def test_matches_numpy_weighted_least_squares(self, beam9, weighted):
        # an independent reference: lstsq on the sqrt(w)-scaled design,
        # covariance inv(A^T W A), scaled by the residual variance when no
        # sigmas are given
        recs = synthetic_records([1.0, 2.5, 4.0, 6.0, 9.0, 12.0, 12.0],
                                 sigma_frac=0.03,
                                 rng=np.random.default_rng(7))
        if not weighted:
            recs = [LifetimeRecord(r.power_w, r.lifetime_s) for r in recs]
        power = np.array([r.power_w for r in recs])
        tau = np.array([r.lifetime_s for r in recs])
        weight = (tau ** 2 / np.array([r.sigma_s for r in recs])) ** 2 \
            if weighted else np.ones_like(tau)
        design = np.column_stack([np.ones_like(power), power])
        root = np.sqrt(weight)
        coef = np.linalg.lstsq(design * root[:, None], root / tau,
                               rcond=None)[0]
        cov = np.linalg.inv(design.T @ (weight[:, None] * design))
        if not weighted:
            resid = 1.0 / tau - design @ coef
            cov *= np.sum(weight * resid ** 2) / (len(recs) - 2)
        fit = fit_photoionization(recs, beam9)
        assert fit.gamma0 == pytest.approx(coef[0], rel=1e-12)
        assert fit.gamma_pi == pytest.approx(coef[1], rel=1e-12)
        assert fit.gamma0_sigma == pytest.approx(np.sqrt(cov[0, 0]),
                                                 rel=1e-12)
        assert fit.gamma_pi_sigma == pytest.approx(np.sqrt(cov[1, 1]),
                                                   rel=1e-12)

    def test_requires_three_distinct_powers(self, beam9):
        recs = synthetic_records([5.0, 5.0, 5.0])
        with pytest.raises(InsufficientDataError):
            fit_photoionization(recs, beam9)
        with pytest.raises(InsufficientDataError):
            fit_photoionization(synthetic_records([5.0, 7.0]), beam9)


class TestAutoionization:
    @pytest.fixture
    def depth9(self, species, beam9):
        return core_depth(species, beam9, None)

    def test_default_core_depth_tracks_power(self, species, beam9, depth9):
        assert depth9 == pytest.approx(12e6 * 107.0 / 275.0, rel=1e-12)
        assert core_depth(species, beam9.with_power(POWER / 3), None) \
            == pytest.approx(depth9 / 3.0, rel=1e-12)

    def test_core_depth_tracks_peak_intensity(self, species, depth9):
        # the anchor was measured at a 650 nm waist: I0 ~ P/w0^2
        wide = TweezerBeam(532e-9, 1000e-9, POWER)
        assert core_depth(species, wide, None) == pytest.approx(
            depth9 * (650.0 / 1000.0) ** 2, rel=1e-12)

    def test_core_depth_from_a_given_ground_depth(self, species, beam9):
        # the anchor's rule applied to the given depth, at any power
        for beam in (beam9, beam9.with_power(POWER / 3)):
            assert core_depth(species, beam, 5e6) == pytest.approx(
                5e6 * 107.0 / 275.0, rel=1e-12)

    def test_core_depth_needs_an_anchor(self, beam9):
        with pytest.raises(ValueError, match="species rb87 has no measured "
                           "ground-depth anchor"):
            core_depth(rb87(), beam9, None)

    def test_coefficient_value(self, species, beam9, depth9):
        coeff = autoionization_coefficient(species, beam9.wavelength, depth9)
        assert coeff == pytest.approx(54.7e6, rel=1e-3)

    def test_rate_and_lifetime_at_75(self, species, beam9, depth9):
        state = RydbergState(species, 75, "3S1")
        rate = autoionization_rate(state, beam9.wavelength, depth9)
        assert 1.0 / rate == pytest.approx(6.42e-3, rel=1e-3)

    def test_nstar_cubed_scaling(self, species, beam9, depth9):
        r60 = autoionization_rate(RydbergState(species, 60, "3S1"),
                                  beam9.wavelength, depth9)
        r80 = autoionization_rate(RydbergState(species, 80, "3S1"),
                                  beam9.wavelength, depth9)
        n60 = RydbergState(species, 60, "3S1").n_star
        n80 = RydbergState(species, 80, "3S1").n_star
        assert r60 / r80 == pytest.approx((n80 / n60) ** 3, rel=1e-12)

    def test_zero_power_gives_zero_rate(self, species, beam9):
        state = RydbergState(species, 75, "3S1")
        beam0 = beam9.with_power(0.0)
        assert autoionization_rate(state, beam0.wavelength,
                                   core_depth(species, beam0, None)) == 0.0

    def test_rate_linear_in_core_depth(self, species, beam9):
        state = RydbergState(species, 75, "3S1")
        base = autoionization_rate(state, beam9.wavelength, core_depth_hz=2e6)
        double = autoionization_rate(state, beam9.wavelength,
                                     core_depth_hz=4e6)
        assert double == pytest.approx(2.0 * base, rel=1e-12)

    def test_trap_on_a_core_line_refused(self, species):
        # zero detuning from the 369 nm Yb+ line: a ValueError naming the
        # line, not a ZeroDivisionError
        on_line = TweezerBeam(species.core_lines[0][0], WAIST, POWER)
        with pytest.raises(ValueError, match="yb174 core line at 3.69e-07 m"):
            autoionization_coefficient(species, on_line.wavelength,
                                       core_depth(species, on_line, None))

    def test_negative_core_depth_refused(self, species, beam9):
        assert autoionization_coefficient(species, beam9.wavelength,
                                          0.0) == 0.0
        with pytest.raises(ValueError, match="-5e\\+06 Hz"):
            autoionization_coefficient(species, beam9.wavelength,
                                       core_depth_hz=-5e6)

    def test_nan_core_depth_refused(self, species, beam9):
        with pytest.raises(ValueError, match="got nan Hz"):
            autoionization_coefficient(species, beam9.wavelength,
                                       core_depth_hz=np.nan)

    def test_infinite_core_depth_refused(self, species, beam9):
        # an infinite depth once gave an infinite coefficient and rate
        state = RydbergState(species, 75, "3S1")
        with pytest.raises(ValueError, match="must be finite, got inf Hz"):
            autoionization_coefficient(species, beam9.wavelength,
                                       core_depth_hz=np.inf)
        with pytest.raises(ValueError, match="must be finite, got inf Hz"):
            autoionization_rate(state, beam9.wavelength, core_depth_hz=np.inf)

    @pytest.mark.parametrize("wavelength", [0.0, -532e-9, np.nan],
                             ids=["zero", "negative", "nan"])
    def test_nonpositive_wavelength_refused(self, species, wavelength):
        with pytest.raises(ValueError, match="trap wavelength must be "
                           "positive"):
            autoionization_coefficient(species, wavelength, 4e6)
