"""Series-energy ingestion, defect fits, threshold fit, pair-channel defects."""

import io

import numpy as np
import pytest

from rydtrap import spectroscopy
from rydtrap.constants import CM1_TO_MHZ
from rydtrap.potential import RydbergState, yb174
from rydtrap.spectroscopy import (EnergyRecord, FitConvergenceError,
                                  RitzModel, bundled_energy_path,
                                  defect_from_energy, fit_ritz, fit_threshold,
                                  forster_defect, load_energy_csv, ritz_delta)

RY_CM1 = 109736.96959
EI_CM1 = 50443.07074


@pytest.fixture(scope="module")
def records():
    return load_energy_csv(bundled_energy_path())


class TestLoading:
    def test_bundled_table_shape(self, records):
        ns = [r.n for r in records]
        assert ns[0] == 28 and ns[-1] == 100
        assert ns == sorted(ns)
        assert len(set(ns)) == len(ns)
        energies = [r.energy_cm1 for r in records]
        assert all(b > a for a, b in zip(energies, energies[1:]))
        assert all(r.sigma_mhz == 4.0 for r in records)

    def test_known_rows(self, records):
        table = {r.n: r.energy_cm1 for r in records}
        assert table[49] == pytest.approx(50387.8079, abs=1e-6)
        assert table[75] == pytest.approx(50421.0303, abs=1e-6)
        assert table[100] == pytest.approx(50431.0545, abs=1e-6)

    def test_stream_input_with_comments(self):
        text = "# comment\nn,energy_cm1\n50,50390.0\n40,50350.0\n"
        recs = load_energy_csv(io.StringIO(text))
        assert [r.n for r in recs] == [40, 50]

    def test_duplicate_n_rejected(self):
        text = "n,energy_cm1\n50,50390.0\n50,50390.1\n"
        with pytest.raises(ValueError):
            load_energy_csv(io.StringIO(text))

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            load_energy_csv(io.StringIO("level,value\n50,50390.0\n"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["energy_cm1", "sigma_mhz"])
    def test_non_finite_record_names_field(self, field, value):
        kw = dict(n=50, energy_cm1=50390.0, sigma_mhz=10.0)
        kw[field] = value
        with pytest.raises(ValueError, match="%s must be finite, got %r"
                           % (field, value)):
            EnergyRecord(**kw)

    @pytest.mark.parametrize("n, message", [
        (40.7, "n must be an integer, got 40.7"),
        (np.inf, "n must be finite, got inf"),
        (np.nan, "n must be finite, got nan"),
        ("forty", "n must be a number, got 'forty'")],
        ids=["fraction", "inf", "nan", "text"])
    def test_non_integer_n_names_n(self, n, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            EnergyRecord(n, 50390.0)
        assert EnergyRecord(40.0, 50390.0).n == 40


class TestDefectEvaluation:
    def test_defect_from_energy_reference_point(self):
        rec = EnergyRecord(75, 50421.0303)
        delta = defect_from_energy(rec, EI_CM1, RY_CM1)
        assert delta == pytest.approx(4.4388, abs=2e-4)

    def test_hydrogenic_zero_defect(self):
        energy = EI_CM1 - RY_CM1 / 60.0**2
        # cancellation in n - sqrt(Ry/(E_I - E)) leaves ~1e-12 of roundoff
        assert defect_from_energy(EnergyRecord(60, energy), EI_CM1, RY_CM1) \
            == pytest.approx(0.0, abs=1e-10)

    def test_energy_above_threshold_rejected(self):
        with pytest.raises(ValueError):
            defect_from_energy(EnergyRecord(60, EI_CM1 + 1.0), EI_CM1, RY_CM1)

    def test_ritz_delta_vectorized(self):
        params = [4.4382, 6.0, -1.8e4]
        n = np.array([40, 75, 100])
        vals = ritz_delta(params, n)
        assert vals.shape == (3,)
        single = ritz_delta(params, 75)
        assert single == pytest.approx(vals[1])
        denom = (75.0 - 4.4382) ** 2
        want = 4.4382 + 6.0 / denom - 1.8e4 / denom**2
        assert single == pytest.approx(want, rel=1e-12)
        # a scalar n takes a float path without numpy: the same operations,
        # so it returns a float equal to the array element to the last bit
        ns = [40.0, 57.3, 75, 99.71]
        for n_scalar, element in zip(ns, ritz_delta(params, np.array(ns))):
            got = ritz_delta(params, n_scalar)
            assert type(got) is float
            assert got == element


class TestRitzFit:
    def test_synthetic_exact_recovery(self):
        true = [4.44, 5.0, -1.5e4]
        ns = np.arange(35, 81)
        deltas = ritz_delta(true, ns)
        recs = [EnergyRecord(int(n), EI_CM1 - RY_CM1 / (n - d) ** 2)
                for n, d in zip(ns, deltas)]
        model = fit_ritz(recs, order=4, ionization_cm1=EI_CM1,
                         rydberg_cm1=RY_CM1)
        assert model.params[0] == pytest.approx(true[0], abs=1e-8)
        assert model.params[1] == pytest.approx(true[1], rel=1e-6)
        assert model.rms_residual_mhz() < 1e-6

    def test_bundled_fit_window(self, records):
        model = fit_ritz(records, fit_range=(35, 80), ionization_cm1=EI_CM1,
                         rydberg_cm1=RY_CM1)
        assert model.params[0] == pytest.approx(4.4384, abs=3e-4)
        assert model.rms_residual_mhz() < 2.0
        unc = model.uncertainties
        assert unc is not None and 0 < unc[0] < 1e-3

    def test_model_energy_round_trip(self, records):
        model = fit_ritz(records, fit_range=(35, 80), ionization_cm1=EI_CM1,
                         rydberg_cm1=RY_CM1)
        by_n = {r.n: r.energy_cm1 for r in records}
        for n in (40, 60, 75):
            dev_mhz = (model.energy_cm1(n) - by_n[n]) * CM1_TO_MHZ
            assert abs(dev_mhz) < 4.0

    def test_noisy_recovery_within_uncertainty(self, records):
        rng = np.random.default_rng(3)
        noisy = [EnergyRecord(r.n, r.energy_cm1
                              + rng.normal(0.0, 4.0) / CM1_TO_MHZ)
                 for r in records]
        clean = fit_ritz(records, fit_range=(35, 80), ionization_cm1=EI_CM1,
                         rydberg_cm1=RY_CM1)
        pert = fit_ritz(noisy, fit_range=(35, 80), ionization_cm1=EI_CM1,
                        rydberg_cm1=RY_CM1)
        pull = abs(pert.params[0] - clean.params[0]) / pert.uncertainties[0]
        assert pull < 5.0

    def test_insufficient_data_rejected(self):
        recs = [EnergyRecord(50, 50390.0), EnergyRecord(51, 50391.0)]
        with pytest.raises(ValueError):
            fit_ritz(recs, order=8, ionization_cm1=EI_CM1, rydberg_cm1=RY_CM1)


class TestThresholdFit:
    def test_flat_window_recovers_threshold(self, records):
        model = fit_threshold(records, fit_range=(60, 80), rydberg_cm1=RY_CM1)
        off_mhz = (model.ionization_cm1 - EI_CM1) * CM1_TO_MHZ
        assert abs(off_mhz) < 5.0
        assert model.threshold_sigma_cm1 * CM1_TO_MHZ < 10.0
        assert model.params[0] == pytest.approx(4.4388, abs=5e-4)

    def test_offset_invariance(self, records):
        shift = 0.5  # cm^-1 applied to every level
        shifted = [EnergyRecord(r.n, r.energy_cm1 + shift) for r in records]
        base = fit_threshold(records, fit_range=(60, 80), rydberg_cm1=RY_CM1)
        moved = fit_threshold(shifted, fit_range=(60, 80), rydberg_cm1=RY_CM1)
        assert moved.ionization_cm1 - base.ionization_cm1 == pytest.approx(
            shift, abs=1e-9)
        assert moved.params[0] == pytest.approx(base.params[0], abs=1e-9)

    def test_threshold_sigma_is_a_model_field(self, records):
        model = fit_threshold(records, fit_range=(60, 80), rydberg_cm1=RY_CM1)
        assert model.threshold_sigma_cm1 > 0.0
        assert model.covariance is None
        # a model with a fixed threshold has no threshold uncertainty
        assert RitzModel([4.4], EI_CM1, RY_CM1).threshold_sigma_cm1 is None


# the quick-cli windows of perfbench (ritz-fit --range a:a+40, threshold-fit
# --range a:a+20) and the bundled default window of each command
RITZ_WINDOWS = [(a, a + 40) for a in range(30, 41)] + [None]
THRESHOLD_WINDOWS = [(a, a + 20) for a in range(55, 66)] + [None]


class TestMinpackCore:
    def test_bit_equal_to_least_squares(self, records, monkeypatch):
        # the oracle: scipy.optimize.least_squares(method="lm") runs the
        # same MINPACK lmder; a scipy whose private _lmder signature or
        # arithmetic changed fails here
        from scipy.optimize import least_squares
        own = spectroscopy._least_squares
        compared = []

        def both(residuals, x0, jacobian, name):
            x, cov = own(residuals, x0, jacobian, name)
            ref = least_squares(residuals, x0, jac=jacobian, method="lm",
                                xtol=1e-14, ftol=1e-14, gtol=1e-14)
            assert ref.success, ref.message
            jac = jacobian(ref.x)
            assert np.array_equal(x, ref.x)
            assert np.array_equal(cov, np.linalg.inv(jac.T @ jac))
            compared.append(name)
            return x, cov

        monkeypatch.setattr(spectroscopy, "_least_squares", both)
        yb = yb174()
        for window in RITZ_WINDOWS:
            fit_ritz(records, fit_range=window,
                     ionization_cm1=yb.ionization_cm1,
                     rydberg_cm1=yb.rydberg_cm1)
        for window in THRESHOLD_WINDOWS:
            fit_threshold(records, fit_range=window,
                          rydberg_cm1=yb.rydberg_cm1)
        assert compared == ["Ritz"] * 12 + ["threshold"] * 12

    @pytest.mark.parametrize("info, meaning", [
        (0, "improper input parameters"),
        (5, "the residuals were evaluated maxfev times")],
        ids=["info-0", "info-5"])
    def test_failed_exit_code_raises(self, records, lmder_exit, info,
                                     meaning):
        lmder_exit(info)
        with pytest.raises(FitConvergenceError) as exc:
            fit_ritz(records, fit_range=(35, 75), ionization_cm1=EI_CM1,
                     rydberg_cm1=RY_CM1)
        fvec = lmder_exit.report["fvec"]
        assert str(exc.value) == (
            "Ritz fit did not converge: MINPACK info %d (%s) after %d "
            "residual evaluations, cost %.6g" % (
                info, meaning, lmder_exit.report["nfev"],
                0.5 * float(fvec @ fvec)))

    def test_non_finite_start_is_value_error(self):
        # n = 40 lies 1e305 cm-1 below the rest: its residual overflows
        recs = [EnergyRecord(40, -1e305)] + [
            EnergyRecord(n, EI_CM1 - RY_CM1 / (n - 4.44) ** 2)
            for n in range(41, 47)]
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="threshold fit: residuals are not finite "
                                  "at the starting point"):
            fit_threshold(recs, rydberg_cm1=RY_CM1)


class TestForsterDefect:
    def test_reference_channel(self, species):
        pair_in = [RydbergState(species, 80, "3S1")] * 2
        pair_out = [RydbergState(species, 80, "3P2"),
                    RydbergState(species, 79, "3P2")]
        defect = forster_defect(pair_in, pair_out)
        assert defect == pytest.approx(-330.2, rel=1e-3)

    def test_antisymmetry_and_identity(self, species):
        pair_in = [RydbergState(species, 80, "3S1")] * 2
        pair_out = [RydbergState(species, 80, "3P2"),
                    RydbergState(species, 79, "3P2")]
        assert forster_defect(pair_in, pair_out) == pytest.approx(
            -forster_defect(pair_out, pair_in), rel=1e-12)
        assert forster_defect(pair_in, pair_in) == 0.0

    def test_hydrogenic_closed_form(self):
        from rydtrap.potential import AtomicSpecies
        hyd = AtomicSpecies(name="test", mass_kg=1e-25, alpha_core_au=1.0,
                            alpha_ground_au=None, rydberg_cm1=RY_CM1,
                            ionization_cm1=EI_CM1, defects={"2S1/2": 0.0})
        n = 60
        states = {m: RydbergState(hyd, m, "2S1/2") for m in (n - 1, n, n + 1)}
        got = forster_defect([states[n]] * 2,
                             [states[n + 1], states[n - 1]])
        want = RY_CM1 * (1.0 / (n + 1) ** 2 + 1.0 / (n - 1) ** 2
                         - 2.0 / n**2) * CM1_TO_MHZ
        # small difference of ~5e4 cm^-1 energies: ~1e-11 relative floor
        assert got == pytest.approx(want, rel=1e-9)
