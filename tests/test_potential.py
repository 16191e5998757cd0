"""Core plus ponderomotive trapping potentials and their state dependence."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rydtrap.angular import angular_factor_exact
from rydtrap.beam import decompose
from rydtrap.constants import AU_POLARIZABILITY, EPS0, C, H, SPECIES_DATA
from rydtrap.potential import (RydbergState, TruncationError, core_depth,
                               core_shift, differential_shift, field_for,
                               ground_depth, oracle_compare,
                               polarizability_shift_hz, pond_prefactor,
                               ponderomotive_shift, power_for_ground_depth,
                               rb87, tensor_splitting, yb174)
from rydtrap.radial import RadialGrid

from conftest import MEASURED_GROUND_DEPTH_HZ


class TestSpeciesPresets:
    def test_yb_polarizability_profiles(self):
        # the preset carries the default profiles; the others stay in the
        # table as reference data
        profiles = SPECIES_DATA["yb174"]
        assert yb174().alpha_core_au == 107.0
        assert profiles["alpha_core_au"]["calculated"] == 96.0
        assert yb174().alpha_ground_au == 275.0
        assert profiles["alpha_ground_au"]["alternative"] == 226.0

    def test_defect_models(self, species):
        # series with a Ritz model evaluates n-dependently
        assert species.defect("3S1", 75) == pytest.approx(4.43881, abs=2e-5)
        assert species.defect("3S1", 40) != species.defect("3S1", 80)
        # flat presets
        assert species.defect("3P2", 74) == 3.923
        assert species.defect("3P0", 74) == 3.44
        with pytest.raises(KeyError):
            species.defect("3F4", 50)

    def test_ritz_model_refused_below_its_range(self, species):
        # fitted over n = 35-80; below n = 20 the model's n* falls as n
        # rises (n = 5 would give n* = 7e11)
        for n in range(1, 20):
            with pytest.raises(ValueError, match=r"n=%d is outside .* 3S1 "
                               r"Ritz model.*\[35, 80\]" % n):
                species.defect("3S1", n)
        assert species.n_star("3S1", 20) == pytest.approx(16.6118, abs=1e-4)
        assert species.n_star("3S1", 21) > species.n_star("3S1", 20)
        # far above its range the model is d0: the slope's (n - d0)^-9
        # underflows to 0 rather than overflowing
        d0 = species.defects["3S1"]["ritz"][0]
        assert species.defect("3S1", 10 ** 45) == pytest.approx(d0, abs=1e-15)

    def test_rb_preset_defects(self):
        rb = rb87()
        assert rb.defect("2S1/2", 60) == pytest.approx(3.1311807, abs=1e-6)

    def test_alpha_core_must_be_positive(self):
        with pytest.raises(ValueError):
            yb174().__class__("x", 1e-25, -5.0, 100.0, 109737.0, 50443.0, {})

    @pytest.mark.parametrize("alpha", [0.0, -50.0, math.inf, math.nan],
                             ids=["zero", "negative", "inf", "nan"])
    def test_polarizability_checked_on_every_read(self, beam9, alpha):
        # a value set on a preset after construction, as --alpha-core and
        # --alpha-ground do, meets the constructor's rule at each reader
        for name, readers in [
                ("alpha_core", [lambda sp: core_shift(sp, beam9),
                                lambda sp: core_depth(sp, beam9, None),
                                lambda sp: core_depth(sp, beam9, 12e6)]),
                ("alpha_ground", [
                    lambda sp: ground_depth(sp, beam9),
                    lambda sp: power_for_ground_depth(sp, beam9, 12e6),
                    lambda sp: core_depth(sp, beam9, None),
                    lambda sp: core_depth(sp, beam9, 12e6)])]:
            species = yb174()
            setattr(species, name + "_au", alpha)
            for read in readers:
                with pytest.raises(ValueError, match="%s of species yb174 "
                                   "must be positive and finite" % name):
                    read(species)


class TestRydbergState:
    def test_effective_quantum_number(self, species):
        state = RydbergState(species, 75, "3S1")
        assert state.n_star == pytest.approx(70.56119, abs=2e-5)
        assert state.l == 0
        assert state.M == 0 and type(state.M) is Fraction

    def test_energy_against_bundled_table(self, species):
        state = RydbergState(species, 75, "3S1")
        assert state.energy_cm1() == pytest.approx(50421.0303, abs=2e-4)

    def test_m_validation(self, species):
        with pytest.raises(ValueError):
            RydbergState(species, 75, "3S1", 2)
        with pytest.raises(ValueError):
            RydbergState(species, 75, "3S1", Fraction(1, 2))

    @pytest.mark.parametrize("m", [Fraction(1, 3), "3/4"],
                             ids=["third", "three-quarters-text"])
    def test_non_half_integer_m_raises(self, species, m):
        with pytest.raises(ValueError, match="invalid for J=2"):
            RydbergState(species, 75, "3P2", m)

    @pytest.mark.parametrize("term, m, message", [
        ("3P2", 3, "M=3 invalid for J=2"),
        ("3S1", Fraction(1, 2), "M=1/2 invalid for J=1"),
        ("1D2", Fraction(1, 4), "M=1/4 invalid for J=2: not a half-integer"),
        ("3P2", "-5/2", "M=-5/2 invalid for J=2"),
    ], ids=["above-J", "wrong-parity", "quarter", "wrong-parity-text"])
    def test_sublevel_rule_is_shared(self, species, term, m, message):
        # RydbergState and angular_factor_exact refuse the same M with the
        # same message
        with pytest.raises(ValueError) as state_error:
            RydbergState(species, 75, term, m)
        with pytest.raises(ValueError) as factor_error:
            angular_factor_exact(term, 2, m)
        assert str(state_error.value) == str(factor_error.value) == message

    def test_low_n_star_rejected(self, species):
        with pytest.raises(ValueError):
            RydbergState(species, 3, "1D2")


class TestScalarShifts:
    def test_pond_prefactor_value(self, beam9):
        assert pond_prefactor(beam9.angular_frequency) == pytest.approx(
            4.234035e-37, rel=1e-5)

    def test_polarizability_shift_formula(self):
        alpha_au, intensity = 50.0, 3e9
        want = -alpha_au * AU_POLARIZABILITY * intensity / (2 * EPS0 * C) / H
        assert polarizability_shift_hz(alpha_au, intensity) == pytest.approx(
            want, rel=1e-12)

    def test_core_and_ground_shift_depths(self, species, beam9):
        core = core_shift(species, beam9)
        ground = -ground_depth(species, beam9)
        assert core == pytest.approx(-6.8012e6, rel=1e-4)
        assert ground == pytest.approx(-17.4797e6, rel=1e-4)
        # both red shifts; ratio is the polarizability ratio
        assert core / ground == pytest.approx(107.0 / 275.0, rel=1e-12)

    def test_operating_power(self, operating_power):
        assert operating_power == pytest.approx(6.1786e-3, rel=1e-4)

    def test_power_for_ground_depth_closed_loop(self, species, beam9,
                                                operating_power):
        reached = ground_depth(species, beam9.with_power(operating_power))
        assert reached == pytest.approx(MEASURED_GROUND_DEPTH_HZ, rel=1e-12)


class TestPonderomotiveShift:
    def test_75_3s1_total(self, species, field9):
        state = RydbergState(species, 75, "3S1")
        total = ponderomotive_shift(state, field9)
        assert type(total) is float
        assert total == pytest.approx(5.352893e6, rel=1e-5)

    def test_truncation_error_and_override(self, species, beam9):
        grid = RadialGrid.default(73, npoints=1500)
        low_field = decompose(beam9, grid, k_max=2)
        state = RydbergState(species, 70, "1D2")
        with pytest.raises(TruncationError):
            ponderomotive_shift(state, low_field)

    def test_axis_angle_scales_rank2_by_legendre(self, species, field9):
        # 3P2 couples to ranks 0 and 2 only, so U(beta) = U_0 + P_2(cos beta)
        # U_2; at the magic angle P_2 = 0, so U(90 deg) - U(beta_m) is
        # P_2(0) = -1/2 times U(0) - U(beta_m)
        magic = math.degrees(math.acos(1.0 / math.sqrt(3.0)))
        for m in (2, 0):
            state = RydbergState(species, 70, "3P2", m)
            at_magic = ponderomotive_shift(state, field9, magic)
            upright = ponderomotive_shift(state, field9, 0.0) - at_magic
            tilted = ponderomotive_shift(state, field9, 90.0) - at_magic
            assert tilted == pytest.approx(-0.5 * upright, rel=1e-12), m


class TestFieldFor:
    def test_grid_rank_and_rows(self, species, beam9):
        # the grid covers the largest n + 3 at 10 points per n, the rank is
        # the highest the terms couple to, and every bracket row is filled
        states = [RydbergState(species, 40, "3S1"),
                  RydbergState(species, 60, "1D2")]
        field = field_for(beam9, states)
        assert np.array_equal(field.grid.points,
                              RadialGrid.default(63, npoints=630).points)
        assert field.k_max == 4
        assert set(field.element_cache) == {
            (n, s.l) for s in states
            for n in range(int(s.n_star) - 1, int(s.n_star) + 3)}

    @pytest.mark.parametrize("n, defects, message", [
        (160, None, r"n\* = 155\.562 at l=0 needs integer n up to 157, "
                    r"past the hydrogenic cap n <= 150"),
        (6, {"3S1": 4.44}, r"n\* = 1\.560 too low for a 4-point bracket "
                           r"at l=0"),
    ], ids=["past-the-cap", "too-low"])
    def test_refuses_a_state_before_it_allocates(self, beam9, n, defects,
                                                 message, monkeypatch):
        species = yb174()
        if defects is not None:
            species.defects = defects
        states = [RydbergState(species, 40, "3S1"),
                  RydbergState(species, n, "3S1")]

        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")
        monkeypatch.setattr(RadialGrid, "default", no_grid)
        with pytest.raises(ValueError, match=message):
            field_for(beam9, states)


class TestTrapDepth:
    def test_75_3s1_depth_and_ratio(self, species, field9):
        pond = ponderomotive_shift(RydbergState(species, 75, "3S1"), field9)
        depth = -(core_shift(species, field9.beam) + pond)
        ratio = depth / ground_depth(species, field9.beam)
        assert depth == pytest.approx(1.44832e6, rel=1e-4)
        assert ratio == pytest.approx(0.082857, rel=1e-4)


class TestTensorSplitting:
    def test_74_3p2_spread_at_operating_point(self, species, field_op):
        shifts = tensor_splitting(RydbergState(species, 74, "3P2"),
                                  field_op, axis_angle_deg=90.0)
        spread = max(shifts.values()) - min(shifts.values())
        assert spread == pytest.approx(356.52e3, rel=1e-3)
        # the whole manifold, whichever sublevel the state is in
        assert tensor_splitting(RydbergState(species, 74, "3P2", -1),
                                field_op, axis_angle_deg=90.0) == shifts

    def test_m_squared_pattern_and_zero_sum(self, species, field_op):
        shifts = tensor_splitting(RydbergState(species, 74, "3P2"),
                                  field_op, axis_angle_deg=90.0)
        assert sum(shifts.values()) == pytest.approx(0.0, abs=1e-6)
        for m, value in shifts.items():
            assert value == pytest.approx(shifts[-m], rel=1e-12)
        # shift must be linear in M^2 for a rank-2 dominated manifold
        assert all(type(m) is Fraction for m in shifts)
        m2 = {abs(int(m)): v for m, v in shifts.items()}
        slope = (m2[2] - m2[1]) / (4 - 1)
        assert m2[1] - m2[0] == pytest.approx(slope, rel=1e-6)

    def test_scalar_term_has_no_splitting(self, species, field_op):
        shifts = tensor_splitting(RydbergState(species, 75, "3S1"), field_op)
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in shifts.values())


class TestDifferentialShift:
    def test_antisymmetry_and_self(self, species, field_op):
        a = RydbergState(species, 75, "3S1")
        b = RydbergState(species, 74, "3P0")
        dab = differential_shift(a, b, field_op)
        dba = differential_shift(b, a, field_op)
        assert dab == pytest.approx(-dba, rel=1e-12)
        assert differential_shift(a, a, field_op) == 0.0

    def test_magic_pair_value(self, species, field_op):
        a = RydbergState(species, 75, "3S1")
        b = RydbergState(species, 74, "3P0")
        assert differential_shift(a, b, field_op) == pytest.approx(
            -492.8, rel=2e-3)

    def test_core_term_cancels_in_differential(self, beam9, grid80):
        # any core polarizability gives the same differential
        field = decompose(beam9, grid80, k_max=4)
        values = []
        for alpha in (107.0, 96.0):
            sp = yb174()
            sp.alpha_core_au = alpha
            a = RydbergState(sp, 75, "3S1")
            b = RydbergState(sp, 74, "3S1")
            values.append(differential_shift(a, b, field))
        assert values[0] == pytest.approx(values[1], rel=1e-12)

    def test_species_mismatch_raises(self, species, field_op):
        a = RydbergState(species, 75, "3S1")
        b = RydbergState(rb87(), 75, "2S1/2")
        with pytest.raises(ValueError):
            differential_shift(a, b, field_op)


class TestOracleCompare:
    def test_grid_does_not_depend_on_field_grid(self, species, beam9,
                                                field9, monkeypatch):
        # the Numerov wavefunction gets the same grid whatever the field's:
        # sqrt spaced to n + 3 at max(4000, 40 (n + 3)) points
        seen = []

        def brute(beam, wf, position, angular_density):
            seen.append(wf.grid.points)
            return 1.0

        monkeypatch.setattr("rydtrap.potential.brute_force_average", brute)
        for n, npoints in ((60, 4000), (78, 4000), (140, 5720)):
            state = RydbergState(species, n, "3S1")
            coarse = RadialGrid.default(n + 3, npoints=10 * (n + 3))
            fields = [decompose(beam9, coarse, k_max=0)]
            if field9.grid.covers(n + 2):
                fields.append(field9)
            for field in fields:
                oracle_compare(state, field)
            want = RadialGrid.default(n + 3, npoints=npoints).points
            assert len(seen) == len(fields)
            assert all(np.array_equal(points, want) for points in seen)
            seen.clear()
