"""Gaussian beam optics and the spherical-tensor intensity decomposition."""

import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from numpy.polynomial.legendre import leggauss, legval, legvander
from scipy.special import lpmv

from rydtrap import cli
from rydtrap.angular import Term, reference_m
from rydtrap.beam import (ParaxialValidityWarning, QuadratureConvergenceError,
                          TweezerBeam, _axial_profiles, _chebyshev_moments,
                          _gauss_legendre, _gaussian_profile,
                          _intensity_sums, _lobatto_weights, _product_nodes,
                          _ylm_theta, brute_force_average, decompose)
from rydtrap.constants import A0, C
from rydtrap.potential import RydbergState, _term_angular_density
from rydtrap.radial import (RadialGrid, hydrogen_radial, numerov_radial,
                            radial_integral)

from conftest import (POWER, WAIST, WAVELENGTH, all_radii_average,
                      real_sph_harm, sphere_profiles, ylm_density)


class TestTweezerBeam:
    def test_peak_intensity(self, beam9):
        want = 2.0 * POWER / (np.pi * WAIST**2)
        assert beam9.peak_intensity == pytest.approx(want, rel=1e-12)
        assert beam9.peak_intensity == pytest.approx(1.35611e10, rel=1e-4)

    def test_rayleigh_range(self, beam9):
        want = np.pi * WAIST**2 / WAVELENGTH
        assert beam9.rayleigh_range == pytest.approx(want, rel=1e-12)
        assert beam9.rayleigh_range == pytest.approx(2.49497e-6, rel=1e-4)

    def test_angular_frequency(self, beam9):
        assert beam9.angular_frequency == pytest.approx(
            2.0 * np.pi * C / WAVELENGTH, rel=1e-12)

    def test_radial_profile_at_focus(self, beam9):
        i0 = beam9.peak_intensity
        assert beam9.intensity((0.0, 0.0, 0.0)) == pytest.approx(i0)
        assert beam9.intensity((WAIST, 0.0, 0.0)) == pytest.approx(
            i0 * np.exp(-2.0), rel=1e-12)

    def test_axial_profile(self, beam9):
        i0 = beam9.peak_intensity
        zr = beam9.rayleigh_range
        assert beam9.intensity((0.0, 0.0, zr)) == pytest.approx(
            i0 / 2.0, rel=1e-12)
        assert beam9.intensity((0.0, 0.0, -3 * zr)) == pytest.approx(
            i0 / 10.0, rel=1e-12)

    def test_vectorized_points(self, beam9):
        pts = np.zeros((4, 7, 3))
        pts[..., 2] = np.linspace(0, 1e-6, 28).reshape(4, 7)
        vals = beam9.intensity(pts)
        assert vals.shape == (4, 7)
        assert vals[0, 0] == pytest.approx(beam9.peak_intensity)

    def test_power_scaling(self, beam9):
        double = beam9.with_power(2 * POWER)
        pt = (0.3e-6, -0.2e-6, 0.9e-6)
        assert double.intensity(pt) == pytest.approx(
            2.0 * beam9.intensity(pt), rel=1e-12)

    def test_tight_focus_warns(self):
        with pytest.warns(ParaxialValidityWarning):
            TweezerBeam(532e-9, 650e-9, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TweezerBeam(532e-9, 1500e-9, 1e-3)  # w0 > 2 lambda: no warning

    def test_validation(self):
        with pytest.raises(ValueError):
            TweezerBeam(-1e-9, 650e-9, 1e-3)
        with pytest.raises(ValueError):
            TweezerBeam(532e-9, 650e-9, -2e-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["wavelength", "waist", "power"])
    def test_non_finite_input_refused(self, name, value):
        # a NaN wavelength once gave a finite I0 of 1.5e9 W/m^2, and an
        # infinite waist I0 = 0
        inputs = dict(wavelength=WAVELENGTH, waist=WAIST, power=POWER)
        inputs[name] = value
        with pytest.raises(ValueError, match="finite"):
            TweezerBeam(**inputs)

    def test_field_keeps_its_beam(self, beam9, field9):
        assert field9.beam is beam9


class TestRealSphHarm:
    def test_orthonormality(self):
        from numpy.polynomial.legendre import leggauss
        ct, w_ct = leggauss(24)
        phi = 2.0 * np.pi * np.arange(48) / 48
        w_phi = 2.0 * np.pi / 48
        pairs = [(0, 0), (1, 0), (1, 1), (2, -1), (2, 2), (3, -3), (4, 0)]
        for i, (k1, q1) in enumerate(pairs):
            for k2, q2 in pairs[i:]:
                total = 0.0
                for c, wc in zip(ct, w_ct):
                    y1 = real_sph_harm(k1, q1, c, phi)
                    y2 = real_sph_harm(k2, q2, c, phi)
                    total += wc * w_phi * np.sum(y1 * y2)
                want = 1.0 if (k1, q1) == (k2, q2) else 0.0
                assert total == pytest.approx(want, abs=1e-12)

    def test_explicit_low_orders(self):
        ct = np.array([0.3, -0.8])
        phi = np.array([0.4, 2.0])
        assert real_sph_harm(0, 0, ct, phi) == pytest.approx(
            np.full(2, 1.0 / np.sqrt(4 * np.pi)))
        assert real_sph_harm(1, 0, ct, phi) == pytest.approx(
            np.sqrt(3 / (4 * np.pi)) * ct)
        st = np.sqrt(1 - ct**2)
        assert real_sph_harm(1, 1, ct, phi) == pytest.approx(
            np.sqrt(3 / (4 * np.pi)) * st * np.cos(phi))
        assert real_sph_harm(1, -1, ct, phi) == pytest.approx(
            np.sqrt(3 / (4 * np.pi)) * st * np.sin(phi))

    @pytest.mark.parametrize("l, m, closed_form", [
        (1, 0, lambda c, s: 3 / (4 * np.pi) * c**2),
        (1, 1, lambda c, s: 3 / (8 * np.pi) * s**2),
        (1, -1, lambda c, s: 3 / (8 * np.pi) * s**2),
        (2, 2, lambda c, s: 15 / (32 * np.pi) * s**4),
    ], ids=["l1m0", "l1m1", "l1m-1", "l2m2"])
    def test_ylm_density_closed_forms(self, l, m, closed_form):
        # |Y_lm|^2 is the square of the theta factor, for either sign of m
        ct = np.linspace(-1.0, 1.0, 41)
        st = np.sqrt(1 - ct**2)
        got = _ylm_theta(l, m, ct) ** 2
        assert np.max(np.abs(got - closed_form(ct, st))) < 1e-14

    def test_ylm_theta_matches_scipy_lpmv(self):
        # lpmv builds in the Condon-Shortley (-1)^m, which _ylm_theta leaves
        # out; cancel it and apply the same log normalization
        ct = np.linspace(-1.0, 1.0, 1001)
        assert ct[0] == -1.0 and ct[-1] == 1.0
        for l in range(13):
            for m in range(-l, l + 1):
                am = abs(m)
                lognorm = 0.5 * (np.log((2 * l + 1) / (4.0 * np.pi))
                                 + math.lgamma(l - am + 1)
                                 - math.lgamma(l + am + 1))
                want = (-1.0) ** am * np.exp(lognorm) * lpmv(am, l, ct)
                got = _ylm_theta(l, m, ct)
                assert np.max(np.abs(got - want)) \
                    <= 1e-14 * np.max(np.abs(want)), (l, m)
            for m in (l + 1, -l - 1, l + 3):
                assert np.array_equal(_ylm_theta(l, m, ct),
                                      np.zeros_like(ct))


class TestDecompose:
    def test_monopole_limit_at_origin(self, beam9, field9):
        # f_00 at vanishing radius is the on-axis peak intensity
        assert field9.profiles[0][0] == pytest.approx(
            beam9.peak_intensity, rel=1e-6)

    def test_axisymmetric_q_terms_vanish(self, beam9, sphere9):
        # the (theta, phi) rule computes every (k, q); about the focus the
        # q != 0 terms vanish, and so do the odd ranks, which decompose
        # does not compute: the beam is even in z
        i0 = beam9.peak_intensity
        checked = [kq for kq in sphere9 if kq[1] != 0]
        assert len(checked) == 20
        for k, q in checked + [(1, 0), (3, 0)]:
            assert np.max(np.abs(sphere9[k, q])) < 1e-12 * i0, (k, q)

    def test_on_axis_field_stores_only_q0(self, field9, grid80):
        # one Legendre profile per even rank: neither the q != 0 terms nor
        # the odd ranks are kept
        assert field9.profiles.shape == (3, len(grid80))

    def test_profile_is_a_row_of_the_stack(self, field9):
        assert field9.profiles.flags.c_contiguous

    def test_retained_field_is_one_stack(self, beam9):
        # on the 12,120 points of n = 300 one (3, npts) float64 stack is
        # 0.291 MB; a second copy of it would take the field past 0.58 MB
        grid = RadialGrid.default(303, npoints=12120)
        tracemalloc.start()
        try:
            field = decompose(beam9, grid, k_max=4)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert field.profiles.nbytes == 3 * 12120 * 8
        assert retained <= 0.55e6, retained

    @pytest.mark.parametrize("z", [0.0])
    def test_axial_rule_matches_sphere_rule(self, beam9, grid80, z):
        # the (theta, phi) rule about the focus, (0, 0, z = 0)
        field = decompose(beam9, grid80, k_max=4)
        reference = sphere_profiles(beam9, np.array([0.0, 0.0, z]),
                                    grid80.points * A0, 4, 48, 48)
        for k in (0, 2, 4):
            assert np.max(np.abs(field.profiles[k // 2] - reference[k, 0])) \
                <= 1e-12 * beam9.peak_intensity, k

    @pytest.mark.parametrize("chunk", [7, 40, 1 << 15])
    def test_axial_profiles_in_any_chunking(self, beam9, monkeypatch, chunk):
        # the axial rule sums through the blocked evaluator; the reference
        # is the unblocked sum over the whole (radii, nodes, 3) point array
        monkeypatch.setattr("rydtrap.beam._NODE_CHUNK", chunk)
        r_m = RadialGrid.default(15, npoints=201).points * A0
        ct, w_theta = leggauss(48)
        st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
        nhat = np.stack([st, np.zeros_like(ct), ct], axis=-1)
        wmat = legvander(ct, 4)[:, ::2] * w_theta[:, None] \
            * (np.arange(0, 5, 2) + 0.5)
        pts = r_m[:, None, None] * nhat[None, :, :]
        direct = beam9.intensity(pts) @ wmat
        # a sum taken in another order moves by rounding of its terms
        scale = beam9.intensity(pts) @ np.abs(wmat)
        got = _axial_profiles(beam9, r_m, 4, 48)
        assert got.shape == (3, len(r_m))
        for i in range(3):
            assert np.all(np.abs(got[i] - direct[:, i])
                          <= 1e-13 * scale[:, i]), 2 * i

    def test_memory_bounded_on_cli_grids(self, beam9):
        # the axial rule evaluates the intensity in fixed-size node blocks,
        # so the traced peak barely grows with the grid: 4,000, 5,720 and
        # 12,120 points out to n = 43, 143 and 303
        for n, npoints in ((43, 4000), (143, 5720), (303, 12120)):
            grid = RadialGrid.default(n, npoints=npoints)
            tracemalloc.start()
            try:
                decompose(beam9, grid, k_max=4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5e6, (n, len(grid), peak)

    def test_axial_rule_does_not_use_the_ylm_helper(self, beam9,
                                                    monkeypatch):
        # the oracle's angular densities come from _ylm_theta; the
        # production path must stay independent of it
        def forbidden(*args):
            raise AssertionError("decompose called _ylm_theta")
        monkeypatch.setattr("rydtrap.beam._ylm_theta", forbidden)
        grid = RadialGrid.default(10, npoints=100)
        decompose(beam9, grid, k_max=4)

    def test_reconstruction_matches_direct_intensity(self, beam9, field9):
        # mid-radius sample points, angles off the symmetry axes
        idx = len(field9.grid) // 3
        r_m = field9.grid.points[idx] * A0
        ct = np.array([0.9, 0.5, 0.1, -0.4, -0.95])
        phi = np.array([0.3, 1.2, 2.5, 4.0, 5.5])
        # the Legendre series sum_(k even) f_k(r) P_k(cos theta), for any phi
        coefficients = np.zeros(field9.k_max + 1)
        coefficients[::2] = field9.profiles[:, idx]
        got = legval(ct, coefficients)
        st = np.sqrt(1 - ct**2)
        pts = np.stack([r_m * st * np.cos(phi), r_m * st * np.sin(phi),
                        r_m * ct], axis=-1)
        want = beam9.intensity(pts)
        # rank-4 truncation; agreement to a few permille of peak
        assert np.max(np.abs(got - want)) < 5e-3 * beam9.peak_intensity

    def test_f00_against_1d_quadrature(self, beam9):
        # f_00(r) = (1/2) Int_-1^1 I(r, ct) d ct for the axisymmetric beam
        grid = RadialGrid.default(20, npoints=400)
        field = decompose(beam9, grid, k_max=2)
        for idx in (50, 200, 350):
            r_m = grid.points[idx] * A0

            def slice_intensity(ct):
                st = np.sqrt(1 - ct * ct)
                return beam9.intensity((r_m * st, 0.0, r_m * ct))

            want, _ = quad(slice_intensity, -1.0, 1.0, limit=100)
            assert field.profiles[0][idx] == pytest.approx(
                0.5 * want, rel=1e-8)

    def test_power_linearity(self, beam9, grid80, field9):
        field2 = decompose(beam9.with_power(2 * POWER), grid80, k_max=4)
        f1 = field9.profiles[1]
        f2 = field2.profiles[1]
        assert f2 == pytest.approx(2.0 * f1, rel=1e-12)

    def test_convergence_guard_raises(self, beam9, monkeypatch):
        monkeypatch.setattr("rydtrap.beam._DECOMPOSE_TOL", 1e-18)
        grid = RadialGrid.default(10, npoints=100)
        with pytest.raises(QuadratureConvergenceError):
            decompose(beam9, grid, k_max=4)

    def test_nan_residual_fails(self, beam9):
        # a power made NaN after the beam checked it: the profiles and the
        # residual are NaN, which must fail the check, not pass it
        beam = beam9.with_power(POWER)
        beam.power = math.nan
        with pytest.raises(QuadratureConvergenceError, match="by nan of"):
            decompose(beam, RadialGrid.default(10, npoints=100), k_max=4)

    def test_refinement_residual_kept(self, field9):
        assert 0.0 <= field9.refinement_residual < 1e-6

    def test_kmax_validation(self, beam9):
        grid = RadialGrid.default(10, npoints=100)
        for k_max in (13, 3):
            with pytest.raises(ValueError):
                decompose(beam9, grid, k_max=k_max)


class TestBruteForceAverage:
    def test_matches_tensor_element_for_s_state(self, beam9, field9):
        wf = hydrogen_radial(71, 0, field9.grid)
        direct = brute_force_average(beam9, wf, (0.0, 0.0, 0.0),
                                     ylm_density(0, 0))
        via_tensor = radial_integral(wf, field9.profiles[0])
        assert direct == pytest.approx(via_tensor, rel=1e-9)

    def test_m_dependence_for_p_state(self, beam9, field9):
        from rydtrap.angular import angular_factor
        wf = hydrogen_radial(60, 1, field9.grid)
        avg0 = brute_force_average(beam9, wf, (0.0, 0.0, 0.0),
                                   ylm_density(1, 0))
        avg1 = brute_force_average(beam9, wf, (0.0, 0.0, 0.0),
                                   ylm_density(1, 1))
        e0 = radial_integral(wf, field9.profiles[0])
        e2 = radial_integral(wf, field9.profiles[1])
        # |l=1 m> averages pick up the single-orbital rank-2 factors -+ 2/5
        assert avg0 == pytest.approx(e0 + 0.4 * e2, rel=1e-9)
        assert avg1 == pytest.approx(e0 - 0.2 * e2, rel=1e-9)

    @pytest.mark.parametrize("chunk", [7, 40, 1 << 15])
    def test_intensity_sums_in_any_chunking(self, beam9, monkeypatch, chunk):
        # blocks that split the nodes of a radius (7), that take a few
        # radii but not all (40) or every radius at once give the direct sum
        monkeypatch.setattr("rydtrap.beam._NODE_CHUNK", chunk)
        position = np.array([0.2e-6, -0.1e-6, 0.3e-6])
        r_m = np.linspace(0.0, 1e-6, 23)
        _, _, nhat = _product_nodes(np.linspace(-0.9, 0.9, 5),
                                    np.linspace(0.1, 6.0, 3))
        weights = np.random.default_rng(3).normal(size=(15, 4))
        direct = beam9.intensity(position + r_m[:, None, None] * nhat.T) \
            @ weights
        for w in (weights, weights[:, 0]):
            got = _intensity_sums(beam9, position, r_m, nhat, w)
            assert got.shape == (23,) + w.shape[1:]
            assert np.allclose(got, direct if w.ndim == 2 else direct[:, 0],
                               rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("position", [
        (0.3e-6, -0.2e-6, 0.9e-6), (0.4e-6, 0.3e-6, -0.1e-6)])
    def test_intensity_sums_match_textbook_formula(self, beam9, position):
        # unit weights give each node's intensity; the reference is
        # 2P/(pi w(z)^2) exp(-2 rho^2/w(z)^2) in 80-bit extended precision
        # at the same points p + r nhat, out to the deep tail at 10 um
        position = np.array(position)
        _, _, nhat = _product_nodes(np.linspace(-0.95, 0.95, 7),
                                    0.3 + 2.0 * np.pi * np.arange(5) / 5)
        # a ray back through the axis, where r^2 c2 + r c1 + c0 cancels
        back = np.array([-position[0], -position[1], 0.2e-6])
        back /= np.linalg.norm(back)
        nhat = np.concatenate([nhat, back[:, None]], axis=1)
        crossing = np.hypot(*position[:2]) / np.hypot(*back[:2])
        r_m = np.sort(np.append(np.linspace(0.0, 10e-6, 41), crossing))
        got = _intensity_sums(beam9, position, r_m, nhat,
                              np.eye(nhat.shape[1]))

        ld = np.longdouble
        pi = 4 * np.arctan(ld(1))
        pts = position.astype(ld) + r_m.astype(ld)[:, None, None] \
            * nhat.T.astype(ld)
        rho2 = pts[..., 0]**2 + pts[..., 1]**2
        z_r = pi * ld(WAIST)**2 / ld(WAVELENGTH)
        w2 = ld(WAIST)**2 * (1 + (pts[..., 2] / z_r)**2)
        want = 2 * ld(POWER) / (pi * w2) * np.exp(-2 * rho2 / w2)
        assert want.min() < 1e-190 * beam9.peak_intensity
        assert np.min(rho2) < 1e-26 * WAIST**2

        # an absolute error in the exponent is a relative error in I; the
        # kernel's roundings in it are each within eps of
        # 2 (|p_perp| + r |nhat_perp|)^2/w(z)^2, the size of its terms
        terms = 2.0 * (np.hypot(*position[:2]) + r_m[:, None]
                       * np.hypot(nhat[0], nhat[1]))**2 / w2.astype(float)
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - want) <= 8 * eps * (1 + terms) * want)

    def test_memory_bounded_on_cli_grids(self, beam9):
        # the intensity goes in fixed-size node chunks, so the traced peak
        # does not grow with the grid: on oracle_compare's grids, 4,000
        # points at n = 40, 5,720 at 140
        def oracle_grid(n):
            return RadialGrid.default(n + 3, npoints=max(4000, 40 * (n + 3)))

        peaks = {}
        for n in (40, 140):
            wf = hydrogen_radial(n, 0, oracle_grid(n))
            tracemalloc.start()
            try:
                brute_force_average(beam9, wf, (0.0, 0.0, 0.0),
                                    ylm_density(0, 0))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(oracle_grid(40)) == 4000
        assert len(oracle_grid(140)) == 5720
        assert max(peaks.values()) <= 16e6
        assert peaks[140] <= 1.5 * peaks[40]

    def test_one_intensity_formula(self, beam9, monkeypatch):
        # the kernel and TweezerBeam.intensity both evaluate the Gaussian
        # through _gaussian_profile, so neither can hold a second copy
        calls = []

        def counted(rho2, neg_q):
            calls.append(rho2.shape)
            return _gaussian_profile(rho2, neg_q)

        monkeypatch.setattr("rydtrap.beam._gaussian_profile", counted)
        _, _, nhat = _product_nodes(np.linspace(-0.9, 0.9, 5),
                                    np.linspace(0.1, 6.0, 3))
        r_m = np.linspace(0.0, 1e-6, 23)
        _intensity_sums(beam9, np.zeros(3), r_m, nhat, np.ones(15))
        assert calls == [(23, 15)]
        beam9.intensity(np.zeros((4, 3)))
        assert calls == [(23, 15), (4,)]


def phi_nodes_seen(monkeypatch):
    """The distinct phi angles of the oracle's nodes about its position,
    and the (radius, node) points of each call to the intensity kernel;
    both fill as the oracle runs."""
    seen, points = set(), []
    kernel = _intensity_sums

    def counted(beam, position, r_m, nhat, weights):
        far = np.hypot(nhat[0], nhat[1]) > 1e-9  # phi well defined
        phi = np.arctan2(nhat[1, far], nhat[0, far])
        seen.update(np.round(phi, 6).tolist())
        points.append(len(r_m) * nhat.shape[1])
        return kernel(beam, position, r_m, nhat, weights)

    monkeypatch.setattr("rydtrap.beam._intensity_sums", counted)
    return seen, points


class TestSelfRefiningOracle:
    """The oracle's (theta, phi) rule refines itself and assumes no symmetry."""

    @pytest.fixture(scope="class")
    def grid40(self):
        return RadialGrid.default(43, npoints=40 * 43)

    def test_off_axis_matches_sphere_rule(self, beam9, monkeypatch):
        # displaced along +x the intensity depends on phi: where the first
        # check (8 -> 16 nodes) stops on the axis, phi must refine further
        position = np.array([0.2e-6, 0.0, 0.0])
        grid = RadialGrid.default(63, npoints=40 * 63)
        wf = hydrogen_radial(60, 0, grid)
        seen, _ = phi_nodes_seen(monkeypatch)
        direct = brute_force_average(beam9, wf, position, ylm_density(0, 0))
        assert len(seen) > 16
        reference = sphere_profiles(beam9, position, grid.points * A0,
                                    0, 64, 64)
        assert direct == pytest.approx(
            radial_integral(wf, reference[0, 0]), rel=1e-9)

    def test_phi_density_does_not_alias(self, beam9, grid40, monkeypatch):
        # cos(8 phi) has the period of the first 8 nodes; the rule must see
        # it fail to converge there and refine past 16 nodes
        wf = hydrogen_radial(40, 0, grid40)
        focus = np.zeros(3)
        seen, points = phi_nodes_seen(monkeypatch)
        plain = brute_force_average(beam9, wf, focus, ylm_density(0, 0))
        assert len(seen) == 16  # on the axis phi stops at its first check
        # 32 theta x 16 phi, then 64 x 16: 1,536 nodes at each radial node,
        # 17 at degree 16 and 33 at degree 32
        assert sum(points) == 1536 * (17 + 33)
        seen.clear()
        ripple = brute_force_average(
            beam9, wf, focus,
            angular_density=lambda ct, ph: (1.0 + np.cos(8 * ph))
            / (4.0 * np.pi) * np.ones_like(ct))
        assert len(seen) > 16
        assert ripple == pytest.approx(plain, rel=1e-12)

    def test_independent_of_the_tensor_path(self, beam9, grid40,
                                            monkeypatch):
        # the oracle checks the tensor path, so it must run with every
        # piece of that path broken
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle called the tensor path")
        for name in ("rydtrap.beam._axial_profiles",
                     "numpy.polynomial.legendre.legvander",
                     "rydtrap.angular.angular_factor",
                     "rydtrap.potential.angular_factor",
                     "rydtrap.radial.interpolated_reduced_element",
                     "rydtrap.potential.interpolated_reduced_element"):
            monkeypatch.setattr(name, forbidden)
        term = Term("1D2")
        wf = numerov_radial(38.3, term.L, grid40)
        density = _term_angular_density(term, reference_m(term))
        for position in ((0.0, 0.0, 0.0), (0.2e-6, 0.0, 0.3e-6)):
            avg = brute_force_average(beam9, wf, position,
                                      angular_density=density)
            assert 0.0 < avg < beam9.peak_intensity
        with pytest.raises(AssertionError):
            decompose(beam9, grid40, k_max=4)

    def test_cap_raises_naming_phi(self, beam9, grid40, monkeypatch):
        monkeypatch.setattr("rydtrap.beam._MAX_DOUBLINGS", 1)
        monkeypatch.setattr("rydtrap.beam._ORACLE_TOL", 1e-20)
        wf = hydrogen_radial(40, 0, grid40)
        with pytest.raises(QuadratureConvergenceError,
                           match=r"in phi: .* by \S+ relative \(tol 1e-20\)"):
            brute_force_average(beam9, wf, (0.2e-6, 0.0, 0.0),
                                ylm_density(0, 0))

    def test_cap_raises_naming_theta(self, beam9, grid40, monkeypatch):
        # sin(theta) has a kink at the poles in cos(theta): Gauss-Legendre
        # converges only algebraically, far above the default tol
        monkeypatch.setattr("rydtrap.beam._MAX_DOUBLINGS", 1)
        wf = hydrogen_radial(40, 0, grid40)
        with pytest.raises(QuadratureConvergenceError,
                           match=r"in theta: 64 theta nodes"):
            brute_force_average(
                beam9, wf, (0.0, 0.0, 0.0),
                angular_density=lambda ct, ph: np.sqrt(1.0 - ct * ct)
                / np.pi**2 * np.ones_like(ph))

    def test_cap_raises_naming_r(self, beam9, monkeypatch):
        # at n = 95 the average moves by more than the tol from 17 to 33
        # radial nodes, while on the axis both angles stop at their first
        # check
        monkeypatch.setattr("rydtrap.beam._MAX_DOUBLINGS", 1)
        wf = hydrogen_radial(95, 0, RadialGrid.default(98))
        with pytest.raises(QuadratureConvergenceError,
                           match=r"in r: 33 radial nodes moved the average "
                                 r"by \S+ relative \(tol 1e-10\)"):
            brute_force_average(beam9, wf, (0.0, 0.0, 0.0),
                                ylm_density(0, 0))


class TestRadialNodes:
    """The oracle runs its angular rule at nested Chebyshev-Lobatto radii
    and integrates their interpolant by the grid's Simpson rule."""

    @pytest.mark.parametrize("position", [(0.0, 0.0, 0.0),
                                          (0.2e-6, 0.0, 0.0)],
                             ids=["axis", "off-axis"])
    @pytest.mark.parametrize("n", [40, 95, 150])
    @pytest.mark.parametrize("label", ["3S1", "1D2"])
    def test_matches_the_all_radii_rule(self, beam9, species, label, n,
                                        position):
        # oracle_compare's case: a Numerov wavefunction at n* on its own
        # grid, against the same (theta, phi) rule at every grid radius
        state = RydbergState(species, n, label)
        n_cover = n + 3
        grid = RadialGrid.default(n_cover, npoints=max(4000, 40 * n_cover))
        wf = numerov_radial(state.n_star, state.term.L, grid)
        density = _term_angular_density(state.term, state.M)
        assert brute_force_average(beam9, wf, position, density) \
            == pytest.approx(all_radii_average(beam9, wf, position, density),
                             rel=1e-12, abs=0.0)

    def test_node_count_does_not_grow_with_the_grid(self, beam9,
                                                    monkeypatch):
        counts = []
        for npoints in (40 * 43, 4 * 40 * 43):
            wf = hydrogen_radial(40, 0, RadialGrid.default(43, npoints))
            _, points = phi_nodes_seen(monkeypatch)
            brute_force_average(beam9, wf, (0.0, 0.0, 0.0),
                                ylm_density(0, 0))
            counts.append(sum(points))
        assert counts == [1536 * (17 + 33)] * 2

    def test_weights_integrate_the_interpolant_by_simpson(self):
        # the degree-M weights integrate every polynomial of degree <= M in
        # s = sqrt(r/r_max) as the grid's Simpson rule integrates the
        # density times it
        grid = RadialGrid.default(43, npoints=40 * 43)
        mass = grid.weights * hydrogen_radial(40, 0, grid).density()
        s = np.sqrt(grid.points / grid.r_max)
        moments = list(itertools.islice(_chebyshev_moments(2.0 * s - 1.0,
                                                           mass), 33))
        for degree in (16, 32):
            weights = _lobatto_weights(moments[:degree + 1])
            nodes = 0.5 + 0.5 * np.cos(np.pi * np.arange(degree + 1)
                                       / degree)
            for k in range(degree + 1):
                assert weights @ nodes**k == pytest.approx(
                    mass @ s**k, rel=1e-12, abs=0.0), (degree, k)


class TestGaussLegendre:
    """The axial rule and the oracle read each Gauss-Legendre rule from one
    cache, built once per node count and shared read-only."""

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_bit_equal_to_numpy(self, n):
        for got, want in zip(_gauss_legendre(n), leggauss(n)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_arrays_refuse_writes(self):
        nodes, weights = _gauss_legendre(32)
        for array in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_oracle_check_builds_three_rules(self, monkeypatch, capsys):
        # two states, each a decompose (48 and 32 nodes) and an oracle
        # (32 and 64 theta nodes): eight rules, three distinct
        sizes = []

        def counted(n):
            sizes.append(n)
            return leggauss(n)

        _gauss_legendre.cache_clear()
        monkeypatch.setattr("numpy.polynomial.legendre.leggauss", counted)
        assert cli.main(["oracle-check", "--power", "9mW",
                         "--n", "60", "95"]) == 0
        assert len(json.loads(capsys.readouterr().out)
                   ["data"]["comparisons"]) == 2
        assert sorted(sizes) == [32, 48, 64]
