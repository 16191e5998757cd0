"""Shared fixtures: the standard tweezer, its tensor decomposition, species,
the (theta, phi) product rule the axial decomposition is checked against,
and the all-radii 3D quadrature the oracle's radial rule is checked
against."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from rydtrap import spectroscopy
from rydtrap.beam import (_MAX_DOUBLINGS, _ORACLE_TOL, _PHI_OFFSET,
                          _PHI_START, _THETA_START, TweezerBeam,
                          _gauss_legendre, _intensity_sums, _product_nodes,
                          _ylm_theta, decompose)
from rydtrap.constants import A0
from rydtrap.potential import yb174, power_for_ground_depth
from rydtrap.radial import RadialGrid

# standard tweezer: 532 nm, 650 nm waist, 9 mW per trap
WAVELENGTH = 532e-9
WAIST = 650e-9
POWER = 9e-3
# measured ground-state depth at that power, used to calibrate the intensity
MEASURED_GROUND_DEPTH_HZ = 12e6


def real_sph_harm(k, q, cos_theta, phi):
    """Orthonormal real spherical harmonic Y~_kq(theta, phi).

    q = 0 is the usual zonal harmonic; q > 0 carries cos(q phi), q < 0
    carries sin(|q| phi), both with the sqrt(2) real-basis normalization.
    Signs follow the real-basis convention (no Condon-Shortley phase), so
    Y~_11 is positive along +x.
    """
    base = _ylm_theta(k, q, cos_theta)
    if q == 0:
        return base * np.ones_like(phi)
    if q > 0:
        return np.sqrt(2.0) * base * np.cos(q * phi)
    return np.sqrt(2.0) * base * np.sin(-q * phi)


def ylm_density(l, m):
    """|Y_lm|^2 as the angular_density(cos_theta, phi) that
    brute_force_average takes."""
    def density(cos_theta, phi):
        return _ylm_theta(l, m, cos_theta) ** 2 * np.ones_like(phi)
    return density


def sphere_profiles(beam, position, r_m, k_max, n_theta, n_phi):
    """All (k, q) profiles about any point, by a (theta, phi) product rule.

    Gauss-Legendre in cos(theta) times a trapezoid in phi, in the
    real-harmonic convention I = sum f_kq sqrt(4 pi/(2k+1)) Y~_kq, so that
    f_k0 is decompose's f_k. A dict keyed by (k, q).
    """
    cos_theta, w_theta = leggauss(n_theta)
    ct, ph, nhat = _product_nodes(cos_theta,
                                  2.0 * np.pi * np.arange(n_phi) / n_phi)
    weights = np.repeat(w_theta, n_phi) * (2.0 * np.pi / n_phi)
    # columns: one weighted real harmonic per (k, q), scaled so that the
    # angular sum gives f_kq directly
    kq_list = [(k, q) for k in range(k_max + 1) for q in range(-k, k + 1)]
    wmat = np.empty((len(ct), len(kq_list)))
    for i, (k, q) in enumerate(kq_list):
        scale = np.sqrt((2 * k + 1) / (4.0 * np.pi))
        wmat[:, i] = scale * real_sph_harm(k, q, ct, ph) * weights
    block = _intensity_sums(beam, position, r_m, nhat, wmat)
    return {kq: block[:, i].copy() for i, kq in enumerate(kq_list)}


def all_radii_average(beam, wf, position, angular_density):
    """brute_force_average with the (theta, phi) rule at every grid radius.

    The same self-refining product rule, from the same node counts, with
    the same checks, but the angular sums are taken at every radius of
    wf's grid and integrated by the grid's Simpson rule: the oracle's
    rule before its radial nodes, kept as their reference.
    """
    position = np.asarray(position, dtype=float)
    r_m = wf.grid.points * A0
    radial_density = wf.density()
    floor = max(beam.peak_intensity * 1e-12, 1e-300)

    def average(sums, n_phi):
        return wf.grid.integrate(radial_density * sums) \
            * (2.0 * np.pi / n_phi)

    def converged(value, previous):
        return abs(value - previous) <= _ORACLE_TOL * max(abs(value), floor)

    def node_sums(cos_theta, w_theta, phi):
        ct, ph, nhat = _product_nodes(cos_theta, phi)
        weights = np.repeat(w_theta, len(phi)) * angular_density(ct, ph)
        return _intensity_sums(beam, position, r_m, nhat, weights)

    def phi_refined(n_theta):
        cos_theta, w_theta = _gauss_legendre(n_theta)
        n_phi = _PHI_START
        sums = node_sums(cos_theta, w_theta, _PHI_OFFSET
                         + 2.0 * np.pi * np.arange(n_phi) / n_phi)
        value = average(sums, n_phi)
        for _ in range(_MAX_DOUBLINGS):
            sums += node_sums(cos_theta, w_theta, _PHI_OFFSET
                              + 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi)
            n_phi *= 2
            previous, value = value, average(sums, n_phi)
            if converged(value, previous):
                return value
        raise AssertionError("reference not converged in phi")

    n_theta, value = _THETA_START, phi_refined(_THETA_START)
    for _ in range(_MAX_DOUBLINGS):
        n_theta *= 2
        previous, value = value, phi_refined(n_theta)
        if converged(value, previous):
            return value
    raise AssertionError("reference not converged in theta")


@pytest.fixture(scope="session")
def species():
    return yb174()


@pytest.fixture(scope="session")
def beam9():
    return TweezerBeam(WAVELENGTH, WAIST, POWER)


@pytest.fixture(scope="session")
def grid80():
    # covers wavefunctions up to n = 83, at 40 points per n and no fewer
    # than 4000 (the field commands use 10 points per n)
    return RadialGrid.default(83, npoints=max(4000, 40 * 83))


@pytest.fixture(scope="session")
def field9(beam9, grid80):
    return decompose(beam9, grid80, k_max=4)


@pytest.fixture(scope="session")
def sphere9(beam9, grid80):
    """Every (k, q) profile about the focus, k <= 4, from the (theta, phi)
    rule at the 48 x 48 nodes decompose refines to: the reference for the
    axial rule, which stores only q = 0."""
    return sphere_profiles(beam9, np.zeros(3), grid80.points * A0, 4, 48, 48)


@pytest.fixture(scope="session")
def operating_power(species, beam9):
    """Power at which the model ground depth equals the measured 12 MHz."""
    return power_for_ground_depth(species, beam9, MEASURED_GROUND_DEPTH_HZ)


@pytest.fixture(scope="session")
def field_op(beam9, grid80, operating_power):
    return decompose(beam9.with_power(operating_power), grid80, k_max=4)


@pytest.fixture
def lmder_exit(monkeypatch):
    """Make MINPACK's lmder return a chosen exit code: the real core runs
    the fit, and its (x, report) comes back with info replaced. Returns
    the setter; the last report is in setter.report."""
    core = spectroscopy._minpack()

    def set_info(info):
        def lmder(*args):
            x, set_info.report, _ = core._lmder(*args)
            return x, set_info.report, info
        monkeypatch.setattr(spectroscopy, "_minpack",
                            lambda: SimpleNamespace(_lmder=lmder))
    return set_info
