"""Trap-induced loss models: photoionization fits and autoionization rates.

Photoionization by the trap light adds a decay rate linear in power,
Gamma = Gamma0 + gamma_PI * P; fitting measured lifetimes versus power
separates the zero-power lifetime from the trap-induced part and converts
the slope to a cross section through the focal intensity per watt.

Autoionization of a doubly excited core happens when the trap light
couples the ion-core transition: in the isolated-core approximation the
loss rate is the core transition linewidth gamma' scaled by n*^-3, the
admixture set by the core trap depth over the detuning from each core
line, summed over lines; the caller gives the core depth, as from
potential.core_depth.
"""

import math

from ._tables import finite, read_rows
from .constants import C, HBAR


class InsufficientDataError(ValueError):
    """Too few or degenerate records for the requested fit."""


class LifetimeRecord:
    """One lifetime measurement at a trap power."""

    __slots__ = ("power_w", "lifetime_s", "sigma_s")

    def __init__(self, power_w, lifetime_s, sigma_s=None):
        self.power_w = finite("power_w", power_w)
        self.lifetime_s = finite("lifetime_s", lifetime_s)
        self.sigma_s = None if sigma_s is None else finite("sigma_s", sigma_s)
        if self.power_w < 0 or self.lifetime_s <= 0:
            raise ValueError("power must be >= 0 and lifetime > 0")
        if self.sigma_s is not None and self.sigma_s <= 0:
            raise ValueError("sigma must be positive")

    def __repr__(self):
        return "LifetimeRecord(power_w=%g, lifetime_s=%g, sigma_s=%s)" % (
            self.power_w, self.lifetime_s, self.sigma_s)


def load_lifetime_csv(source):
    """Read records from CSV with header power_mw,lifetime_us[,sigma_us]."""
    return [record for _, record in read_rows(
        source, "lifetime", ("power_mw", "lifetime_us", "sigma_us"),
        lambda power, lifetime, sigma: LifetimeRecord(
            power * 1e-3, lifetime * 1e-6,
            None if sigma is None else sigma * 1e-6))]


class PhotoionizationFit:
    """Linear decay model Gamma0 + gamma_pi * P with fit uncertainties."""

    def __init__(self, gamma0, gamma0_sigma, gamma_pi, gamma_pi_sigma,
                 sigma_pi_m2, sigma_pi_sigma_m2):
        self.gamma0 = gamma0
        self.gamma0_sigma = gamma0_sigma
        self.gamma_pi = gamma_pi
        self.gamma_pi_sigma = gamma_pi_sigma
        self.sigma_pi_m2 = sigma_pi_m2
        self.sigma_pi_sigma_m2 = sigma_pi_sigma_m2

    @property
    def zero_power_lifetime_s(self):
        return 1.0 / self.gamma0

    def rate(self, power_w):
        return self.gamma0 + self.gamma_pi * power_w


def fit_photoionization(records, beam):
    """Weighted linear fit of decay rate versus power; slope to cross section.

    Rates are Gamma_i = 1/tau_i with standard errors propagated from the
    lifetime errors (uniform weights when none are given). The cross
    section assumes the atom samples the focal peak intensity.
    """
    if len(records) < 3:
        raise InsufficientDataError("need at least 3 records, have %d"
                                    % len(records))
    powers = [rec.power_w for rec in records]
    if len(set(powers)) < 3:
        raise InsufficientDataError("need at least 3 distinct powers")
    gamma = [1.0 / rec.lifetime_s for rec in records]
    weighted = all(rec.sigma_s is not None for rec in records)
    if weighted:
        # w = 1/sigma_Gamma^2 with sigma_Gamma = sigma_tau / tau^2; squares
        # are products, which go to inf or 0.0 where ** 2 would raise
        inv_sigma = [rec.lifetime_s * rec.lifetime_s / rec.sigma_s
                     for rec in records]
        w = [x * x for x in inv_sigma]
    else:
        w = [1.0] * len(records)

    # closed-form weighted straight line gamma = a + b P
    sw = math.fsum(w)
    swp = math.fsum(wi * p for wi, p in zip(w, powers))
    swpp = math.fsum(wi * (p * p) for wi, p in zip(w, powers))
    swg = math.fsum(wi * g for wi, g in zip(w, gamma))
    swpg = math.fsum(wi * p * g for wi, p, g in zip(w, powers, gamma))
    det = sw * swpp - swp * swp
    if det <= 0:
        raise InsufficientDataError("degenerate power values")
    a = (swpp * swg - swp * swpg) / det
    b = (sw * swpg - swp * swg) / det
    var_a = swpp / det
    var_b = sw / det
    if not weighted:
        # scale unit-weight covariance by the residual variance
        dof = max(len(records) - 2, 1)
        resid = [g - (a + b * p) for p, g in zip(powers, gamma)]
        s2 = math.fsum(r * r for r in resid) / dof
        var_a *= s2
        var_b *= s2

    # gamma_pi P = sigma_pi I0/(hbar w), with I0/P the peak intensity at 1 W
    to_sigma = HBAR * beam.angular_frequency \
        / beam.with_power(1.0).peak_intensity
    return PhotoionizationFit(a, math.sqrt(var_a), b, math.sqrt(var_b),
                              b * to_sigma, math.sqrt(var_b) * to_sigma)


def trapped_lifetime_reduction(fit, power_w):
    """Fractional lifetime reduction 1 - tau(P)/tau(0) at a power P >= 0."""
    if power_w < 0:
        raise ValueError("trap power must be >= 0, got %g W" % power_w)
    return 1.0 - fit.gamma0 / fit.rate(power_w)


def autoionization_coefficient(species, wavelength_m, core_depth_hz):
    """n*-independent autoionization prefactor: rate = coefficient * n*^-3.

    coefficient = U_core/h * sum_j gamma'_j / Delta_nu_j over the stored
    core transitions, with detunings taken from the frequency of trap
    light of wavelength_m > 0. U_core/h = core_depth_hz, finite and >= 0,
    is given, as by potential.core_depth.
    """
    if not species.core_lines:
        raise ValueError("species %s has no core transition lines"
                         % species.name)
    if not wavelength_m > 0:
        raise ValueError("trap wavelength must be positive, got %g m"
                         % wavelength_m)
    if not 0 <= core_depth_hz < math.inf:
        raise ValueError("core trap depth must be %s, got %g Hz"
                         % ("finite" if core_depth_hz > 0 else ">= 0",
                            core_depth_hz))
    nu_trap = C / wavelength_m
    total = 0.0
    for line_m, gamma_prime in species.core_lines:
        detuning_hz = abs(nu_trap - C / line_m)
        if detuning_hz == 0.0:
            raise ValueError("trap light at %g m is on the %s core line at "
                             "%g m, where the rate diverges"
                             % (wavelength_m, species.name, line_m))
        total += gamma_prime / detuning_hz
    return core_depth_hz * total


def autoionization_rate(state, wavelength_m, core_depth_hz):
    """Autoionization loss rate of a state in trap light of wavelength_m
    (m), s^-1."""
    coeff = autoionization_coefficient(state.species, wavelength_m,
                                       core_depth_hz)
    return coeff / state.n_star ** 3
