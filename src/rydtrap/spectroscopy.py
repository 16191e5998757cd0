"""Rydberg-series spectroscopy: quantum-defect fits and pair-state energetics.

Measured series energies follow E(n) = E_I - Ry/(n - delta(n))^2 with the
defect expanded in the extended Ritz form
delta(n) = d0 + d2/(n-d0)^2 + d4/(n-d0)^4 + ..., the d0 inside the
denominators kept self-consistent with the leading coefficient. Fits are
weighted Levenberg-Marquardt with an analytic Jacobian in the expansion
coefficients; the ionization threshold can be fit jointly on a high-n
window. Pair-state Foerster defects come from the same energy model.
The Ritz fit runs MINPACK's lmder from scipy's compiled extension
scipy/optimize/_minpack, loaded by file the first time the fit runs: it
imports scipy's top-level package but never runs scipy.optimize's
__init__, and importing this module loads no scipy at all. The threshold
fit has one nonlinear parameter, the defect, and runs in plain float
arithmetic: it loads neither numpy nor scipy.
"""

import math
from collections import namedtuple
from functools import cache

from ._numpy import np
from ._tables import finite, read_rows
from .constants import CM1_TO_MHZ

DEFAULT_SIGMA_MHZ = 4.0


class FitConvergenceError(RuntimeError):
    """Least-squares fit failed to converge."""


class EnergyRecord:
    """One measured level: principal quantum number, energy, uncertainty."""

    __slots__ = ("n", "energy_cm1", "sigma_mhz")

    def __init__(self, n, energy_cm1, sigma_mhz=DEFAULT_SIGMA_MHZ):
        n = finite("n", n)
        if not n.is_integer():
            raise ValueError("n must be an integer, got %r" % n)
        self.n = int(n)
        self.energy_cm1 = finite("energy_cm1", energy_cm1)
        self.sigma_mhz = finite("sigma_mhz", sigma_mhz)
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.sigma_mhz <= 0:
            raise ValueError("sigma must be positive")

    def __repr__(self):
        return "EnergyRecord(n=%d, energy_cm1=%.4f, sigma_mhz=%g)" % (
            self.n, self.energy_cm1, self.sigma_mhz)


def load_energy_csv(source):
    """Records sorted by n, from CSV with header n,energy_cm1[,sigma_mhz]."""
    records = []
    seen = set()
    for line, record in read_rows(
            source, "energy", ("n", "energy_cm1", "sigma_mhz"),
            lambda n, energy, sigma: EnergyRecord(
                n, energy, DEFAULT_SIGMA_MHZ if sigma is None else sigma)):
        if record.n in seen:
            raise ValueError("energy file line %d: duplicate n=%d"
                             % (line, record.n))
        seen.add(record.n)
        records.append(record)
    records.sort(key=lambda rec: rec.n)
    return records


def bundled_energy_path():
    """Filesystem path of the shipped Yb-174 3S1 series energy table."""
    from importlib.resources import files
    return str(files("rydtrap.data").joinpath("yb174_3s1_energies.csv"))


def ritz_delta(params, n):
    """delta(n) for Ritz coefficients [d0, d2, d4, ...] at a float or array n.

    A float n with a list of params gives a float and touches no numpy.
    With d0 alone the result is d0 itself, which broadcasts against n.
    """
    delta, pw = params[0], 1.0
    gap = n - params[0]
    x = 1.0 / (gap * gap)
    for coeff in params[1:]:
        pw = pw * x
        delta = delta + coeff * pw
    return delta


def defect_from_energy(record, ionization_cm1, rydberg_cm1):
    """delta = n - sqrt(Ry/(E_I - E)); requires the level be bound."""
    gap = ionization_cm1 - record.energy_cm1
    if gap <= 0:
        raise ValueError("energy %.4f cm-1 at or above threshold %.4f cm-1"
                         % (record.energy_cm1, ionization_cm1))
    return record.n - math.sqrt(rydberg_cm1 / gap)


class RitzModel:
    """Fitted Ritz expansion with its threshold and series constants.

    params, residuals_mhz and record_n are lists of Python numbers, from
    either fit; only the Ritz fit's covariance is a numpy array.
    """

    def __init__(self, params, ionization_cm1, rydberg_cm1, covariance=None,
                 residuals_mhz=None, record_n=None, threshold_sigma_cm1=None):
        self.params = [float(p) for p in params]
        self.ionization_cm1 = float(ionization_cm1)
        self.rydberg_cm1 = float(rydberg_cm1)
        self.covariance = covariance
        self.residuals_mhz = None if residuals_mhz is None \
            else [float(r) for r in residuals_mhz]
        self.record_n = record_n
        self.threshold_sigma_cm1 = threshold_sigma_cm1

    @property
    def uncertainties(self):
        if self.covariance is None:
            return None
        return np.sqrt(np.diag(self.covariance))

    def energy_cm1(self, n):
        e = _model_energy(self.params, np.asarray(n, dtype=float),
                          self.ionization_cm1, self.rydberg_cm1)
        return e if e.ndim else float(e)

    def rms_residual_mhz(self):
        if self.residuals_mhz is None:
            return None
        return math.sqrt(math.fsum(r * r for r in self.residuals_mhz)
                         / len(self.residuals_mhz))


def _level_energy(ionization_cm1, rydberg_cm1, n_star):
    """E_I - Ry/n*^2, the one formula for a level's energy."""
    return ionization_cm1 - rydberg_cm1 / n_star ** 2


def _model_energy(params, n, ionization_cm1, rydberg_cm1):
    return _level_energy(ionization_cm1, rydberg_cm1,
                         n - ritz_delta(params, n))


def _select(records, fit_range):
    if fit_range is None:
        return list(records)
    lo, hi = fit_range
    return [rec for rec in records if lo <= rec.n <= hi]


# What MINPACK lmder's failing exit codes mean (More, Garbow & Hillstrom,
# ANL-80-74); codes 1-4 are convergence, as in least_squares(method="lm")
_LMDER_FAILURES = {
    0: "improper input parameters",
    5: "the residuals were evaluated maxfev times",
    6: "ftol is too small: the sum of squares cannot be reduced further",
    7: "xtol is too small: x cannot be improved further",
    8: "gtol is too small: the residuals are orthogonal to the Jacobian "
       "columns to machine precision",
}


@cache
def _minpack():
    """scipy's compiled MINPACK extension, without scipy.optimize.

    The module is found by file in scipy's optimize directory and loaded
    under its bare name _minpack, so scipy.optimize's __init__ (0.5 s of
    imports) never runs and no scipy.optimize module enters sys.modules.
    """
    import os
    from importlib.machinery import PathFinder
    from importlib.util import module_from_spec

    import scipy

    spec = PathFinder.find_spec(
        "_minpack", [os.path.join(os.path.dirname(scipy.__file__), "optimize")])
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _least_squares(residuals, x0, jacobian):
    """Levenberg-Marquardt solution of the weighted Ritz fit and its
    covariance.

    This is the call scipy.optimize.least_squares(method="lm") makes, with
    xtol = ftol = gtol = 1e-14, maxfev = 100 n, factor 100 and diag None:
    MINPACK's lmder from scipy's compiled core (see _minpack), so the
    solution is bit-equal to least_squares'. The covariance is inv(J^T J)
    at the solution, None when singular: when inversion fails, or when
    rounding leaves a diagonal entry that is not finite and positive. An
    lmder exit code outside 1-4 raises FitConvergenceError naming the
    code and its meaning, the residual evaluations and the final cost;
    residuals that are not finite at x0 raise ValueError, as
    least_squares does.
    """
    if not np.all(np.isfinite(residuals(x0))):
        raise ValueError("Ritz fit: residuals are not finite at the starting "
                         "point")
    # (fun, jac, x0, args, full_output, col_deriv, ftol, xtol, gtol,
    #  maxfev, factor, diag)
    x, report, info = _minpack()._lmder(
        residuals, jacobian, np.array(x0, dtype=float), (), True, False,
        1e-14, 1e-14, 1e-14, 100 * len(x0), 100.0, None)
    if not 1 <= info <= 4:
        fvec = report["fvec"]
        raise FitConvergenceError(
            "Ritz fit did not converge: MINPACK info %d (%s) after %d "
            "residual evaluations, cost %.6g" % (
                info, _LMDER_FAILURES[info],
                report["nfev"], 0.5 * float(fvec @ fvec)))
    jac = jacobian(x)
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return x, None
    diag = np.diag(cov)
    if not np.all(np.isfinite(diag) & (diag > 0)):
        return x, None
    return x, cov


def fit_ritz(records, order=8, fit_range=None, *, ionization_cm1,
             rydberg_cm1):
    """Weighted fit of the Ritz expansion at fixed ionization threshold.

    order is the highest inverse power retained (order=8 keeps d0..d8,
    five coefficients); fit_range (lo, hi) keeps lo <= n <= hi, None all
    records. The series constants are keyword-only and have no default.
    The Jacobian is analytic in d2..d8; the d0 column is a central
    difference because d0 also enters every denominator.
    """
    if order < 0 or order % 2:
        raise ValueError("order must be a nonnegative even integer")
    used = _select(records, fit_range)
    n_params = 1 + order // 2
    if len(used) < n_params + 1:
        raise ValueError("need at least %d records in range, have %d"
                         % (n_params + 1, len(used)))
    n = np.array([rec.n for rec in used], dtype=float)
    energy = np.array([rec.energy_cm1 for rec in used])
    sigma = np.array([rec.sigma_mhz for rec in used])

    def residuals(params):
        model = _model_energy(params, n, ionization_cm1, rydberg_cm1)
        return (model - energy) * CM1_TO_MHZ / sigma

    def jacobian(params):
        cols = np.empty((len(n), len(params)))
        delta = ritz_delta(params, n)
        dE_ddelta = -2.0 * rydberg_cm1 / (n - delta) ** 3
        step = 1e-7
        p_hi = params.copy(); p_hi[0] += step
        p_lo = params.copy(); p_lo[0] -= step
        cols[:, 0] = (_model_energy(p_hi, n, ionization_cm1, rydberg_cm1)
                      - _model_energy(p_lo, n, ionization_cm1, rydberg_cm1)) \
            / (2 * step)
        for i in range(1, len(params)):
            cols[:, i] = dE_ddelta / (n - params[0]) ** (2 * i)
        return cols * (CM1_TO_MHZ / sigma)[:, None]

    d0_init = defect_from_energy(max(used, key=lambda rec: rec.n),
                                 ionization_cm1, rydberg_cm1)
    x0 = np.zeros(n_params)
    x0[0] = d0_init
    params, cov = _least_squares(residuals, x0, jacobian)
    res_mhz = (_model_energy(params, n, ionization_cm1, rydberg_cm1)
               - energy) * CM1_TO_MHZ
    return RitzModel(params, ionization_cm1, rydberg_cm1, covariance=cov,
                     residuals_mhz=res_mhz, record_n=[rec.n for rec in used])


# the most steps the threshold fit may try; fits to windows of the bundled
# table take 8 to 16
_THRESHOLD_ITERATIONS = 100

# one d0 of the threshold fit: its best E_I, the n* and the binding
# energies Ry/n*^2, the residuals in MHz and in sigmas, and their norm
_Projection = namedtuple("_Projection",
                         "d0 e_i n_star binding res_mhz z norm")


def fit_threshold(records, fit_range=None, *, rydberg_cm1):
    """Joint (E_I, flat delta) fit on a window where the defect is constant.

    fit_range and the keyword-only, required rydberg_cm1 are as in
    fit_ritz. Returns a RitzModel with params [d0] and the fitted E_I, whose
    threshold_sigma_cm1 is the E_I uncertainty from the joint (E_I, d0)
    covariance (None if singular); the model keeps no covariance.

    The weighted least-squares fit runs by variable projection (Golub &
    Pereyra 1973) in plain float arithmetic. E_I enters the model
    E_k = E_I - Ry/(n_k - d0)^2 linearly, so at each d0 the best E_I is
    the weighted mean of E_k + Ry/(n_k - d0)^2, and only d0 is iterated:
    a Gauss-Newton step on the projected residuals, halved while it does
    not lower the cost. d0 enters only through n* = n - d0, so the fit
    has converged when a step, taken or halved, is within 4 ulp of the
    smallest n*: the step is then below the model's resolution, or the
    cost has stopped falling. A fit that has not converged after
    _THRESHOLD_ITERATIONS steps raises FitConvergenceError naming the
    steps and the cost; residuals that are not finite at the start raise
    ValueError. The E_I variance is inv(J^T J)[0, 0] in closed form,
    mean_w(g^2) / sum_k t_k^2, with g_k = 2 Ry/n*_k^3 the slope of the
    binding energy in d0 and t_k = (g_k - mean_w(g)) c/sigma_k, c the
    cm-1 to MHz factor.
    """
    used = _select(records, fit_range)
    if len(used) < 3:
        raise ValueError("need at least 3 records in range, have %d" % len(used))
    n = [rec.n for rec in used]
    energy = [rec.energy_cm1 for rec in used]
    sigma = [rec.sigma_mhz for rec in used]
    # weights relative to the smallest sigma, so that none overflows
    least = min(sigma)
    weight = [(least / s) * (least / s) for s in sigma]
    total = math.fsum(weight)

    def mean(values):
        return math.fsum(w * v for w, v in zip(weight, values)) / total

    def project(d0):
        """The fit at d0, with E_I the weighted mean that is best there."""
        n_star = [k - d0 for k in n]
        # x * x, as numpy squares: a Python float's x ** 2 is pow(x, 2),
        # which is not always the rounded square
        binding = [rydberg_cm1 / (x * x) for x in n_star]
        e_i = mean([e + b for e, b in zip(energy, binding)])
        res_mhz = [(e_i - b - e) * CM1_TO_MHZ for b, e in zip(binding, energy)]
        z = [r / s for r, s in zip(res_mhz, sigma)]
        return _Projection(d0, e_i, n_star, binding, res_mhz, z,
                           math.hypot(*z))

    def gauss_newton(fit):
        """The Gauss-Newton step in d0 at a fit, and the E_I variance."""
        slope = [2.0 * b / x for b, x in zip(fit.binding, fit.n_star)]
        average = mean(slope)
        # the residuals' slopes in d0 are -t
        t = [(g - average) * CM1_TO_MHZ / s for g, s in zip(slope, sigma)]
        tt = math.fsum(x * x for x in t)
        return (math.fsum(a * b for a, b in zip(t, fit.z)) / tt,
                mean([g * g for g in slope]) / tt)

    e_i_guess = max(energy) + rydberg_cm1 / max(n) ** 2
    fit = project(defect_from_energy(max(used, key=lambda rec: rec.n),
                                     e_i_guess, rydberg_cm1))
    if not math.isfinite(fit.norm):
        raise ValueError("threshold fit: residuals are not finite at the "
                         "starting point")
    step, variance = gauss_newton(fit)
    for _ in range(_THRESHOLD_ITERATIONS):
        small = abs(step) <= 4 * math.ulp(min(map(abs, fit.n_star)))
        trial = project(fit.d0 + step)
        if trial.norm < fit.norm:
            fit = trial
            step, variance = gauss_newton(fit)
        else:
            step *= 0.5
        if small:
            break
    else:
        raise FitConvergenceError(
            "threshold fit did not converge in %d steps, cost %.6g"
            % (_THRESHOLD_ITERATIONS, 0.5 * fit.norm * fit.norm))
    return RitzModel([fit.d0], fit.e_i, rydberg_cm1,
                     residuals_mhz=fit.res_mhz, record_n=n,
                     threshold_sigma_cm1=math.sqrt(variance)
                     if 0 < variance < math.inf else None)


def forster_defect(pair_in, pair_out):
    """Pair-channel energy mismatch E(in) - E(out) in MHz.

    Negative values mean the outgoing pair lies above the incoming one;
    the sign convention makes the channel that dominates an attractive
    van der Waals interaction come out negative. States only need an
    energy_cm1() method. Antisymmetric under exchanging the pairs.
    """
    e_in = sum(state.energy_cm1() for state in pair_in)
    e_out = sum(state.energy_cm1() for state in pair_out)
    return (e_in - e_out) * CM1_TO_MHZ
