"""Trapping potentials for Rydberg states in a red-detuned tweezer.

The total potential of a Rydberg atom is the sum of two pieces acting on
different charges: the polarizability shift of the ion core,
U_core = -alpha_core I / (2 eps0 c) (attractive for red detuning), and the
ponderomotive energy of the nearly free Rydberg electron, which is the
intensity expectation over its wavefunction (repulsive). The latter is
assembled per tensor rank k from exact angular factors and radial
elements of the intensity decomposition, so state dependence enters only
through (term, M) geometry and the effective quantum number n*.

field_for builds the field a set of states needs, after checking every
state. Energies cross the interface in h*Hz; a positive trap depth means
the state is trapped at the focus. oracle_compare checks the tensor path
against the direct 3D quadrature of a Numerov wavefunction.
"""

import math

from ._numpy import np
from .constants import (AU_POLARIZABILITY, C, E_CHARGE, EPS0, H, M_E, AMU,
                        SPECIES_DATA)
from .angular import (Term, _sublevel, angular_factor, max_rank,
                      reference_m, wigner_3j)
from .beam import brute_force_average, decompose, _ylm_theta
from .radial import (RadialGrid, _bracket, _fill_element_memo,
                     interpolated_reduced_element, numerov_radial)
from .spectroscopy import _level_energy, ritz_delta

# radial grid points per unit of n in field_for, the fewest that meet the
# element accuracy target stated in the radial module: 7 points per n meet
# its bound on e_0 alone (6 miss it at 1.2e-9), and at 9 the rank-2 and
# rank-4 elements of n >= 30 move by 8.5e-10
_POINTS_PER_N = 10


class TruncationError(ValueError):
    """Field k_max below the highest rank the state couples to."""


class AtomicSpecies:
    """Trap-relevant atomic data: polarizabilities, series constants, defects.

    Quantum-defect models are keyed by term label; a model is either a flat
    defect or a Ritz coefficient list [d0, d2, ...] evaluated at each n.
    """

    def __init__(self, name, mass_kg, alpha_core_au, alpha_ground_au,
                 rydberg_cm1, ionization_cm1, defects, core_lines=(),
                 measured_ground_depth=None):
        self.name = name
        self.mass_kg = float(mass_kg)
        self.alpha_core_au = float(alpha_core_au)
        _alpha(self, "alpha_core")
        self.alpha_ground_au = None if alpha_ground_au is None else float(alpha_ground_au)
        self.rydberg_cm1 = float(rydberg_cm1)
        self.ionization_cm1 = float(ionization_cm1)
        self.defects = dict(defects)
        self.core_lines = tuple(core_lines)
        self.measured_ground_depth = measured_ground_depth

    def defect(self, term, n):
        """Quantum defect delta(term, n) from the stored model.

        A Ritz model is refused at n <= d0, its pole, and wherever
        n* = n - delta(n) stops growing with n (d delta/dn >= 1): below
        that point a model fitted at high n sends n* off without bound.
        """
        label = Term(term).label
        try:
            model = self.defects[label]
        except KeyError:
            raise KeyError("no quantum-defect model for term %s in species %s"
                           % (label, self.name)) from None
        if not isinstance(model, dict):
            return float(model)
        params = model["ritz"]
        gap = n - params[0]
        if gap > 0:
            x = 1.0 / (gap * gap)  # d delta/dn of sum d_2i x^i: no overflow
            slope = sum(-2.0 * i * coeff * x ** i
                        for i, coeff in enumerate(params[1:], start=1)) / gap
        if gap <= 0 or slope >= 1.0:
            raise ValueError(
                "n=%s is outside the range of the %s Ritz model: n <= d0 or "
                "dn*/dn <= 0 there (fit_range %s)"
                % (n, label, model.get("fit_range")))
        return float(ritz_delta(params, n))

    def n_star(self, term, n):
        return n - self.defect(term, n)

    def __repr__(self):
        return "AtomicSpecies(%r, alpha_core=%g au)" % (self.name,
                                                        self.alpha_core_au)


def _build_species(data):
    """AtomicSpecies from a SPECIES_DATA entry at its `*_default`
    polarizabilities; the table keeps the others as reference data."""
    ground = data["alpha_ground_au"]
    return AtomicSpecies(
        name=data["name"], mass_kg=data["mass_u"] * AMU,
        alpha_core_au=data["alpha_core_au"][data["alpha_core_default"]],
        alpha_ground_au=ground[data["alpha_ground_default"]] if ground
        else None,
        rydberg_cm1=data["rydberg_cm1"], ionization_cm1=data["ionization_cm1"],
        defects=data["defects"], core_lines=data.get("core_lines", ()),
        measured_ground_depth=data.get("measured_ground_depth"))


def yb174():
    """Yb-174 preset at alpha_core 107 au (fitted) and alpha_ground 275 au;
    another value is set on it, e.g. species.alpha_core_au = 96.0."""
    return _build_species(SPECIES_DATA["yb174"])


def rb87():
    """Rb-87 preset, alkali single-electron terms; no ground polarizability."""
    return _build_species(SPECIES_DATA["rb87"])


SPECIES_PRESETS = {"yb174": yb174, "rb87": rb87}


class RydbergState:
    """One |n, term, M> level of a species with its derived n*; M is a
    Fraction, by default reference_m(term)."""

    def __init__(self, species, n, term, M=None):
        self.species = species
        self.n = int(n)
        self.term = Term(term)
        self.M = _sublevel(self.term.J,
                           reference_m(self.term) if M is None else M)
        n_star = species.n_star(self.term, self.n)
        if n_star <= self.term.L:
            raise ValueError(
                "n=%d gives n*=%.3f <= L=%d for term %s; below the first "
                "physical member of the series" % (self.n, n_star,
                                                   self.term.L, self.term.label))
        self.n_star = n_star

    @property
    def l(self):
        return self.term.L

    def energy_cm1(self):
        """Level energy E_I - Ry/n*^2."""
        return _level_energy(self.species.ionization_cm1,
                             self.species.rydberg_cm1, self.n_star)

    def __repr__(self):
        return "RydbergState(%s, n=%d, %s, M=%s)" % (
            self.species.name, self.n, self.term.label, self.M)


def pond_prefactor(omega):
    """Ponderomotive energy per unit intensity, e^2/(2 eps0 c m_e w^2), J/(W/m^2)."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return E_CHARGE ** 2 / (2.0 * EPS0 * C * M_E * omega ** 2)


def polarizability_shift_hz(alpha_au, intensity):
    """Shift -alpha I/(2 eps0 c) in Hz for a polarizability in atomic units."""
    return -alpha_au * AU_POLARIZABILITY * intensity / (2.0 * EPS0 * C) / H


def _alpha(species, name):
    """The species' "alpha_core" or "alpha_ground" in au, once positive and
    finite, as each reader divides by it or takes it as red-detuned;
    ValueError otherwise, or if it is None (rb87's blue-detuned ground)."""
    alpha = getattr(species, name + "_au")
    if alpha is None:
        raise ValueError("species %s has no ground-state polarizability"
                         % species.name)
    if not 0.0 < alpha < math.inf:
        raise ValueError("%s of species %s must be positive and finite, "
                         "got %r au" % (name, species.name, alpha))
    return alpha


def core_shift(species, beam):
    """Ion-core polarizability shift at the focus, h*Hz (negative)."""
    return polarizability_shift_hz(_alpha(species, "alpha_core"),
                                   beam.peak_intensity)


def ground_depth(species, beam):
    """Ground-state trap depth U(inf) - U(focus) in Hz (positive = trapping)."""
    return -polarizability_shift_hz(_alpha(species, "alpha_ground"),
                                    beam.peak_intensity)


def power_for_ground_depth(species, beam, depth_hz):
    """Power at which the model ground-state depth equals depth_hz (linear)."""
    per_watt = ground_depth(species, beam.with_power(1.0))
    return depth_hz / per_watt


def core_depth(species, beam, ground_depth_hz):
    """Core trap depth, Hz: ground_depth_hz times alpha_core/alpha_ground,
    or with None the species' measured ground depth scaled by the beam's
    peak intensity, I0 ~ P/w0^2 (the model I0 overstates that depth)."""
    anchor = species.measured_ground_depth
    if ground_depth_hz is None and anchor is None:
        raise ValueError("species %s has no measured ground-depth anchor"
                         % species.name)
    ratio = _alpha(species, "alpha_core") / _alpha(species, "alpha_ground")
    if ground_depth_hz is not None:
        return ground_depth_hz * ratio
    return (anchor["depth_hz"] * ratio * beam.power / anchor["power_w"]
            * (anchor["waist_m"] / beam.waist) ** 2)


def _checked(state):
    """state, once its n* is known to have the integer-n bracket of its
    cubic above l + 1 and within the hydrogenic cap; else radial's
    ValueError."""
    _bracket(state.n_star, state.l)
    return state


def field_for(beam, states):
    """The field that states need: beam decomposed on a grid covering their
    largest n + 3 at _POINTS_PER_N points per n, to the highest rank their
    terms couple to, with every element row their cubics read computed.

    Every state is checked (_checked) before the grid is built, so a state
    past the hydrogenic cap raises its ValueError before anything is
    allocated.
    """
    for state in states:
        _checked(state)
    n_cover = max(state.n for state in states) + 3
    grid = RadialGrid.default(n_cover, npoints=_POINTS_PER_N * n_cover)
    field = decompose(beam, grid,
                      k_max=max(max_rank(state.term) for state in states))
    _fill_element_memo(field, [(state.n_star, state.l) for state in states])
    return field


def ponderomotive_shift(state, field, axis_angle_deg=0.0):
    """Ponderomotive expectation for a state, h*Hz.

    U_pond = sum over even k of pref * A_k(term, M) * P_k(cos beta)
    * e_k(n*, L), where pref is the free-electron energy per intensity, A_k
    the exact angular factor, e_k the interpolated radial element of the
    rank-k intensity profile about the focus, and beta the angle of the
    quantization axis against the beam axis (the P_k factor rotates the
    axially symmetric q=0 component onto the diagonal of a tilted basis).

    The shifts are therefore the diagonal of the light shift in the tilted
    frame. They are its eigenvalues only under a bias field along that
    axis whose Zeeman splitting is large compared with the tensor
    splitting; at zero field the eigenvalues are the beta = 0 set for any
    axis. For 3P2 n = 74 at a 12 MHz ground depth the splitting is
    +-0.36 MHz at beta = 0 and +-0.18 MHz at 90 deg.
    """
    term = state.term
    needed = max_rank(term)
    if field.k_max < needed:
        raise TruncationError(
            "state couples to rank %d but field holds k <= %d; decompose "
            "with a larger k_max" % (needed, field.k_max))
    pref = pond_prefactor(field.beam.angular_frequency)
    cos_beta = math.cos(math.radians(axis_angle_deg))
    e = interpolated_reduced_element(state.n_star, term.L, field)
    return float(sum(
        pref * angular_factor(term, k, state.M)
        * np.polynomial.legendre.legval(cos_beta, [0.0] * k + [1.0])
        * e[k // 2] / H
        for k in range(0, needed + 1, 2)))


def tensor_splitting(state, field, axis_angle_deg=0.0):
    """Per-M shifts from the M-average of state's (n, term) manifold, Hz.

    The M-average removes the scalar (k=0) part, leaving the rank k >= 2
    light shift with its M^2 pattern; shift(M) = shift(-M) exactly.
    """
    J = state.term.J
    totals = {m: ponderomotive_shift(
        RydbergState(state.species, state.n, state.term, m), field,
        axis_angle_deg) for m in (i - J for i in range(int(2 * J) + 1))}
    avg = sum(totals.values()) / len(totals)
    return {m: total - avg for m, total in totals.items()}


def differential_shift(a, b, field, axis_angle_deg=0.0):
    """Total-potential difference U(a) - U(b) between two states, Hz.

    The core polarizability does not depend on the Rydberg electron's
    state, so it cancels exactly and only the ponderomotive parts enter.
    """
    if a.species.name != b.species.name:
        raise ValueError("states belong to different species (%s vs %s)"
                         % (a.species.name, b.species.name))
    return (ponderomotive_shift(a, field, axis_angle_deg)
            - ponderomotive_shift(b, field, axis_angle_deg))


def _term_angular_density(term, m):
    """Angular density of an LS-coupled |term, M> as a callable of (ct, phi).

    Decomposes |J M> over |L mL>|S mS> with squared Clebsch-Gordan weights;
    the result is phi independent.
    """
    weights = []
    for m_l in range(-term.L, term.L + 1):
        # zero unless |m - m_l| <= S
        w3 = wigner_3j(term.L, term.S, term.J, m_l, m - m_l, -m)
        cg2 = int(2 * term.J + 1) * w3 * w3
        if cg2 > 0:
            weights.append((m_l, cg2))

    def density(cos_theta, phi):
        total = sum(cg2 * _ylm_theta(term.L, m_l, cos_theta) ** 2
                    for m_l, cg2 in weights)
        return total * np.ones_like(np.asarray(phi, dtype=float))

    return density


def oracle_compare(state, field):
    """(tensor_hz, brute_hz): the tensor-path ponderomotive shift and the
    direct 3D quadrature of field.beam's intensity over the |term, M>
    angular density and a Numerov wavefunction at n*.

    The Numerov integrator is fourth order (1.3e-4 off the closed form at
    10 points per n), so it runs on its own grid, not on field.grid: sqrt
    spaced to 2.5 (n + 3)^2 with max(4000, 40 (n + 3)) points for the
    state's integer n.
    """
    tensor_hz = ponderomotive_shift(state, field)
    n_cover = state.n + 3
    grid = RadialGrid.default(n_cover, npoints=max(4000, 40 * n_cover))
    wf = numerov_radial(state.n_star, state.term.L, grid)
    avg_intensity = brute_force_average(
        field.beam, wf, (0.0, 0.0, 0.0),
        angular_density=_term_angular_density(state.term, state.M))
    brute_hz = pond_prefactor(field.beam.angular_frequency) * avg_intensity / H
    return tensor_hz, brute_hz
