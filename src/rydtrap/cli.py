"""Command-line interface tying the trap, spectroscopy, and loss models together.

Every physical input carries an explicit unit suffix (650nm, 9mW, 90kHz,
13uK, 108us, 107au, 90deg); bare numbers are rejected so quantities can
never be misread. Each command hands its data and any CSV table to
_emit: a JSON envelope (command, config, data, provenance with a hash of
the constants table) or CSV with that metadata as comments; only the six
table commands take --format, and they default to csv. Exit codes:
1 usage, 2 bad data (non-positive power, non-finite result, a refused
allocation), 3 nonconvergence.
"""

import argparse
import json
import math
import re
import sys
import warnings
from fractions import Fraction

from ._numpy import np
from . import __version__
# lazy modules, read through the module: each runs when a command first
# uses it, so main runs none of them before the command but constants,
# for --species
from . import angular, coherence, constants, potential, spectroscopy
from . import beam as beam_mod, loss as loss_mod

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NONCONVERGENCE = 3

_UNIT_SCALES = {
    "length": {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0},
    "power": {"uW": 1e-6, "mW": 1e-3, "W": 1.0},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "temperature": {"uK": 1e-6, "mK": 1e-3, "K": 1.0},
    "time": {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0},
    "polarizability": {"au": 1.0},
    "angle": {"deg": 1.0},
}

_QUANTITY_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([a-zA-Z]+)$")


def unit_quantity(kind):
    """argparse type: number with a mandatory unit suffix of the given kind."""
    scales = _UNIT_SCALES[kind]

    def parse(text):
        match = _QUANTITY_RE.match(text.strip())
        if not match:
            raise argparse.ArgumentTypeError(
                "%r is not a number with a unit; expected e.g. %s" % (
                    text, " or ".join("1%s" % u for u in scales)))
        value, unit = match.groups()
        if unit not in scales:
            raise argparse.ArgumentTypeError(
                "unknown %s unit %r (valid: %s)" % (kind, unit,
                                                    ", ".join(scales)))
        quantity = float(value) * scales[unit]
        if not math.isfinite(quantity):
            raise argparse.ArgumentTypeError("%r is not a finite %s"
                                             % (text, kind))
        return quantity

    parse.__name__ = kind
    return parse


def finite_float(text):
    """argparse type: a bare finite number, such as a cm^-1 constant."""
    if not math.isfinite(float(text)):
        raise argparse.ArgumentTypeError("%r is not a finite number" % text)
    return float(text)


# the most times a --times range may hold: 0:10ms:10ns (1,000,001) fits;
# at the cap ramsey-sim and echo-sim (--n 200) peak at 520 MB of RSS
_MAX_TIMES = 1 << 20


# the most atoms --n may ask for: the draw streams in blocks, so memory
# does not refuse a larger ensemble, but at the cap a ramsey-sim at 61
# times already runs for minutes
_MAX_ATOMS = 1 << 30


def ensemble_size(text):
    """argparse type: an integer --n of at most _MAX_ATOMS; one below 1
    is left to DephasingScenario, which refuses it as bad data."""
    n = int(text)
    if n > _MAX_ATOMS:
        raise argparse.ArgumentTypeError(
            "%d atoms is more than the cap of %d" % (n, _MAX_ATOMS))
    return n


def _time_count(start, stop, step):
    """Times in start:stop:step to the last step not past stop, inclusive;
    the slack absorbs rounding in span/step."""
    return math.floor((stop - start) / step * (1.0 + 1e-9)) + 1


def time_range(text):
    """start:stop:step with time units, stop inclusive; bare 0 allowed.

    The start must not be negative, nor the times more than _MAX_TIMES.
    Returns (start, stop, step) in s; _time_grid builds the times.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "%r is not a start:stop:step time range" % text)

    def one(part):
        if part.strip() in ("0", "0.0"):
            return 0.0
        return unit_quantity("time")(part)

    start, stop, step = (one(p) for p in parts)
    if step <= 0 or stop <= start:
        raise argparse.ArgumentTypeError("empty or backwards time range %r" % text)
    if start < 0:
        # a free-evolution time is a duration: exp(-t/T1) > 1 below 0
        raise argparse.ArgumentTypeError("time range %r starts before 0" % text)
    try:
        count = _time_count(start, stop, step)
    except OverflowError:  # math.floor of an infinite span/step
        raise argparse.ArgumentTypeError(
            "time range %r has more steps than a float holds" % text)
    if count > _MAX_TIMES:
        raise argparse.ArgumentTypeError(
            "time range %r holds %d times, more than the cap of %d"
            % (text, count, _MAX_TIMES))
    return start, stop, step


def _time_grid(times):
    """The times of a time_range (start, stop, step), stop inclusive."""
    start, stop, step = times
    return start + step * np.arange(_time_count(start, stop, step))


def n_range(text):
    """Inclusive integer range a:b."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("%r is not an n range like 35:80" % text)
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("non-integer bounds in %r" % text)
    if hi < lo:
        raise argparse.ArgumentTypeError("backwards range %r" % text)
    return lo, hi


def term_type(text):
    try:
        return angular.Term(text)
    except angular.UnsupportedTermError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def m_type(text):
    """Magnetic quantum number, integer or half-integer like '-3/2'."""
    try:
        m = Fraction(text)
        angular._twice(m)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("bad sublevel %r" % text)
    return m


def pair_channel(text):
    """Parse '80 3S1 + 80 3S1 -> 80 3P2 + 79 3P2' into two state pairs."""
    sides = text.split("->")
    if len(sides) != 2:
        raise argparse.ArgumentTypeError("channel needs exactly one '->'")

    def side(chunk):
        parts = chunk.split("+")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                "each channel side needs exactly two states joined by '+'")
        states = []
        for part in parts:
            tokens = part.split()
            if len(tokens) != 2:
                raise argparse.ArgumentTypeError(
                    "state %r must be 'n TERM' like '80 3S1'" % part.strip())
            try:
                n = int(tokens[0])
            except ValueError:
                raise argparse.ArgumentTypeError("bad n in %r" % part.strip())
            states.append((n, term_type(tokens[1])))
        return states

    return side(sides[0]), side(sides[1])


# the beam waist when --waist is not given
_WAIST = 650e-9

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the documented usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _add_beam_args(parser, power=True):
    """--wavelength, --waist and, with power, the required --power |
    --ground-depth group, which is returned."""
    parser.add_argument("--wavelength", type=unit_quantity("length"),
                        default=532e-9, metavar="L[nm]",
                        help="trap wavelength (default 532nm)")
    parser.add_argument("--waist", type=unit_quantity("length"),
                        default=_WAIST, metavar="W[nm]",
                        help="beam 1/e^2 waist radius (default 650nm)")
    if power:
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument("--power", type=unit_quantity("power"),
                           metavar="P[mW]", help="beam power")
        group.add_argument("--ground-depth", type=unit_quantity("frequency"),
                           metavar="F[MHz]",
                           help="choose the power giving this model "
                                "ground-state trap depth")
        return group


def _add_species_args(parser, alpha_ground=True):
    """--species, and --alpha-ground where --ground-depth can use it."""
    parser.add_argument("--species", choices=sorted(constants.SPECIES_DATA),
                        default="yb174", help="species preset (default yb174)")
    if alpha_ground:
        parser.add_argument("--alpha-ground",
                            type=unit_quantity("polarizability"),
                            metavar="A[au]",
                            help="override ground-state polarizability")


def _add_core_arg(parser):
    """--alpha-core, on the two commands whose output has the core shift."""
    parser.add_argument("--alpha-core", type=unit_quantity("polarizability"),
                        metavar="A[au]", help="override core polarizability")


def _add_state_args(parser, series=None, axis_angle=True):
    """Species, beam, --series (series: its keywords) and --axis-angle;
    returns the required --power | --ground-depth group."""
    _add_species_args(parser)
    group = _add_beam_args(parser)
    if series is not None:
        parser.add_argument("--series", type=term_type, **series)
    if axis_angle:
        parser.add_argument("--axis-angle", type=unit_quantity("angle"),
                            default=0.0, metavar="A[deg]",
                            help="quantization axis tilt from the beam axis")
    return group


def _add_energy_args(parser):
    """Options shared by the fits of series energies."""
    _add_species_args(parser, alpha_ground=False)
    parser.add_argument("--input", metavar="CSV",
                        help="energy table (default: bundled series data)")
    parser.add_argument("--range", type=n_range, default=None, metavar="A:B")
    parser.add_argument("--rydberg-cm1", type=finite_float, default=None)


def _species_from_args(args):
    """Preset with --alpha-core/--alpha-ground; an unset one gets its value."""
    species = potential.SPECIES_PRESETS[args.species]()
    for name in ("alpha_core", "alpha_ground"):
        if getattr(args, name, None) is not None:
            setattr(species, name + "_au", getattr(args, name))
        elif hasattr(args, name):
            setattr(args, name, getattr(species, name + "_au"))
    return species


def _beam_from_args(args, species=None):
    """Beam at --power, at the args.power found from --ground-depth, or 1 W."""
    with warnings.catch_warnings():  # 650 nm waist < 2 x 532 nm
        warnings.simplefilter("ignore", beam_mod.ParaxialValidityWarning)
        beam = beam_mod.TweezerBeam(args.wavelength, args.waist, 1.0)
    if getattr(args, "ground_depth", None) is not None:
        args.power = potential.power_for_ground_depth(species, beam,
                                                      args.ground_depth)
    power = getattr(args, "power", 1.0)
    if not power > 0:
        raise ValueError("beam power must be positive, got %g W" % power)
    return beam.with_power(power)


def _checked_state(species, n, term, m=None):
    """The RydbergState, once potential._checked has passed it."""
    return potential._checked(potential.RydbergState(species, n, term, m))


def _energy_records(args):
    """Species, Rydberg constant and records read from args.input."""
    species = _species_from_args(args)
    ry = args.rydberg_cm1 if args.rydberg_cm1 is not None \
        else species.rydberg_cm1
    args.input = args.input or spectroscopy.bundled_energy_path()
    return species, ry, spectroscopy.load_energy_csv(args.input)


def _table(header, rows):
    """The JSON form of a CSV table: one dict per row, keyed by header."""
    return {"rows": [dict(zip(header, row)) for row in rows]}


# config key suffix of each unit kind, by the option's argparse type
_SI_SUFFIX = {"length": "_m", "power": "_w", "frequency": "_hz",
              "temperature": "_k", "time": "_s", "time_range": "_s",
              "polarizability": "_au", "angle": "_deg"}


def _plain(value):
    """An option's value for JSON: sequences as lists, terms and sublevels
    as their labels."""
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, Fraction):
        return str(value)
    # a Term, told by its label so that no other command runs angular
    return getattr(value, "label", value)


def _config(args):
    """Every option of the command but --output and --format, keyed by its
    dest plus the SI suffix of its unit kind."""
    config = {}
    for action in args.parser._actions:
        if action.option_strings \
                and action.dest not in ("help", "output", "format"):
            suffix = _SI_SUFFIX.get(getattr(action.type, "__name__", None), "")
            config[action.dest + suffix] = _plain(getattr(args, action.dest))
    return config


def _emit(args, data, header=None, rows=None):
    """Write the JSON envelope, or with --format csv the table; the envelope
    is encoded either way, so a non-finite value is a ValueError."""
    command, config = args.command, _config(args)
    provenance = {"package": "rydtrap", "version": __version__,
                  "constants_sha256": constants.constants_hash()}
    text = json.dumps({"command": command, "config": config, "data": data,
                       "provenance": provenance},
                      indent=2, allow_nan=False) + "\n"
    if rows is not None and args.format == "csv":
        lines = ["# command: %s" % command,
                 "# config: %s" % json.dumps(config, sort_keys=True),
                 "# provenance: rydtrap %s constants=%s"
                 % (__version__, provenance["constants_sha256"][:16]),
                 ",".join(header)]
        lines += [",".join(_cell(value) for value in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as stream:
            stream.write(text)
    else:
        sys.stdout.write(text)


def _cell(value):
    if isinstance(value, float):
        return "%.10g" % value
    return str(value)


# ---------------------------------------------------------------- commands

def _cmd_angular_table(args):
    if min(args.ranks) < 0:
        args.parser.error("--ranks must be >= 0, got %d" % min(args.ranks))
    if len(set(args.ranks)) < len(args.ranks):
        args.parser.error("--ranks repeats a rank: %s"
                          % " ".join(map(str, args.ranks)))
    if args.terms is None:  # set here: the parser runs no angular code
        args.terms = [angular.Term(label) for label in angular.TABLE_TERMS]
    rows = []
    for term, factors in angular.angular_table(tuple(args.terms),
                                               tuple(args.ranks)):
        rows.append([term.label, str(angular.reference_m(term))]
                    + [str(f) for f in factors])
    header = ["term", "M"] + ["k%d" % k for k in args.ranks]
    _emit(args, {"ranks": list(args.ranks), **_table(header, rows)},
          header, rows)


def _cmd_trap_depth(args):
    if args.n is not None and args.n_min is None and args.n_max is None:
        n_values = [args.n]
    elif args.n is None and args.n_min is not None and args.n_max is not None:
        if args.n_min > args.n_max:
            raise ValueError("backwards n range: --n-min %d is above "
                             "--n-max %d" % (args.n_min, args.n_max))
        n_values = range(args.n_min, args.n_max + 1)
    else:
        args.parser.error("pass --n alone or both --n-min and --n-max")
    species = _species_from_args(args)
    beam = _beam_from_args(args, species)
    ground_hz = potential.ground_depth(species, beam)
    u_core = potential.core_shift(species, beam)
    # each state is checked as it is built: n* rises with n, so a range
    # past the hydrogenic cap stops at its first n past it
    states = [_checked_state(species, n, args.series, args.m)
              for n in n_values]
    field = potential.field_for(beam, states)
    header = ["n", "n_star", "u_core_hz", "u_pond_hz", "u_total_hz",
              "depth_hz", "ratio_to_ground"]
    rows = []
    for state in states:
        u_pond = potential.ponderomotive_shift(state, field, args.axis_angle)
        u_total = u_core + u_pond
        rows.append([state.n, state.n_star, u_core, u_pond, u_total,
                     -u_total, -u_total / ground_hz])
    _emit(args, _table(header, rows), header, rows)


def _cmd_tensor_shift(args):
    species = _species_from_args(args)
    beam = _beam_from_args(args, species)
    state = potential.RydbergState(species, args.n, args.series)
    shifts = potential.tensor_splitting(
        state, potential.field_for(beam, [state]), args.axis_angle)
    header = ["M", "shift_hz"]
    rows = [[str(m), shift] for m, shift in
            sorted(shifts.items())]
    spread = max(shifts.values()) - min(shifts.values())
    data = {"shifts_hz": {str(m): v for m, v in shifts.items()},
            "spread_hz": spread}
    _emit(args, data, header, rows)


def _cmd_magic_scan(args):
    species = _species_from_args(args)
    beam = _beam_from_args(args, species)
    n_lo, n_hi = args.n_range
    # checked as built, as in trap-depth
    pairs = [(_checked_state(species, n, args.series_a),
              _checked_state(species, n + args.offset, args.series_b))
             for n in range(n_lo, n_hi + 1)]
    field = potential.field_for(beam,
                                [state for pair in pairs for state in pair])
    header = ["n_a", "n_b", "n_star_a", "n_star_b", "differential_hz"]
    rows = []
    for state_a, state_b in pairs:
        diff = potential.differential_shift(state_a, state_b, field,
                                            args.axis_angle)
        rows.append([state_a.n, state_b.n, state_a.n_star, state_b.n_star,
                     diff])
    _emit(args, _table(header, rows), header, rows)


def _cmd_ritz_fit(args):
    species, ry, records = _energy_records(args)
    e_i = args.ionization_cm1 if args.ionization_cm1 is not None \
        else species.ionization_cm1
    model = spectroscopy.fit_ritz(records, order=args.order,
                                  fit_range=args.range, ionization_cm1=e_i,
                                  rydberg_cm1=ry)
    unc = model.uncertainties
    data = {
        "parameters": list(model.params),
        "parameter_names": ["d%d" % (2 * i) for i in range(len(model.params))],
        "uncertainties": None if unc is None else list(unc),
        "rms_residual_mhz": model.rms_residual_mhz(),
        "residuals_mhz": {int(n): float(r) for n, r in
                          zip(model.record_n, model.residuals_mhz)},
        "ionization_cm1": e_i,
        "rydberg_cm1": ry,
    }
    _emit(args, data)


def _cmd_threshold_fit(args):
    _, ry, records = _energy_records(args)
    model = spectroscopy.fit_threshold(records, fit_range=args.range,
                                       rydberg_cm1=ry)
    sigma_mhz = None if model.threshold_sigma_cm1 is None \
        else model.threshold_sigma_cm1 * constants.CM1_TO_MHZ
    data = {"ionization_cm1": model.ionization_cm1,
            "ionization_sigma_mhz": sigma_mhz,
            "delta0": float(model.params[0]),
            "rms_residual_mhz": model.rms_residual_mhz(),
            "rydberg_cm1": ry}
    _emit(args, data)


def _cmd_forster(args):
    species = _species_from_args(args)
    pair_in, pair_out = args.channel
    states_in = [potential.RydbergState(species, n, term)
                 for n, term in pair_in]
    states_out = [potential.RydbergState(species, n, term)
                  for n, term in pair_out]
    defect_mhz = spectroscopy.forster_defect(states_in, states_out)
    data = {
        "defect_mhz": defect_mhz,
        "in_states": [{"n": s.n, "term": s.term.label, "n_star": s.n_star,
                       "energy_cm1": s.energy_cm1()} for s in states_in],
        "out_states": [{"n": s.n, "term": s.term.label, "n_star": s.n_star,
                        "energy_cm1": s.energy_cm1()} for s in states_out],
    }
    _emit(args, data)


def _cmd_pi_fit(args):
    beam = _beam_from_args(args)
    records = loss_mod.load_lifetime_csv(args.input)
    fit = loss_mod.fit_photoionization(records, beam)
    reductions = {}
    for power in args.at_power:
        reductions["%g" % (power * 1e3)] = \
            loss_mod.trapped_lifetime_reduction(fit, power)
    data = {
        "gamma0_per_s": fit.gamma0, "gamma0_sigma_per_s": fit.gamma0_sigma,
        "gamma_pi_per_s_per_w": fit.gamma_pi,
        "gamma_pi_sigma_per_s_per_w": fit.gamma_pi_sigma,
        "sigma_pi_m2": fit.sigma_pi_m2,
        "sigma_pi_sigma_m2": fit.sigma_pi_sigma_m2,
        "zero_power_lifetime_us": fit.zero_power_lifetime_s * 1e6,
        "reduction_at_power_mw": reductions,
    }
    _emit(args, data)


def _cmd_autoion(args):
    """The rate at the core depth that --core-depth sets, or else that
    potential.core_depth gives for the beam. A set depth leaves only
    --wavelength of the beam options, the detunings from the core lines;
    --waist, --alpha-core and --alpha-ground are refused with it."""
    if args.core_depth is None:
        if args.waist is None:
            args.waist = _WAIST
        species = _species_from_args(args)
        beam = _beam_from_args(args, species)
        core_depth = potential.core_depth(species, beam, args.ground_depth)
    else:
        for flag, value in (("--waist", args.waist),
                            ("--alpha-core", args.alpha_core),
                            ("--alpha-ground", args.alpha_ground)):
            if value is not None:
                args.parser.error("argument %s: not allowed with argument "
                                  "--core-depth" % flag)
        species = potential.SPECIES_PRESETS[args.species]()
        core_depth = args.core_depth
    state = potential.RydbergState(species, args.n, args.series)
    rate = loss_mod.autoionization_rate(state, args.wavelength, core_depth)
    coeff = loss_mod.autoionization_coefficient(species, args.wavelength,
                                                core_depth)
    data = {"rate_per_s": rate,
            "lifetime_s": None if rate == 0 else 1.0 / rate,
            "coefficient_per_s": coeff, "n_star": state.n_star}
    _emit(args, data)


def _cmd_contrast(args):
    """ramsey-sim, or echo-sim, whose orbits need the trap frequencies:
    both given, or else derived from the beam and the species mass."""
    echo = args.command == "echo-sim"
    if echo:
        radial, axial = args.trap_freq_radial, args.trap_freq_axial
        if (radial is None) != (axial is None):
            args.parser.error(
                "pass both --trap-freq-radial and --trap-freq-axial")
    scenario = coherence.DephasingScenario(
        dnu0_hz=args.dnu, temperature_k=args.temp, depth_hz=args.depth,
        t1_s=args.t1, n_atoms=args.n, seed=args.seed)
    times = _time_grid(args.times)
    if not echo:
        curve = coherence.ramsey_contrast(scenario, times)
    else:  # scenario and times positional: perfbench/traced.py reads them
        if radial is None:
            radial, _, axial = coherence.trap_frequencies_hz(
                _beam_from_args(args), _species_from_args(args).mass_kg,
                scenario.depth_hz)
        curve = coherence.echo_contrast(scenario, times,
                                        (radial, radial, axial))
    header = ["time_us", "contrast"]
    rows = [[t * 1e6, c] for t, c in zip(curve.times_s, curve.contrast)]
    t_e = curve.one_over_e_time_s
    data = {"one_over_e_time_us": None if t_e is None else t_e * 1e6,
            "times_us": [t * 1e6 for t in curve.times_s],
            "contrast": list(curve.contrast)}
    _emit(args, data, header, rows)


def _cmd_oracle_check(args):
    species = _species_from_args(args)
    beam = _beam_from_args(args, species)
    # every n is checked before the first oracle runs
    states = [_checked_state(species, n, args.series) for n in args.n]
    results = []
    for state in states:
        tensor_hz, brute_hz = potential.oracle_compare(
            state, potential.field_for(beam, [state]))
        results.append({"n": state.n, "tensor_hz": tensor_hz,
                        "brute_hz": brute_hz,
                        "relative_difference": abs(tensor_hz - brute_hz)
                        / abs(brute_hz)})
    _emit(args, {"comparisons": results})


# ---------------------------------------------------------------- wiring
# Each command's options, added by build_parser only to the command that
# argv names: the other commands are listed in --help but left empty.

def _angular_table_options(p):
    # the default, angular.TABLE_TERMS, is set by _cmd_angular_table
    p.add_argument("--terms", nargs="+", type=term_type)
    p.add_argument("--ranks", nargs="+", type=int, default=[0, 2, 4])


def _trap_depth_options(p):
    _add_state_args(p, {"default": "3S1"})
    _add_core_arg(p)
    p.add_argument("--n", type=int, help="single principal quantum number")
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--m", type=m_type, default=None,
                   help="magnetic sublevel (default: 0 or 1/2)")


def _tensor_shift_options(p):
    _add_state_args(p, {"required": True})
    p.add_argument("--n", type=int, required=True)


def _magic_scan_options(p):
    _add_state_args(p)
    p.add_argument("--series-a", type=term_type, default="3S1")
    p.add_argument("--series-b", type=term_type, default="3P0")
    p.add_argument("--offset", type=int, default=-1,
                   help="n_b = n_a + offset (default -1)")
    p.add_argument("--n-range", type=n_range, required=True, metavar="A:B")


def _ritz_fit_options(p):
    _add_energy_args(p)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--ionization-cm1", type=finite_float, default=None)


def _forster_options(p):
    _add_species_args(p, alpha_ground=False)
    p.add_argument("--channel", type=pair_channel, required=True,
                   metavar="'n T + n T -> n T + n T'")


def _pi_fit_options(p):
    p.add_argument("--input", required=True, metavar="CSV")
    _add_beam_args(p, power=False)
    p.add_argument("--at-power", type=unit_quantity("power"), nargs="*",
                   default=[9e-3], metavar="P[mW]",
                   help="report lifetime reduction at these powers")


def _autoion_options(p):
    group = _add_state_args(p, {"default": "3S1"}, axis_angle=False)
    _add_core_arg(p)
    p.add_argument("--n", type=int, required=True)
    group.add_argument("--core-depth", type=unit_quantity("frequency"),
                       metavar="F[MHz]",
                       help="set the core trap depth; of the beam options "
                            "only --wavelength then applies")
    # an unset --waist stays None, so that --core-depth can refuse a set one
    p.set_defaults(waist=None)


def _ramsey_sim_options(p):
    p.add_argument("--dnu", type=unit_quantity("frequency"), required=True,
                   metavar="F[kHz]", help="peak differential shift")
    p.add_argument("--temp", type=unit_quantity("temperature"),
                   required=True, metavar="T[uK]")
    p.add_argument("--depth", type=unit_quantity("frequency"),
                   required=True, metavar="F[MHz]", help="trap depth")
    p.add_argument("--t1", type=unit_quantity("time"), required=True,
                   metavar="T[us]")
    p.add_argument("--n", type=ensemble_size, default=100000,
                   help="ensemble size, at most 2^30 = %d (default "
                        "%%(default)s)" % _MAX_ATOMS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--times", type=time_range, default=time_range("0:60us:1us"),
                   metavar="START:STOP:STEP")


def _echo_sim_options(p):
    """The Ramsey options and the orbits: given, or from beam and mass."""
    _ramsey_sim_options(p)
    _add_species_args(p, alpha_ground=False)
    _add_beam_args(p, power=False)
    for axis in ("radial", "axial"):
        p.add_argument("--trap-freq-" + axis, metavar="F[kHz]",
                       type=unit_quantity("frequency"))


def _oracle_check_options(p):
    _add_state_args(p, {"default": "3S1"}, axis_angle=False)
    p.add_argument("--n", type=int, nargs="+", required=True)


# name, function, help, whether it is a table command (takes --format),
# and the function adding its options
_COMMANDS = (
    ("angular-table", _cmd_angular_table,
     "exact angular factors per term and rank", True, _angular_table_options),
    ("trap-depth", _cmd_trap_depth,
     "total Rydberg trap depth and its ratio to the ground state", True,
     _trap_depth_options),
    ("tensor-shift", _cmd_tensor_shift,
     "per-M light shifts relative to the M average", True,
     _tensor_shift_options),
    ("magic-scan", _cmd_magic_scan,
     "differential shift between two series versus n", True,
     _magic_scan_options),
    ("ritz-fit", _cmd_ritz_fit,
     "fit the extended Ritz defect expansion to series energies", False,
     _ritz_fit_options),
    ("threshold-fit", _cmd_threshold_fit,
     "joint ionization-threshold and flat-defect fit", False,
     _add_energy_args),
    ("forster", _cmd_forster,
     "pair-channel energy mismatch from the defect models", False,
     _forster_options),
    ("pi-fit", _cmd_pi_fit,
     "photoionization fit of lifetime versus trap power", False,
     _pi_fit_options),
    ("autoion", _cmd_autoion,
     "isolated-core autoionization rate estimate", False, _autoion_options),
    ("ramsey-sim", _cmd_contrast,
     "Monte Carlo Ramsey contrast of a trapped thermal ensemble", True,
     _ramsey_sim_options),
    ("echo-sim", _cmd_contrast,
     "Monte Carlo Hahn-echo contrast with orbital dynamics", True,
     _echo_sim_options),
    ("oracle-check", _cmd_oracle_check,
     "compare the tensor-expansion shift with direct 3D quadrature", False,
     _oracle_check_options),
)


def build_parser(argv=None):
    """The parser; given argv, only the command that it names (its first
    word not starting with '-') gets options, so that building the parser
    costs a command little more than it uses."""
    parser = _Parser(prog="rydtrap",
                     description="Rydberg tweezer trapping, spectroscopy, "
                                 "loss, and coherence calculations")
    parser.add_argument("--version", action="version",
                        version="rydtrap %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    named = None if argv is None else next(
        (word for word in argv if not word.startswith("-")), "")
    for name, func, help_text, table, add_options in _COMMANDS:
        # args carry their command's parser for the usage errors found
        # after parsing
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func, parser=p)
        if named not in (None, name):
            continue
        p.add_argument("--output", metavar="PATH",
                       help="write the result here instead of stdout")
        if table:
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="output format (default %(default)s)")
        add_options(p)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        args.func(args)
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        if isinstance(exc, KeyError) and exc.args:
            exc = exc.args[0]
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:  # a float past 1.8e308, or squared to 0
        print("error: a value overflowed or divided by zero: %s" % exc,
              file=sys.stderr)
        return EXIT_DATA
    # last, so that beam and spectroscopy are looked up only when some
    # other exception reaches this clause
    except (beam_mod.QuadratureConvergenceError,
            spectroscopy.FitConvergenceError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return 0


if __name__ == "__main__":
    sys.exit(main())
