"""Parameter names of the public library calls and the CLI's options.

Every keyword and every option here is one that changes a result; a new
one, or a new default on a public parameter, has to come with a
deliberate change to these tables. A '*' marks a keyword-only parameter.
"""

import argparse
import ast
import inspect
import re
from pathlib import Path

import pytest

import rydtrap
from rydtrap import (angular, beam, cli, coherence, loss, potential, radial,
                     spectroscopy)

SIGNATURES = {
    beam.TweezerBeam: ["wavelength", "waist", "power"],
    beam.decompose: ["beam", "grid", "k_max"],
    beam.brute_force_average: ["beam", "wf", "position", "angular_density"],
    radial.RadialGrid: ["points"],
    radial.RadialGrid.default: ["n_max", "npoints"],
    radial.radial_integral: ["wf", "profile"],
    radial.interpolated_reduced_element: ["n_star", "l", "field"],
    angular.max_rank: ["term"],
    potential.AtomicSpecies: ["name", "mass_kg", "alpha_core_au",
                              "alpha_ground_au", "rydberg_cm1",
                              "ionization_cm1", "defects", "core_lines",
                              "measured_ground_depth"],
    potential.field_for: ["beam", "states"],
    potential.core_depth: ["species", "beam", "ground_depth_hz"],
    potential.ponderomotive_shift: ["state", "field", "axis_angle_deg"],
    potential.yb174: [],
    potential.rb87: [],
    potential.tensor_splitting: ["state", "field", "axis_angle_deg"],
    potential.differential_shift: ["a", "b", "field", "axis_angle_deg"],
    spectroscopy.bundled_energy_path: [],
    spectroscopy.fit_ritz: ["records", "order", "fit_range",
                            "*ionization_cm1", "*rydberg_cm1"],
    spectroscopy.fit_threshold: ["records", "fit_range", "*rydberg_cm1"],
    spectroscopy.RitzModel: ["params", "ionization_cm1", "rydberg_cm1",
                             "covariance", "residuals_mhz", "record_n",
                             "threshold_sigma_cm1"],
    loss.fit_photoionization: ["records", "beam"],
    loss.autoionization_coefficient: ["species", "wavelength_m",
                                      "core_depth_hz"],
    loss.autoionization_rate: ["state", "wavelength_m", "core_depth_hz"],
    coherence.DephasingScenario: ["dnu0_hz", "temperature_k", "depth_hz",
                                  "t1_s", "n_atoms", "seed"],
    coherence.trap_frequencies_hz: ["beam", "mass_kg", "depth_hz"],
    coherence.echo_contrast: ["scenario", "times_s", "trap_frequencies_hz"],
}

_BEAM = ["--wavelength", "--waist", "--power", "--ground-depth"]
_STATE = ["--species", "--alpha-ground"] + _BEAM
_TABLE = ["--output", "--format"]
_SIM = ["--dnu", "--temp", "--depth", "--t1", "--n", "--seed", "--times"]
_ENERGY = ["--output", "--species", "--input", "--range", "--rydberg-cm1"]

OPTIONS = {
    "angular-table": _TABLE + ["--terms", "--ranks"],
    "trap-depth": _TABLE + _STATE + ["--series", "--axis-angle",
                                     "--alpha-core", "--n", "--n-min",
                                     "--n-max", "--m"],
    "tensor-shift": _TABLE + _STATE + ["--series", "--axis-angle", "--n"],
    "magic-scan": _TABLE + _STATE + ["--axis-angle", "--series-a",
                                     "--series-b", "--offset", "--n-range"],
    "ritz-fit": _ENERGY + ["--order", "--ionization-cm1"],
    "threshold-fit": _ENERGY,
    "forster": ["--output", "--species", "--channel"],
    "pi-fit": ["--output", "--input", "--wavelength", "--waist",
               "--at-power"],
    "autoion": ["--output"] + _STATE + ["--series", "--alpha-core", "--n",
                                        "--core-depth"],
    "ramsey-sim": _TABLE + _SIM,
    "echo-sim": _TABLE + _SIM + ["--species", "--wavelength", "--waist",
                                 "--trap-freq-radial", "--trap-freq-axial"],
    "oracle-check": ["--output"] + _STATE + ["--series", "--n"],
}

_SIM_ARGV = ["--dnu", "90kHz", "--temp", "13uK", "--depth", "2MHz",
             "--t1", "108us", "--n", "10", "--times", "0:4us:2us"]
_FORSTER_ARGV = ["forster", "--channel", "80 3S1 + 80 3S1 -> 80 3P2 + 79 3P2"]

# options these commands do not take, each with a value that another
# command accepts: argparse refuses each one
REMOVED = {
    "ritz-fit --format": ["ritz-fit", "--format", "json"],
    "threshold-fit --format": ["threshold-fit", "--format", "json"],
    "forster --format": _FORSTER_ARGV + ["--format", "json"],
    "pi-fit --format": ["pi-fit", "--input", "lifetimes.csv",
                        "--format", "csv"],
    "autoion --format": ["autoion", "--power", "9mW", "--n", "75",
                         "--format", "csv"],
    "oracle-check --format": ["oracle-check", "--power", "9mW", "--n", "40",
                              "--format", "json"],
    "tensor-shift --alpha-core": ["tensor-shift", "--power", "9mW", "--n",
                                  "40", "--series", "3P2",
                                  "--alpha-core", "50au"],
    "magic-scan --alpha-core": ["magic-scan", "--power", "9mW",
                                "--n-range", "70:71", "--alpha-core", "50au"],
    "oracle-check --alpha-core": ["oracle-check", "--power", "9mW", "--n",
                                  "40", "--alpha-core", "50au"],
    "forster --alpha-core": _FORSTER_ARGV + ["--alpha-core", "50au"],
    "forster --alpha-ground": _FORSTER_ARGV + ["--alpha-ground", "200au"],
    "ramsey-sim --species": ["ramsey-sim"] + _SIM_ARGV
    + ["--species", "yb174"],
    "ramsey-sim --wavelength": ["ramsey-sim"] + _SIM_ARGV
    + ["--wavelength", "532nm"],
    "ramsey-sim --waist": ["ramsey-sim"] + _SIM_ARGV + ["--waist", "650nm"],
    "ramsey-sim --trap-freq-radial": ["ramsey-sim"] + _SIM_ARGV
    + ["--trap-freq-radial", "1kHz"],
    "ramsey-sim --trap-freq-axial": ["ramsey-sim"] + _SIM_ARGV
    + ["--trap-freq-axial", "1kHz"],
    # the field's rank comes from the series: max_rank of each
    "trap-depth --k-max": ["trap-depth", "--power", "9mW", "--n", "40",
                           "--k-max", "4"],
    "tensor-shift --k-max": ["tensor-shift", "--power", "9mW", "--n", "40",
                             "--series", "3P2", "--k-max", "4"],
    "magic-scan --k-max": ["magic-scan", "--power", "9mW",
                           "--n-range", "70:71", "--k-max", "4"],
    "oracle-check --k-max": ["oracle-check", "--power", "9mW", "--n", "40",
                             "--k-max", "4"],
}


# (callable in rydtrap.__all__, parameter) for every parameter with a default
DEFAULTS = {
    ("angular_table", "terms"), ("angular_table", "ranks"),
    ("EnergyRecord", "sigma_mhz"),
    ("RitzModel", "covariance"), ("RitzModel", "residuals_mhz"),
    ("RitzModel", "record_n"), ("RitzModel", "threshold_sigma_cm1"),
    ("fit_ritz", "order"), ("fit_ritz", "fit_range"),
    ("fit_threshold", "fit_range"),
    ("AtomicSpecies", "core_lines"),
    ("AtomicSpecies", "measured_ground_depth"),
    ("RydbergState", "M"),
    ("differential_shift", "axis_angle_deg"),
    ("ponderomotive_shift", "axis_angle_deg"),
    ("tensor_splitting", "axis_angle_deg"),
    ("LifetimeRecord", "sigma_s"),
    ("DephasingScenario", "n_atoms"), ("DephasingScenario", "seed"),
}


def test_library_parameter_names():
    for fn, names in SIGNATURES.items():
        seen = [("*" if p.kind is p.KEYWORD_ONLY else "") + name
                for name, p in inspect.signature(fn).parameters.items()]
        assert seen == names, fn.__qualname__


# exports that no module of the package reads, each with its reason
UNREAD_EXPORTS = {
    "hydrogen_radial": "the one-state form of the element rows' hydrogenic "
                       "kernel; tests check Numerov and the rows against it",
    "radial_integral": "one wavefunction against one profile: the direct "
                       "integral the interpolated elements are tested against",
    "wigner_6j": "the float form of the exact 6j the angular factors use; "
                 "tested against sympy",
    "ramsey_contrast_analytic": "the closed form the Monte Carlo Ramsey "
                                "contrast is tested and benchmarked against",
}


def test_every_export_has_a_reader():
    # a name in __all__ is read (loaded as a Name or an Attribute) by a
    # module of the package other than __init__, or is listed above
    read = set()
    for path in Path(rydtrap.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {name for name in rydtrap.__all__ if name not in read}
    assert unread == set(UNREAD_EXPORTS)


def test_dir_lists_every_export():
    # __all__ is served from the lazy modules, which dir() must not hide
    assert set(rydtrap.__all__) <= set(dir(rydtrap))


def test_public_defaults():
    seen = set()
    for name in rydtrap.__all__:
        obj = getattr(rydtrap, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # the exception classes have none
            continue
        seen |= {(name, p.name) for p in params if p.default is not p.empty}
    assert seen == DEFAULTS


def _subcommands():
    parser = cli.build_parser()
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_cli_option_table():
    seen = {name: [option for action in command._actions
                   for option in action.option_strings
                   if option not in ("-h", "--help")]
            for name, command in _subcommands().items()}
    assert seen == OPTIONS


# the config keys of the options that take a unit, with its SI suffix
UNIT_KEYS = {"wavelength_m", "waist_m", "power_w", "ground_depth_hz",
             "alpha_ground_au", "alpha_core_au", "axis_angle_deg",
             "core_depth_hz", "at_power_w", "dnu_hz", "temp_k", "depth_hz",
             "t1_s", "times_s", "trap_freq_radial_hz", "trap_freq_axial_hz"}
SI_SUFFIX = re.compile(r"_(m|w|hz|k|s|au|deg)$")


def test_config_has_a_key_per_option():
    # every option but --output and --format, keyed by its dest plus the
    # SI suffix of its unit kind
    suffixed = set()
    for name, command in _subcommands().items():
        args = argparse.Namespace(parser=command, **{
            action.dest: action.default for action in command._actions})
        keys = set(cli._config(args))
        want = {option[2:].replace("-", "_") for option in OPTIONS[name]
                if option not in ("--output", "--format")}
        assert {SI_SUFFIX.sub("", key) for key in keys} == want, name
        suffixed |= {key for key in keys if SI_SUFFIX.sub("", key) != key}
    assert suffixed == UNIT_KEYS


@pytest.mark.parametrize("argv", list(REMOVED.values()), ids=list(REMOVED))
def test_removed_option_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
