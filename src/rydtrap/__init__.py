"""Trapping potentials, spectroscopy, loss, and coherence for Rydberg tweezers.

The package models a single atom held in a tightly focused red-detuned
optical tweezer while excited to a high Rydberg state. The electron is so
far from the ion core that its light shift is ponderomotive: the intensity
profile averaged over the electron orbital, expanded in spherical tensor
ranks with exact angular factors. On top of that sit quantum-defect fits to
series energies, pair-channel energy mismatches, photoionization and
autoionization loss estimates, and Monte Carlo Ramsey and echo contrast for
thermal ensembles.

`import rydtrap` runs none of these modules: each is registered in
sys.modules as a lazy module, and runs the first time one of its
attributes, or one of its names in __all__, is used.
"""

__version__ = "0.1.0"

from ._numpy import lazy_module

# the public names, by the module that defines each
_EXPORTS = {
    "constants": ("CM1_TO_MHZ", "CONSTANTS_TABLE", "constants_hash"),
    "angular": ("Term", "UnsupportedTermError", "angular_factor",
                "angular_factor_exact", "angular_table", "reference_m",
                "wigner_3j", "wigner_6j"),
    "radial": ("GridMismatchError", "RadialGrid", "RadialWavefunction",
               "hydrogen_radial", "numerov_radial",
               "interpolated_reduced_element", "radial_integral"),
    "beam": ("ParaxialValidityWarning", "QuadratureConvergenceError",
             "TensorField", "TweezerBeam", "brute_force_average",
             "decompose"),
    "spectroscopy": ("EnergyRecord", "FitConvergenceError", "RitzModel",
                     "bundled_energy_path", "defect_from_energy", "fit_ritz",
                     "fit_threshold", "forster_defect", "load_energy_csv",
                     "ritz_delta"),
    "potential": ("AtomicSpecies", "RydbergState", "SPECIES_PRESETS",
                  "TruncationError", "differential_shift", "field_for",
                  "ground_depth", "pond_prefactor", "ponderomotive_shift",
                  "power_for_ground_depth", "rb87", "tensor_splitting",
                  "yb174"),
    "loss": ("InsufficientDataError", "LifetimeRecord", "PhotoionizationFit",
             "autoionization_coefficient", "autoionization_rate",
             "fit_photoionization", "load_lifetime_csv",
             "trapped_lifetime_reduction"),
    "coherence": ("ContrastCurve", "DephasingScenario", "echo_contrast",
                  "orbit_averaged_shift_hz", "ramsey_contrast",
                  "ramsey_contrast_analytic", "trap_frequencies_hz"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = ["__version__", *_HOME]

# every module but cli, which is run as the program, is registered lazily:
# it runs when one of its attributes is first used
for _name in ("_tables", *_EXPORTS):
    globals()[_name] = lazy_module(__name__ + "." + _name)
del _name


def __getattr__(name):
    """A name of __all__, read from its module (which this runs)."""
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    """The package's own names and those of __all__, which run nothing."""
    return sorted({*globals(), *_HOME})
