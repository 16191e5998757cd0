"""Trapping potentials, spectroscopy, loss, and coherence for Rydberg tweezers.

The package models a single atom held in a tightly focused red-detuned
optical tweezer while excited to a high Rydberg state. The electron is so
far from the ion core that its light shift is ponderomotive: the intensity
profile averaged over the electron orbital, expanded in spherical tensor
ranks with exact angular factors. On top of that sit quantum-defect fits to
series energies, pair-channel energy mismatches, photoionization and
autoionization loss estimates, and Monte Carlo Ramsey and echo contrast for
thermal ensembles.
"""

__version__ = "0.1.0"

from .constants import CM1_TO_MHZ, CONSTANTS_TABLE, constants_hash
from .angular import (Term, UnsupportedTermError, angular_factor,
                      angular_factor_exact, angular_table, reference_m,
                      wigner_3j, wigner_6j)
from .radial import (GridMismatchError, RadialGrid, RadialWavefunction,
                     hydrogen_radial, numerov_radial,
                     interpolated_reduced_element, radial_integral)
from .beam import (ParaxialValidityWarning, QuadratureConvergenceError,
                   TensorField, TweezerBeam, brute_force_average, decompose)
from .spectroscopy import (EnergyRecord, FitConvergenceError, RitzModel,
                           bundled_energy_path, defect_from_energy,
                           fit_ritz, fit_threshold, forster_defect,
                           load_energy_csv, ritz_delta)
from .potential import (AtomicSpecies, RydbergState, SPECIES_PRESETS,
                        TruncationError, differential_shift, field_for,
                        ground_depth, pond_prefactor, ponderomotive_shift,
                        power_for_ground_depth, rb87, tensor_splitting, yb174)
from .loss import (InsufficientDataError, LifetimeRecord, PhotoionizationFit,
                   autoionization_coefficient, autoionization_rate,
                   fit_photoionization, load_lifetime_csv,
                   trapped_lifetime_reduction)
from .coherence import (ContrastCurve, DephasingScenario, echo_contrast,
                        orbit_averaged_shift_hz, ramsey_contrast,
                        ramsey_contrast_analytic, trap_frequencies_hz)

__all__ = [
    "__version__",
    "CM1_TO_MHZ", "CONSTANTS_TABLE", "constants_hash",
    "Term", "UnsupportedTermError", "angular_factor", "angular_factor_exact",
    "angular_table", "reference_m", "wigner_3j", "wigner_6j",
    "GridMismatchError", "RadialGrid", "RadialWavefunction",
    "hydrogen_radial", "numerov_radial",
    "interpolated_reduced_element", "radial_integral",
    "ParaxialValidityWarning", "QuadratureConvergenceError", "TensorField",
    "TweezerBeam", "brute_force_average", "decompose",
    "EnergyRecord", "FitConvergenceError", "RitzModel",
    "bundled_energy_path", "defect_from_energy", "fit_ritz", "fit_threshold",
    "forster_defect", "load_energy_csv", "ritz_delta",
    "AtomicSpecies", "RydbergState", "SPECIES_PRESETS", "TruncationError",
    "differential_shift", "field_for", "ground_depth", "pond_prefactor",
    "ponderomotive_shift", "power_for_ground_depth", "rb87",
    "tensor_splitting", "yb174",
    "InsufficientDataError", "LifetimeRecord", "PhotoionizationFit",
    "autoionization_coefficient", "autoionization_rate",
    "fit_photoionization", "load_lifetime_csv", "trapped_lifetime_reduction",
    "ContrastCurve", "DephasingScenario", "echo_contrast",
    "orbit_averaged_shift_hz", "ramsey_contrast", "ramsey_contrast_analytic",
    "trap_frequencies_hz",
]
