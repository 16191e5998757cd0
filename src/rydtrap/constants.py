"""Physical constants, unit conversions, and embedded species data.

Everything numeric that the rest of the package relies on is defined here
exactly once: CODATA constants (as literals), the cm^-1 <-> MHz
conversion, and the per-species data presets (polarizabilities, quantum
defects, core transition lines, measured calibration anchors). A hash of
this table is embedded in CLI output provenance so results can be traced
to the constants they were computed with.
"""

# CODATA 2022 values as scipy.constants 1.17 holds them, written out so that
# importing the package does not import scipy; tests/test_constants.py pins
# each literal to scipy.constants bit for bit.
C = 299792458.0                 # speed of light, m/s
E_CHARGE = 1.602176634e-19      # elementary charge, C
M_E = 9.1093837139e-31          # electron mass, kg
EPS0 = 8.8541878188e-12         # vacuum permittivity, F/m
H = 6.62607015e-34              # Planck constant, J s
HBAR = 1.0545718176461565e-34   # reduced Planck constant h / (2 pi), J s
KB = 1.380649e-23               # Boltzmann constant, J/K
AMU = 1.66053906892e-27         # atomic mass constant, kg
A0 = 5.29177210544e-11          # Bohr radius, m
AU_POLARIZABILITY = 1.64877727212e-41   # atomic unit of polarizability, C m^2 / (V/m)

# Unit conversions
CM1_TO_MHZ = 29979.2458         # MHz per cm^-1 (definition of c)

# Species data presets. Plain dicts here; the potential module wraps them in
# AtomicSpecies objects. All polarizabilities are atomic units at 532 nm.
YB174_DATA = {
    "name": "yb174",
    "mass_u": 173.9388664,
    # Yb+ 6s 2S1/2 core polarizability: 107 au reproduces the measured
    # depth-vs-n crossover; 96 au is the published ab initio value.
    "alpha_core_au": {"fitted": 107.0, "calculated": 96.0},
    "alpha_core_default": "fitted",
    # Yb 1S0 ground-state polarizability: two published calculations.
    "alpha_ground_au": {"primary": 275.0, "alternative": 226.0},
    "alpha_ground_default": "primary",
    "rydberg_cm1": 109736.96959,
    "ionization_cm1": 50443.07074,
    # Series quantum defects. 3S1 carries a full Ritz expansion fitted over
    # 35 < n < 80; the others are single constants: 3P2 and 1D2 are measured
    # series values, while the 3P0 series is strongly perturbed (its defect
    # drifts by ~0.5 across n=30-80), so the constant here is an effective
    # value near n=74 that reproduces the observed near-magic behavior
    # against 75 3S1.
    "defects": {
        "3S1": {"ritz": [4.4382, 6.0, -1.8e4, 1.8e7, -7.0e9],
                "fit_range": [35, 80]},
        "3P0": 3.44,
        "3P2": 3.923,
        "1D2": 2.713,
    },
    # Yb+ 6s -> 6p_j transitions driving both the core polarizability and
    # autoionization: (wavelength m, autoionizing linewidth gamma' s^-1).
    # gamma' for 6p_1/2 ns is measured; 6p_3/2 ns is taken as 2x (the
    # approximate ratio seen in Sr and Ba).
    "core_lines": [[369e-9, 1.2e15], [329e-9, 2.4e15]],
    # Measured calibration anchor: ground-state trap depth of 12 MHz at
    # 9 mW in the w0 = 650 nm tweezer.
    "measured_ground_depth": {"depth_hz": 12e6, "power_w": 9e-3,
                              "waist_m": 650e-9},
}

RB87_DATA = {
    "name": "rb87",
    "mass_u": 86.909180531,
    # Rb+ core polarizability is essentially static and tiny at 532 nm;
    # the Rb ground state is blue-detuned (negative polarizability) there,
    # so depth ratios are not defined for this preset.
    "alpha_core_au": {"static": 9.1},
    "alpha_core_default": "static",
    "alpha_ground_au": {},
    "alpha_ground_default": None,
    "rydberg_cm1": 109736.605,
    "ionization_cm1": 33690.79890,
    # Standard measured Rb series defects (delta_0 only).
    "defects": {
        "2S1/2": 3.1311807,
        "2P1/2": 2.6548849,
        "2P3/2": 2.6416737,
        "2D3/2": 1.34809171,
        "2D5/2": 1.34646572,
    },
    "core_lines": [],
    "measured_ground_depth": None,
}

SPECIES_DATA = {"yb174": YB174_DATA, "rb87": RB87_DATA}

CONSTANTS_TABLE = {
    "c_m_per_s": C,
    "elementary_charge_C": E_CHARGE,
    "electron_mass_kg": M_E,
    "epsilon0_F_per_m": EPS0,
    "planck_J_s": H,
    "hbar_J_s": HBAR,
    "boltzmann_J_per_K": KB,
    "amu_kg": AMU,
    "bohr_radius_m": A0,
    "au_polarizability_SI": AU_POLARIZABILITY,
    "cm1_to_mhz": CM1_TO_MHZ,
    "species": SPECIES_DATA,
}


def constants_hash():
    """SHA-256 over the canonical JSON form of the constants table.

    The canonical form is json.dumps(CONSTANTS_TABLE, sort_keys=True,
    separators=(",", ":")). The digest is written out, like __version__,
    so that no command loads hashlib's OpenSSL binding (libcrypto) to hash
    a table written in this file. tests/test_constants.py recomputes it
    from the table, and names the new digest when an edit to the table
    leaves this one stale.
    """
    return "985b4eead3232c06b4cfc034c3960ce80f0ac7520350d558fbcf78024a3ed347"
