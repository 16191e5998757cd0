"""Shared fixtures: the standard tweezer, its tensor decomposition, species."""

import numpy as np
import pytest

from rydtrap.beam import TweezerBeam, _sphere_profiles, decompose
from rydtrap.constants import A0
from rydtrap.potential import yb174, power_for_ground_depth
from rydtrap.radial import RadialGrid

# standard tweezer: 532 nm, 650 nm waist, 9 mW per trap
WAVELENGTH = 532e-9
WAIST = 650e-9
POWER = 9e-3
# measured ground-state depth at that power, used to calibrate the intensity
MEASURED_GROUND_DEPTH_HZ = 12e6


@pytest.fixture(scope="session")
def species():
    return yb174()


@pytest.fixture(scope="session")
def beam9():
    return TweezerBeam(WAVELENGTH, WAIST, POWER)


@pytest.fixture(scope="session")
def grid80():
    # covers wavefunctions up to n = 83; matches the CLI sizing rule
    return RadialGrid.default(83, npoints=max(4000, 40 * 83))


@pytest.fixture(scope="session")
def field9(beam9, grid80):
    return decompose(beam9, (0.0, 0.0, 0.0), grid80, k_max=4)


@pytest.fixture(scope="session")
def sphere9(beam9, grid80):
    """Every (k, q) profile about the focus, k <= 4, from the (theta, phi)
    rule at the 48 x 48 nodes decompose refines to: the reference for the
    axial rule, which stores only q = 0."""
    return _sphere_profiles(beam9, np.zeros(3), grid80.points * A0, 4, 48, 48)


@pytest.fixture(scope="session")
def operating_power(species, beam9):
    """Power at which the model ground depth equals the measured 12 MHz."""
    return power_for_ground_depth(species, beam9, MEASURED_GROUND_DEPTH_HZ)


@pytest.fixture(scope="session")
def field_op(beam9, grid80, operating_power):
    return decompose(beam9.with_power(operating_power), (0.0, 0.0, 0.0),
                     grid80, k_max=4)
