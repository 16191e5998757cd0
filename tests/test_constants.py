"""The literal CODATA constants against scipy.constants, and the table hash."""

import pytest
import scipy.constants as sc

from rydtrap import constants


@pytest.mark.parametrize("name, reference", [
    ("C", sc.c),
    ("E_CHARGE", sc.e),
    ("M_E", sc.m_e),
    ("EPS0", sc.epsilon_0),
    ("H", sc.h),
    ("HBAR", sc.hbar),
    ("KB", sc.k),
    ("AMU", sc.u),
    ("A0", sc.physical_constants["Bohr radius"][0]),
    ("AU_POLARIZABILITY",
     sc.physical_constants["atomic unit of electric polarizability"][0]),
])
def test_literal_matches_scipy_bit_for_bit(name, reference):
    assert getattr(constants, name).hex() == float(reference).hex()


def test_constants_hash_is_pinned():
    # the hash every CLI envelope carries as provenance.constants_sha256
    assert constants.constants_hash() == (
        "f7714ca3811d948e93d460521a6391263bbacbdd1ba9a6e28db713a49bfa0eb4")
