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
        "985b4eead3232c06b4cfc034c3960ce80f0ac7520350d558fbcf78024a3ed347")
