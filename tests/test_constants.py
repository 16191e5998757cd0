"""The literal CODATA constants against scipy.constants, and the table hash."""

import hashlib
import json

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


def test_constants_hash_is_the_table_digest():
    # the literal is the digest of the table's canonical JSON, so an edit
    # to the constants fails here until both literals carry the new digest
    blob = json.dumps(constants.CONSTANTS_TABLE, sort_keys=True,
                      separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert constants.constants_hash() == digest, (
        "the constants table hashes to %s: write it in constants_hash and "
        "in test_constants_hash_is_pinned" % digest)
