"""Physical constants: the exact SI values carried without scipy.constants."""

from scipy import constants as sc

from qcrlab import units


def test_constants_match_scipy_bit_for_bit():
    assert units.E_CHARGE == sc.e
    assert units.PLANCK == sc.h
    assert units.HBAR == sc.hbar
    assert units.K_B == sc.k
    assert units.R_K == sc.h / sc.e ** 2
