"""Tests for NumerationSystem: digit set, signed base and validation."""

from fractions import Fraction

import pytest

from carrychain.numeration import NumerationSystem


def test_digit_set_and_signed_base():
    sys_ = NumerationSystem(base_magnitude=3, d=-1)
    assert sys_.digits == [-1, 0, 1]
    assert sys_.base == 3
    neg = NumerationSystem(base_magnitude=3, d=-1, negative=True)
    assert neg.base == -3


def test_invalid_systems_rejected():
    with pytest.raises(ValueError):
        NumerationSystem(base_magnitude=1, d=0)
    with pytest.raises(ValueError):
        NumerationSystem(base_magnitude=3, d=1)    # 0 not a digit
    with pytest.raises(ValueError):
        NumerationSystem(base_magnitude=3, d=-3)


def test_centroid_offset():
    assert NumerationSystem(3, -1).centroid_offset == Fraction(-1, 2)
    assert NumerationSystem(10, 0).centroid_offset == 0
    assert NumerationSystem(3, -1, negative=True).centroid_offset == Fraction(-1, 2)
    assert NumerationSystem(6, -3).centroid_offset == Fraction(-3, 5)
