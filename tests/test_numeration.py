"""Tests for digit systems, expansion, and evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrychain.numeration import NumerationSystem
from representability import (
    RepresentableClass,
    digit_for_residue,
    evaluate,
    expand,
    representable_class,
)


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


def test_representable_class():
    assert (representable_class(NumerationSystem(10, 0))
            is RepresentableClass.NON_NEGATIVES)
    assert (representable_class(NumerationSystem(10, -9))
            is RepresentableClass.NON_POSITIVES)
    assert (representable_class(NumerationSystem(3, -1))
            is RepresentableClass.ALL_INTEGERS)
    assert (representable_class(NumerationSystem(10, 0, negative=True))
            is RepresentableClass.ALL_INTEGERS)


def test_expand_known_digit_strings():
    assert expand(NumerationSystem(3, -1), 2) == [-1, 1]
    assert expand(NumerationSystem(3, -1, negative=True), 2) == [-1, -1]
    assert expand(NumerationSystem(10, 0), 0) == [0]
    assert expand(NumerationSystem(10, 0), 345) == [5, 4, 3]


def test_expand_rejects_wrong_sign():
    with pytest.raises(ValueError):
        expand(NumerationSystem(10, 0), -1)
    with pytest.raises(ValueError):
        expand(NumerationSystem(10, -9), 1)


def test_evaluate_validates_digits():
    sys_ = NumerationSystem(3, -1)
    with pytest.raises(ValueError):
        evaluate(sys_, [2])
    assert evaluate(sys_, [-1, 1]) == 2


@st.composite
def systems(draw):
    b = draw(st.integers(2, 12))
    d = -draw(st.integers(0, b - 1))
    return NumerationSystem(b, d, negative=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(systems(), st.integers(-10_000, 10_000))
def test_expand_evaluate_round_trip(sys_, x):
    cls = representable_class(sys_)
    if cls is RepresentableClass.NON_NEGATIVES and x < 0:
        return
    if cls is RepresentableClass.NON_POSITIVES and x > 0:
        return
    digits = expand(sys_, x)
    assert evaluate(sys_, digits) == x
    lo, hi = sys_.d, sys_.d + sys_.base_magnitude - 1
    assert all(lo <= dig <= hi for dig in digits)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(-10_000, 10_000))
def test_digit_for_residue_is_congruent(b, x):
    sys_ = NumerationSystem(b, -(b // 2))
    dig = digit_for_residue(sys_, x)
    assert (x - dig) % b == 0
    assert sys_.d <= dig <= sys_.d + b - 1
