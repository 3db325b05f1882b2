"""Tests for generalized Eulerian arrays, triangles, and stationary vectors."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrychain.eulerian import stationary, triangle_recurrence, v_closed
from eulerian_identities import fraction_triangle

P_GRID = [Fraction(1), Fraction(2), Fraction(3), Fraction(5, 3), Fraction(7, 4)]


def test_v_closed_examples():
    assert v_closed(3, 2, 0, 1) == 23
    assert v_closed(3, Fraction(5, 3), 0, 1) == Fraction(404, 27)
    for p in P_GRID:
        for i in range(4):
            assert v_closed(3, p, i, 4) == 0


def test_v_closed_index_validation():
    assert v_closed(3, 2, 0, -1) == 0
    with pytest.raises(ValueError):
        v_closed(3, 2, 4, 0)
    with pytest.raises(ValueError):
        v_closed(3, 2, 0, 5)


def test_triangle_rejects_p_below_one():
    with pytest.raises(ValueError, match="p must be >= 1"):
        triangle_recurrence(2, Fraction(1, 2))


def test_closed_form_matches_recurrence():
    for p in P_GRID:
        rows = triangle_recurrence(8, p)
        for n in range(9):
            assert rows[n] == [v_closed(n, p, 0, j) for j in range(n + 1)]


def test_integer_triangle_equals_fraction_recurrence_and_closed_form():
    grid = [Fraction(k, l) for k in range(1, 9) for l in range(1, k + 1)
            if Fraction(k, l).denominator == l]
    for p in grid:
        rows = triangle_recurrence(25, p)
        assert rows == fraction_triangle(25, p), p
        assert rows[10] == [v_closed(10, p, 0, j) for j in range(11)], p
        assert all(type(x) is Fraction for row in rows for x in row)


def test_stationary_examples():
    assert stationary(3, 1) == [Fraction(1, 6), Fraction(4, 6), Fraction(1, 6)]
    assert stationary(3, 3) == [Fraction(x, 162) for x in (1, 60, 93, 8)]
    assert stationary(3, Fraction(5, 3)) == [
        Fraction(x, 750) for x in (27, 404, 311, 8)]


def test_stationary_lengths():
    assert len(stationary(4, 1)) == 4
    assert len(stationary(4, 2)) == 5


small_p = st.fractions(min_value=Fraction(1), max_value=Fraction(6),
                       max_denominator=7)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), small_p)
def test_stationary_is_distribution(n, p):
    pi = stationary(n, p)
    assert sum(pi) == 1
    assert all(x >= 0 for x in pi)
    total = p ** n * factorial(n)
    assert pi == [v_closed(n, p, 0, j) / total for j in range(len(pi))]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), small_p)
def test_recurrence_matches_closed_form_random_p(n, p):
    assert triangle_recurrence(n, p)[n] == [
        v_closed(n, p, 0, j) for j in range(n + 1)]
