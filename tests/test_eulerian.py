"""Tests for generalized Eulerian arrays, triangles, and stationary vectors."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrychain.eulerian import stationary, triangle_recurrence, v_closed
from eulerian_identities import (
    array_recurrence_check,
    conjugate_parameter,
    eulerian_array,
    row_sums,
    symmetry_check,
)

P_GRID = [Fraction(1), Fraction(2), Fraction(3), Fraction(5, 3), Fraction(7, 4)]


def test_classical_triangle_rows():
    rows = triangle_recurrence(4, 1)
    assert rows == [
        [1],
        [1, 0],
        [1, 1, 0],
        [1, 4, 1, 0],
        [1, 11, 11, 1, 0],
    ]


def test_macmahon_triangle_rows():
    rows = triangle_recurrence(4, 2)
    assert rows[2] == [1, 6, 1]
    assert rows[3] == [1, 23, 23, 1]
    assert rows[4] == [1, 76, 230, 76, 1]


def test_p3_row_four():
    assert triangle_recurrence(4, 3)[4] == [1, 251, 1131, 545, 16]


def test_p53_rows():
    rows = triangle_recurrence(4, Fraction(5, 3))
    third = [Fraction(x, 27) for x in (27, 404, 311, 8)]
    assert rows[3] == third
    fourth = [Fraction(x, 81) for x in (81, 3691, 8891, 2321, 16)]
    assert rows[4] == fourth


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


def test_array_recurrence_holds():
    for p in P_GRID:
        for n in (1, 3, 4):
            assert array_recurrence_check(n, p) == []


def test_row_sums_values():
    for p in P_GRID:
        for n in range(7):
            sums = row_sums(n, p)
            assert sums[0] == p ** n * factorial(n)
            assert all(s == 0 for s in sums[1:])


def test_symmetry_classical_palindrome():
    assert symmetry_check(4, 1) == []
    row = triangle_recurrence(4, 1)[4]
    assert row[4] == 0
    assert row[:4] == row[3::-1]


def test_symmetry_conjugate_pairs():
    assert conjugate_parameter(2) == 2
    assert conjugate_parameter(Fraction(5, 3)) == Fraction(5, 2)
    with pytest.raises(ValueError):
        conjugate_parameter(1)
    for p in (Fraction(2), Fraction(3), Fraction(5, 3)):
        for n in range(1, 7):
            assert symmetry_check(n, p) == []


def test_stationary_examples():
    assert stationary(3, 1) == [Fraction(1, 6), Fraction(4, 6), Fraction(1, 6)]
    assert stationary(3, 3) == [Fraction(x, 162) for x in (1, 60, 93, 8)]
    assert stationary(3, Fraction(5, 3)) == [
        Fraction(x, 750) for x in (27, 404, 311, 8)]


def test_stationary_lengths():
    assert len(stationary(4, 1)) == 4
    assert len(stationary(4, 2)) == 5


def test_eulerian_array_shape_and_zero_column():
    arr = eulerian_array(3, Fraction(7, 4))
    assert len(arr) == 4 and all(len(row) == 5 for row in arr)
    assert all(row[4] == 0 for row in arr)


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
