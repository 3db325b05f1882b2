"""Tests for exact uniform-sum (Irwin-Hall) interval probabilities."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrychain import uniformsum
from carrychain.eulerian import v_closed
from carrychain.uniformsum import (
    interval_prob,
    interval_prob_float,
    interval_probs,
    irwin_hall_cdf,
)

P_GRID = [Fraction(1), Fraction(2), Fraction(3), Fraction(5, 3), Fraction(9, 5)]


def test_cdf_trivials():
    assert irwin_hall_cdf(1, Fraction(1, 2)) == Fraction(1, 2)
    assert irwin_hall_cdf(3, 3) == 1
    assert irwin_hall_cdf(2, 1) == Fraction(1, 2)
    assert irwin_hall_cdf(4, 0) == 0
    assert irwin_hall_cdf(4, -7) == 0
    assert irwin_hall_cdf(4, 100) == 1


def test_cdf_rejects_no_summands():
    with pytest.raises(ValueError):
        irwin_hall_cdf(0, Fraction(1, 2))


def test_cdf_monotone_on_grid():
    for n in (1, 2, 3, 5):
        values = [irwin_hall_cdf(n, Fraction(k, 7)) for k in range(7 * n + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_interval_prob_example_table():
    assert interval_prob(3, 1, 1) == Fraction(4, 6)
    assert interval_prob(3, 2, 3) == Fraction(1, 48)
    assert interval_prob(3, Fraction(5, 3), 1) == Fraction(404, 750)


def test_interval_prob_matches_triangle_row():
    for p in P_GRID:
        for n in range(1, 9):
            total = p ** n * factorial(n)
            for k in range(n + 1):
                assert interval_prob(n, p, k) == v_closed(n, p, 0, k) / total


def test_interval_prob_total_mass():
    for p in P_GRID:
        for n in range(1, 7):
            assert sum(interval_prob(n, p, k) for k in range(n + 1)) == 1


def test_interval_prob_rejects_p_below_one():
    with pytest.raises(ValueError):
        interval_prob(3, Fraction(1, 2), 0)


def test_interval_probs_checks_before_any_work():
    assert interval_probs(4, Fraction(5, 3)) == [
        interval_prob(4, Fraction(5, 3), k) for k in range(5)]
    # With n < 0 the k range is empty; the checks must still run.
    for n, p, message in ((-1, 2, "need at least one summand, got n=-1"),
                          (-1, 0, "p must be >= 1, got 0"),
                          (0, 2, "need at least one summand, got n=0")):
        with pytest.raises(ValueError) as exc:
            interval_probs(n, p)
        assert str(exc.value) == message


def test_interval_probs_evaluates_each_cdf_point_once(monkeypatch):
    calls = []
    real_cdf_num = uniformsum._cdf_num
    monkeypatch.setattr(uniformsum, "_cdf_num",
                        lambda n, a, k: calls.append(a) or real_cdf_num(n, a, k))
    for p in (Fraction(1), Fraction(2), Fraction(5, 3), Fraction(7, 2)):
        for n in range(1, 13):
            per_k = [interval_prob(n, p, k) for k in range(n + 1)]
            calls.clear()
            assert interval_probs(n, p) == per_k
            assert len(calls) == len(set(calls)) == n + 2


def test_integer_cdf_matches_fraction_cdf():
    for k in range(1, 9):
        for n in range(1, 9):
            total = k ** n * factorial(n)
            for a in range(-k, (n + 1) * k + 1):
                assert Fraction(uniformsum._cdf_num(n, a, k), total) == \
                    irwin_hall_cdf(n, Fraction(a, k)), (n, a, k)


def test_interval_probs_on_a_wider_p_grid():
    for k in range(1, 9):
        for l in range(1, k + 1):
            p = Fraction(k, l)
            if p.denominator != l:
                continue
            for n in (1, 2, 5, 15):
                assert interval_probs(n, p) == [
                    interval_prob(n, p, j) for j in range(n + 1)], (p, n)


def test_float_path_tracks_exact_path():
    for p in (Fraction(1), Fraction(2), Fraction(5, 3), Fraction(7, 2)):
        for n in (1, 3, 6):
            for k in range(n + 1):
                approx = interval_prob_float(n, float(p), k)
                assert type(approx) is float
                assert abs(approx - float(interval_prob(n, p, k))) < 1e-12


rational_x = st.fractions(min_value=Fraction(-1), max_value=Fraction(6),
                          max_denominator=30)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), rational_x, rational_x)
def test_cdf_monotone_property(n, x, y):
    lo, hi = sorted((x, y))
    assert irwin_hall_cdf(n, lo) <= irwin_hall_cdf(n, hi)
