"""Tests for numeration systems, carry-chain state spaces, parameters, and
transition matrices."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrychain.carries import (
    ChainSpec,
    NumerationSystem,
    _digit_sum_counts,
    carry_interval,
    find_system,
    p_param,
    state_space,
    transition_matrix,
    transition_matrix_bruteforce,
)
from carrychain.exactmath import ExactMatrix
from cases import frac_matrix, oracle_mismatch, spec


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


def test_state_space_examples():
    assert state_space(spec(3, -1, 2)).states == [-1, 0, 1]
    assert state_space(spec(10, 0, 4)).states == [0, 1, 2, 3]
    assert state_space(spec(3, -1, 2, negative=True)).states == [-1, 0, 1]


def test_state_space_size_rule():
    # n+1 states when (n-1)l is fractional, n states when integral.
    assert state_space(spec(3, -1, 2)).size == 3        # l = -1/2
    assert state_space(spec(3, -1, 3)).size == 3        # (n-1)l = -1
    assert state_space(spec(10, 0, 7)).size == 7        # l = 0
    # So (n, p) fixes the size: n states exactly when p = 1.
    for b in range(2, 9):
        for d in range(-(b - 1), 1):
            for n in range(1, 6):
                for neg in (False, True):
                    s = spec(b, d, n, negative=neg)
                    assert state_space(s).size == n + (p_param(s) != 1)


def test_p_param_examples():
    assert p_param(spec(3, -1, 2)) == 2
    assert p_param(spec(6, -3, 2)) == Fraction(5, 3)
    assert p_param(spec(10, 0, 3)) == 1
    assert p_param(spec(3, -1, 3)) == 1


def test_p_param_negative_base():
    assert p_param(spec(3, -1, 2, negative=True)) == 2


def test_transition_matrix_rows_stochastic():
    for s in (spec(7, -1, 4), spec(11, -3, 3), spec(4, -2, 3, negative=True)):
        P = transition_matrix(s)
        ones = ExactMatrix([[1]] * P.rows)
        assert P @ ones == ones
        assert all(x >= 0 for row in P.to_lists() for x in row)


def test_entry_denominators_divide_base_power():
    s = spec(5, -2, 3)
    P = transition_matrix(s)
    for row in P.to_lists():
        for x in row:
            assert 125 % x.denominator == 0


def test_bruteforce_classical_two_summands():
    states, P = transition_matrix_bruteforce(10, list(range(10)), 2)
    assert states == [0, 1]
    assert P == frac_matrix([[55, 45], [45, 55]], 100)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bruteforce_matches_formula_random_systems(data):
    b = data.draw(st.integers(2, 40), label="b")
    d = data.draw(st.integers(-(b - 1), 0), label="d")
    n = data.draw(st.integers(1, 12), label="n")
    negative = data.draw(st.booleans(), label="negative")
    assert oracle_mismatch(spec(b, d, n, negative)) is None


def test_digit_sum_counts_match_enumeration():
    # The oracle's convolution against all |D|^n digit tuples.
    for digits, n in (([-1, 0, 1, 2, 3], 3), ([-1, 0, 4], 4), ([0, 1], 7),
                      ([-2, 0, 1, 7, 9], 3)):
        tuples = itertools.product(digits, repeat=n)
        assert _digit_sum_counts(digits, n) == dict(Counter(map(sum, tuples)))


def test_bruteforce_sparse_digit_set():
    # Non-consecutive digits blow the state space past n+1.
    states, P = transition_matrix_bruteforce(3, [-1, 0, 4], 2)
    assert states == list(range(-2, 5))
    ones = ExactMatrix([[1]] * 7)
    assert P @ ones == ones


def test_bruteforce_sparse_digit_char_poly():
    from carrychain.exactmath import ExactPolynomial, char_poly
    from polynomials import poly_divmod

    _, P = transition_matrix_bruteforce(3, [-1, 0, 4], 2)
    quotient = char_poly(P)
    for root in (Fraction(1), Fraction(1, 3), Fraction(1, 9)):
        quotient, rem = poly_divmod(quotient, ExactPolynomial([-root, 1]))
        assert not rem
    # Remaining quartic factor, cleared of denominators:
    assert [c * 2187 for c in quotient.coefficients] == [1, -30, -405, 0, 2187]


def test_carry_interval_holds_every_state():
    for b in range(2, 6):
        for digits in (list(range(b)), list(range(-(b // 2), b - b // 2)),
                       [0, *range(b + 1, 2 * b)]):
            for base, n in itertools.product((b, -b), range(1, 6)):
                states, _ = transition_matrix_bruteforce(base, digits, n)
                low, high = carry_interval(base, digits, n)
                assert low <= states[0] and states[-1] <= high
    # Standard digits 0..b-1 keep carries in [-1, n] for a positive base.
    assert carry_interval(10, list(range(10)), 7) == (-1, 7)
    # (0, 0) where the oracle refuses before it looks for carries.
    for base, digits in ((1, [0]), (-1, [0, 1]), (3, [1, 2]), (3, [])):
        assert carry_interval(base, digits, 5) == (0, 0)


def test_bruteforce_input_validation():
    with pytest.raises(ValueError):
        transition_matrix_bruteforce(3, [1, 2, 3], 2)      # missing 0
    with pytest.raises(ValueError):
        transition_matrix_bruteforce(3, [0, 1, 4], 2)      # residue collision
    with pytest.raises(ValueError):
        transition_matrix_bruteforce(1, [0], 2)
    for n in (0, -3):
        with pytest.raises(ValueError, match="need at least one summand"):
            transition_matrix_bruteforce(2, [0, 1], n)
    # An incomplete set reports the first missing residue the closure meets,
    # each frontier least carry first; each of these is met at a carry != 0.
    # In set order the last two would raise 2 and 1.
    for base, digits, n, r in ((4, [-6, 0], 2, 1), (4, [-6, 0], 3, 3),
                               (4, [0, 6], 2, 3), (6, [0, 4, 26], 2, 3),
                               (-6, [0, 2, 4], 6, 3), (-6, [0, 9], 2, 5),
                               (6, [0, 9], 5, 5)):
        with pytest.raises(ValueError) as exc:
            transition_matrix_bruteforce(base, digits, n)
        assert str(exc.value) == (f"no digit with residue {r} mod {abs(base)}; "
                                  "digit set is incomplete")


def test_find_system_examples():
    sys_ = find_system(3, Fraction(5, 3))
    assert (sys_.base, sys_.d) == (11, -3)
    sys_ = find_system(2, 2)
    assert (sys_.base, sys_.d) == (3, -1)
    sys_ = find_system(4, 2)
    assert (sys_.base, sys_.d) == (7, -1)


def test_find_system_realizes_p():
    for n in (2, 3, 5):
        for p in (Fraction(1), Fraction(2), Fraction(7, 4), Fraction(9, 5)):
            sys_ = find_system(n, p)
            assert p_param(ChainSpec(sys_, n)) == p


def test_find_system_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        find_system(1, 2)
    with pytest.raises(ValueError):
        find_system(3, Fraction(1, 2))


def test_matrix_depends_only_on_shift_class():
    # Same (b, n, p) forces the same matrix even for different least digits.
    a = transition_matrix(spec(3, -1, 3))
    b = transition_matrix(spec(3, 0, 3))
    assert p_param(spec(3, -1, 3)) == p_param(spec(3, 0, 3)) == 1
    assert a == b
