"""Tests for carry-chain records, state spaces, parameters, and transition
matrices."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrychain.carries import (
    ChainSpec,
    _digit_sum_counts,
    carry_interval,
    find_system,
    p_param,
    state_space,
    transition_matrix,
    transition_matrix_bruteforce,
)
from carrychain.exactmath import ExactMatrix
from cases import (
    chains,
    enumerate_carry_chain,
    frac_matrix,
    oracle_mismatch,
    product_rule_failures,
)


def test_digit_set_and_signed_base():
    chain = ChainSpec(base_magnitude=3, d=-1, n=2)
    assert chain.digits == [-1, 0, 1]
    assert chain.base == 3
    neg = ChainSpec(base_magnitude=3, d=-1, n=2, negative=True)
    assert neg.base == -3


def test_invalid_systems_rejected():
    with pytest.raises(ValueError):
        ChainSpec(base_magnitude=1, d=0, n=2)
    with pytest.raises(ValueError):
        ChainSpec(base_magnitude=3, d=1, n=2)    # 0 not a digit
    with pytest.raises(ValueError):
        ChainSpec(base_magnitude=3, d=-3, n=2)
    with pytest.raises(ValueError):
        ChainSpec(base_magnitude=3, d=-1, n=0)   # no summand


def test_centroid_offset():
    assert ChainSpec(3, -1, 2).centroid_offset == Fraction(-1, 2)
    assert ChainSpec(10, 0, 2).centroid_offset == 0
    assert ChainSpec(3, -1, 2, negative=True).centroid_offset == Fraction(-1, 2)
    assert ChainSpec(6, -3, 2).centroid_offset == Fraction(-3, 5)


def test_state_space_examples():
    assert state_space(ChainSpec(3, -1, 2)) == range(-1, 2)
    assert state_space(ChainSpec(10, 0, 4)) == range(0, 4)
    assert state_space(ChainSpec(3, -1, 2, negative=True)) == range(-1, 2)


def test_state_space_size_rule():
    # n+1 states when (n-1)l is fractional, n states when integral.
    assert len(state_space(ChainSpec(3, -1, 2))) == 3      # l = -1/2
    assert len(state_space(ChainSpec(3, -1, 3))) == 3      # (n-1)l = -1
    assert len(state_space(ChainSpec(10, 0, 7))) == 7      # l = 0
    # So (n, p) fixes the size: n states exactly when p = 1.
    for s in chains(range(2, 9), range(1, 6)):
        assert len(state_space(s)) == s.n + (p_param(s) != 1)


def test_p_param_examples():
    assert p_param(ChainSpec(3, -1, 2)) == 2
    assert p_param(ChainSpec(6, -3, 2)) == Fraction(5, 3)
    assert p_param(ChainSpec(10, 0, 3)) == 1
    assert p_param(ChainSpec(3, -1, 3)) == 1


def test_p_param_negative_base():
    assert p_param(ChainSpec(3, -1, 2, negative=True)) == 2


def test_transition_matrix_rows_stochastic():
    for s in (ChainSpec(7, -1, 4), ChainSpec(11, -3, 3),
              ChainSpec(4, -2, 3, negative=True)):
        P = transition_matrix(s)
        ones = ExactMatrix([[1]] * P.rows)
        assert P @ ones == ones
        assert all(x >= 0 for row in P.to_lists() for x in row)


def test_entry_denominators_divide_base_power():
    s = ChainSpec(5, -2, 3)
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
    assert oracle_mismatch(ChainSpec(b, d, n, negative)) is None


def test_bruteforce_matches_enumeration_on_random_complete_digit_sets():
    # The oracle against the definition, every digit tuple listed, on digit
    # sets with one digit per residue mod b drawn from -15..15, 0 included.
    rng = random.Random(1306)
    for _ in range(400):
        b = rng.randint(2, 5)
        digits = [0] + [rng.choice([x for x in range(-15, 16) if x % b == r])
                        for r in range(1, b)]
        rng.shuffle(digits)
        base = rng.choice((b, -b))
        n = rng.randint(1, 4)
        states, P = transition_matrix_bruteforce(base, digits, n)
        want_states, rows = enumerate_carry_chain(base, digits, digits, n)
        assert states == want_states, (base, digits, n)
        assert P == frac_matrix(rows, b ** n), (base, digits, n)


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
    for digits in ([0, 1, 4], [4, 1, 0]):                # residue collision
        with pytest.raises(ValueError, match="^digits 1 and 4 collide mod 3$"):
            transition_matrix_bruteforce(3, digits, 2)
    with pytest.raises(ValueError):
        transition_matrix_bruteforce(1, [0], 2)
    for n in (0, -3):
        with pytest.raises(ValueError, match="need at least one summand"):
            transition_matrix_bruteforce(2, [0, 1], n)
    # An incomplete set reports the first missing residue the closure meets,
    # each frontier least carry first and each carry's digit sums least
    # first, so the digits' order does not matter. All but the base-5 case
    # are met at a carry != 0; there, sums in the order the digits 1, 0
    # produce them would meet residue 3 first.
    for base, digits, n, r in ((4, [-6, 0], 2, 1), (4, [-6, 0], 3, 3),
                               (4, [0, 6], 2, 3), (6, [0, 4, 26], 2, 3),
                               (-6, [0, 2, 4], 6, 3), (-6, [0, 9], 2, 5),
                               (6, [0, 9], 5, 5), (5, [0, 1], 3, 2)):
        for ordered in (digits, digits[::-1]):
            with pytest.raises(ValueError) as exc:
                transition_matrix_bruteforce(base, ordered, n)
            assert str(exc.value) == (
                f"no digit with residue {r} mod {abs(base)}; "
                "digit set is incomplete"), ordered


def test_find_system_examples():
    assert find_system(3, Fraction(5, 3)) == ChainSpec(11, -3, 3)
    assert find_system(2, 2) == ChainSpec(3, -1, 2)
    assert find_system(4, 2) == ChainSpec(7, -1, 4)


def test_find_system_realizes_p():
    for n in (2, 3, 5):
        for p in (Fraction(1), Fraction(2), Fraction(7, 4), Fraction(9, 5)):
            chain = find_system(n, p)
            assert chain.n == n and p_param(chain) == p


def test_find_system_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        find_system(1, 2)
    with pytest.raises(ValueError):
        find_system(3, Fraction(1, 2))


def test_matrix_depends_only_on_shift_class():
    # Same (b, n, p) forces the same matrix even for different least digits.
    a = transition_matrix(ChainSpec(3, -1, 3))
    b = transition_matrix(ChainSpec(3, 0, 3))
    assert p_param(ChainSpec(3, -1, 3)) == p_param(ChainSpec(3, 0, 3)) == 1
    assert a == b


def test_product_rule_for_offset_and_negative_bases():
    # Holte (1997), extended to offset digits and negative bases.
    assert product_rule_failures(range(2, 6), range(1, 6)) == ([], 1572)
