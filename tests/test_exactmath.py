"""Tests for the exact rational matrix and polynomial layer."""

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from carrychain.carries import transition_matrix, transition_matrix_bruteforce
from carrychain.exactmath import (
    ExactMatrix,
    ExactPolynomial,
    char_poly,
    determinant,
    ratio_text,
)
from cases import chains
from polynomials import poly_degree, poly_divmod, poly_eval, poly_mul, poly_scale

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12)


def small_matrices(n, entries=rationals):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n),
        min_size=n, max_size=n).map(ExactMatrix)


# About half the entries are zero, so Bareiss meets zero pivots and swaps rows.
sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)
sparse_matrices = st.integers(1, 7).flatmap(
    lambda m: small_matrices(m, sparse_rationals))


def identity(n):
    return ExactMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def diagonal(values):
    return ExactMatrix([[v if i == j else 0 for j in range(len(values))]
                        for i, v in enumerate(values)])


def test_identity_and_diagonal():
    ident = identity(3).to_lists()
    assert ident[0][0] == 1 and ident[0][1] == 0
    diag = diagonal([1, Fraction(1, 2), Fraction(1, 4)]).to_lists()
    assert diag[1][1] == Fraction(1, 2)
    assert diag[2][0] == 0


def test_matmul_known_product():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert a @ b == ExactMatrix([[2, 1], [4, 3]])


def test_matmul_dimension_mismatch():
    a = ExactMatrix([[1, 2]])
    with pytest.raises(ValueError):
        a @ a


def test_malformed_and_non_square_inputs_raise():
    for entries in ([], [[]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            ExactMatrix(entries)
    wide = ExactMatrix([[1, 2]])
    for f in (determinant, char_poly):
        with pytest.raises(ValueError, match="non-square"):
            f(wide)


def test_row_sums_and_trace():
    m = ExactMatrix([[Fraction(1, 3), Fraction(2, 3)],
                     [Fraction(1, 2), Fraction(1, 2)]])
    ones = ExactMatrix([[1], [1]])
    assert m @ ones == ones
    rows = m.to_lists()
    assert rows[0][0] + rows[1][1] == Fraction(5, 6)


def test_determinant_known_values():
    assert determinant(ExactMatrix([[2]])) == 2
    assert determinant(ExactMatrix([[1, 2], [3, 4]])) == -2
    assert determinant(identity(5)) == 1
    singular = ExactMatrix([[1, 2], [2, 4]])
    assert determinant(singular) == 0


def test_determinant_rational_entries():
    m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)],
                     [Fraction(1, 5), Fraction(1, 7)]])
    assert determinant(m) == Fraction(1, 14) - Fraction(1, 15)


def test_determinant_needs_pivot_swap():
    m = ExactMatrix([[0, 1], [1, 0]])
    assert determinant(m) == -1


@settings(max_examples=40, deadline=None)
@given(small_matrices(3), small_matrices(3))
def test_determinant_multiplicative(a, b):
    assert determinant(a @ b) == determinant(a) * determinant(b)


@settings(max_examples=30, deadline=None)
@given(small_matrices(2), small_matrices(2), small_matrices(2))
def test_matmul_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)


def test_polynomial_evaluation_and_product():
    p = ExactPolynomial([1, 2, 1])   # (x + 1)^2
    assert poly_eval(p, 3) == 16
    q = ExactPolynomial([-1, 1])     # x - 1
    assert poly_eval(poly_mul(p, q), 2) == poly_eval(p, 2) * poly_eval(q, 2)
    assert poly_degree(poly_mul(p, q)) == 3


def test_polynomial_trims_leading_zeros():
    p = ExactPolynomial([1, 0, 0])
    assert poly_degree(p) == 0
    assert not ExactPolynomial([0, 0])


def test_polynomial_repr_lists_exact_coefficients():
    assert (repr(ExactPolynomial([1, 2]))
            == "ExactPolynomial([Fraction(1, 1), Fraction(2, 1)])")


def test_polynomial_divmod_exact():
    # x^3 - 1 = (x - 1)(x^2 + x + 1)
    cubic = ExactPolynomial([-1, 0, 0, 1])
    quo, rem = poly_divmod(cubic, ExactPolynomial([-1, 1]))
    assert rem == ExactPolynomial([])
    assert quo == ExactPolynomial([1, 1, 1])


def test_polynomial_divmod_remainder():
    quo, rem = poly_divmod(ExactPolynomial([1, 0, 1]), ExactPolynomial([-1, 1]))
    assert quo == ExactPolynomial([1, 1])
    assert rem == ExactPolynomial([2])


def test_char_poly_diagonal_matrix():
    m = diagonal([1, 2, 3])
    cp = char_poly(m)
    for root in (1, 2, 3):
        assert poly_eval(cp, root) == 0
    assert poly_eval(cp, 4) != 0
    assert cp.coefficients[-1] == 1


# No shrink phase: the same 30 examples, but a wrong char_poly fails on the
# first bad one instead of spending a minute shrinking it.
@settings(max_examples=30, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(small_matrices(3))
def test_char_poly_evaluates_like_determinant(a):
    cp, rows = char_poly(a), a.to_lists()
    for x in (Fraction(0), Fraction(1), Fraction(-2, 3)):
        shifted = ExactMatrix([[x * (i == j) - rows[i][j] for j in range(3)]
                               for i in range(3)])
        assert poly_eval(cp, x) == determinant(shifted)


def test_char_poly_trace_and_det_coefficients():
    a = ExactMatrix([[1, 2], [3, 4]])
    cp = char_poly(a)
    # x^2 - (tr)x + det
    assert cp.coefficients == [Fraction(-2), Fraction(-5), Fraction(1)]


def test_equal_rows_in_any_scaling_compare_equal():
    third = ExactMatrix([[Fraction(1, 3), Fraction(2, 3)], [0, 0]])
    assert ExactMatrix.from_int_rows([[2, 4], [0, 0]], [6, 7]) == third
    assert ExactMatrix.from_int_rows([[-4, 6]], [10]) == ExactMatrix(
        [[Fraction(-2, 5), Fraction(3, 5)]])
    assert ExactMatrix.from_int_rows([[10, 20], [0, 0]], [30, 1]) == third
    assert ExactMatrix([[Fraction(2, 6), Fraction(4, 6)], [0, Fraction(0, 9)]]) == third
    assert ExactMatrix([[1, 2]]) != ExactMatrix([[Fraction(1, 2), 1]])


def test_to_lists_returns_normalized_fractions():
    m = ExactMatrix.from_int_rows([[6, -4, 0], [0, 0, 0]], [8, 5])
    rows = m.to_lists()
    assert rows == [[Fraction(3, 4), Fraction(-1, 2), 0], [0, 0, 0]]
    for row in rows:
        for x in row:
            assert type(x) is Fraction and x.denominator > 0
    assert [(x.numerator, x.denominator) for x in rows[0]] == [(3, 4), (-1, 2), (0, 1)]
    # ratios() reads the same reduced pairs without building a Fraction.
    assert list(m.ratios()) == [[(3, 4), (-1, 2), (0, 1)], [(0, 1)] * 3]
    for x in (Fraction(0), Fraction(-5), Fraction(-3, 4), Fraction(10 ** 30, 7)):
        assert ratio_text(x.numerator, x.denominator) == str(x)


def interpolated_char_poly(a):
    """det(xI - A) by Bareiss at m+1 rational points, Lagrange-interpolated."""
    m, rows = a.rows, a.to_lists()
    points = [Fraction(t, 3) for t in range(-(m // 2), m + 1 - m // 2)]
    coeffs = [Fraction(0)] * (m + 1)
    for x in points:
        shifted = [[x * (i == j) - v for j, v in enumerate(row)]
                   for i, row in enumerate(rows)]
        basis = ExactPolynomial([1])
        for y in points:
            if y != x:
                basis = poly_mul(
                    basis, poly_scale(ExactPolynomial([-y, 1]), 1 / (x - y)))
        value = determinant(ExactMatrix(shifted))
        for k, c in enumerate(basis.coefficients):
            coeffs[k] += value * c
    return ExactPolynomial(coeffs)


@settings(max_examples=80, deadline=None)
@given(sparse_matrices)
def test_char_poly_matches_interpolated_determinant(a):
    assert char_poly(a) == interpolated_char_poly(a)


def test_char_poly_matches_interpolation_on_carry_chains():
    # Each closed-form chain's polynomial is also the paper's spectrum
    # expanded, prod_{k<m} (x - base^-k), for either sign of the base.
    for s in chains(range(2, 8), range(1, 7)):
        P = transition_matrix(s)
        got = char_poly(P)
        assert got == interpolated_char_poly(P), s
        want = ExactPolynomial([1])
        for k in range(P.rows):
            want = poly_mul(want, ExactPolynomial(
                [-Fraction(1, s.base ** k), 1]))
        assert got == want, s
    _, P = transition_matrix_bruteforce(3, [-1, 0, 4], 2)
    assert char_poly(P) == interpolated_char_poly(P)
