"""Arithmetic on ExactPolynomial that only the tests need.

Products, scaling and exact long division build and factor the reference
characteristic polynomials; evaluation checks roots and determinants.
A polynomial is the coefficient list of ExactPolynomial, ascending.
"""

from fractions import Fraction

from carrychain.exactmath import ExactPolynomial


def poly_degree(a: ExactPolynomial) -> int:
    """Degree of the polynomial; -1 for the zero polynomial."""
    return len(a.coefficients) - 1


def poly_eval(a: ExactPolynomial, x) -> Fraction:
    """a(x) by Horner's rule, exact for rational x."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(a.coefficients):
        acc = acc * x + c
    return acc


def poly_mul(a: ExactPolynomial, b: ExactPolynomial) -> ExactPolynomial:
    if not a or not b:
        return ExactPolynomial([])
    out = [Fraction(0)] * (len(a.coefficients) + len(b.coefficients) - 1)
    for i, x in enumerate(a.coefficients):
        for j, y in enumerate(b.coefficients):
            out[i + j] += x * y
    return ExactPolynomial(out)


def poly_scale(a: ExactPolynomial, c) -> ExactPolynomial:
    c = Fraction(c)
    return ExactPolynomial([c * x for x in a.coefficients])


def poly_divmod(a: ExactPolynomial, divisor: ExactPolynomial):
    """Exact polynomial long division: returns (quotient, remainder)."""
    if not divisor:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coefficients)
    d = divisor.coefficients
    dn = len(d) - 1
    lead = d[-1]
    quo = [Fraction(0)] * max(len(rem) - dn, 0)
    for i in range(len(rem) - 1, dn - 1, -1):
        q = rem[i] / lead
        quo[i - dn] = q
        if q:
            for j in range(dn + 1):
                rem[i - dn + j] -= q * d[j]
    return ExactPolynomial(quo), ExactPolynomial(rem[:dn])
