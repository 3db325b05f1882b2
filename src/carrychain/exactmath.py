"""Exact dense matrices and polynomials over arbitrary-precision rationals.

A matrix row is a list of ints over one positive denominator, reduced so
that gcd(den, *row) == 1 (a zero row has denominator 1). The form is
canonical, so equality is list equality, and all matrix arithmetic runs on
ints; Fractions appear only where values enter or leave a matrix.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul


class ExactMatrix:
    """Dense row-major matrix of exact rationals, stored as reduced int rows."""

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [[Fraction(x) for x in row] for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged rows")
        # Over the lcm of its reduced denominators a row is already reduced.
        self._den = [lcm(*(x.denominator for x in row)) for row in rows]
        self._num = [[x.numerator * (d // x.denominator) for x in row]
                     for row, d in zip(rows, self._den)]
        self.rows, self.cols = len(rows), len(rows[0])

    @classmethod
    def from_int_rows(cls, num: list[list[int]], den: list[int]) -> "ExactMatrix":
        """Matrix whose row i is num[i] / den[i]; rows of equal length, den > 0."""
        g = [gcd(d, *row) for row, d in zip(num, den)]
        out = cls.__new__(cls)
        out._num = [[x // gi for x in row] for row, gi in zip(num, g)]
        out._den = [d // gi for d, gi in zip(den, g)]
        out.rows, out.cols = len(num), len(num[0])
        return out

    def int_rows(self):
        """(row, den) pairs, row i being row / den in reduced form; read only."""
        return zip(self._num, self._den)

    def ratios(self):
        """Each row as a list of reduced (num, den) int pairs, den > 0."""
        for row, den in zip(self._num, self._den):
            yield [(x // (g := gcd(x, den)), den // g) for x in row]

    def to_lists(self) -> list[list[Fraction]]:
        return [[Fraction(x, d) for x in row]
                for row, d in zip(self._num, self._den)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix)
                and self._den == other._den and self._num == other._num)

    def __repr__(self) -> str:
        rows = ["[" + ", ".join(f"Fraction({x}, {d})" for x, d in row) + "]"
                for row in self.ratios()]
        return f"ExactMatrix([{', '.join(rows)}])"

    def _common(self) -> tuple[int, list[list[int]]]:
        """(B, B * self) with B the lcm of the row denominators."""
        big = lcm(*self._den)
        return big, [[x * (big // d) for x in row]
                     for row, d in zip(self._num, self._den)]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) @ "
                f"({other.rows}x{other.cols})")
        big, right = other._common()
        cols = list(zip(*right))
        return ExactMatrix.from_int_rows(
            [[sum(map(mul, row, col)) for col in cols] for row in self._num],
            [d * big for d in self._den])

    def scale_rows(self, factors: Sequence) -> "ExactMatrix":
        """Row i multiplied by the rational factors[i]."""
        fs = [Fraction(f) for f in factors]
        return ExactMatrix.from_int_rows(
            [[x * f.numerator for x in row] for row, f in zip(self._num, fs)],
            [d * f.denominator for d, f in zip(self._den, fs)])


def ratio_text(num: int, den: int) -> str:
    """The text of num/den as str(Fraction) writes it: "num" when den is 1."""
    return f"{num}/{den}" if den != 1 else str(num)


def determinant(a: ExactMatrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Runs on the integer rows, so every intermediate value is an integer;
    the product of the row denominators is divided back out at the end.
    """
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    m = [list(row) for row in a._num]
    sign = prev = 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot, tail = m[k][k], m[k][k + 1:]
        for i in range(k + 1, n):
            f = m[i][k]
            m[i] = [0] * (k + 1) + [(x * pivot - f * y) // prev
                                    for x, y in zip(m[i][k + 1:], tail)]
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], prod(a._den))


class ExactPolynomial:
    """Polynomial with exact rational coefficients, ascending degree."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = coeffs

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactPolynomial)
                and self.coefficients == other.coefficients)

    def __repr__(self) -> str:
        return f"ExactPolynomial({self.coefficients!r})"


def char_poly(a: ExactMatrix) -> ExactPolynomial:
    """Characteristic polynomial det(xI - A), monic, exact.

    Division-free Berkowitz recursion on the integer matrix B*A, B the lcm of
    the row denominators; det(xI - BA) = B^m det((x/B)I - A), so ascending
    coefficient k is that of B*A times B^(k-m).
    """
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    big, w = a._common()
    poly = [1, -w[0][0]]  # descending, of the leading 1x1 block
    for k in range(1, a.rows):
        # Toeplitz column 1, -w_kk, -R C, -R M C, ..., -R M^(k-1) C of the
        # leading block M bordered by column C and row R.
        block = [row[:k] for row in w[:k]]
        row, vec = w[k][:k], [r[k] for r in w[:k]]
        column = [1, -w[k][k]]
        for t in range(k):
            if t:
                vec = [sum(map(mul, r, vec)) for r in block]
            column.append(-sum(map(mul, row, vec)))
        poly = [sum(column[i - j] * poly[j] for j in range(min(i, k) + 1))
                for i in range(k + 2)]
    return ExactPolynomial([Fraction(c, big ** i)
                            for i, c in enumerate(poly)][::-1])
