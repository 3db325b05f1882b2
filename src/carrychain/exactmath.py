"""Exact dense matrices and polynomials over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` throughout: always normalized (positive
denominator, gcd 1), so equality of results is plain ``==``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

def _as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class ExactMatrix:
    """Dense row-major matrix of exact rationals."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [[_as_rational(x) for x in row] for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        ncols = len(rows[0])
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = ncols
        self._data = rows

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Iterable) -> "ExactMatrix":
        vals = [_as_rational(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else Fraction(0) for j in range(n)]
                    for i in range(n)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._data[i][j]

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self._data]

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix)
                and self._data == other._data)

    def __repr__(self) -> str:
        return f"ExactMatrix({self._data!r})"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in subtraction")
        return ExactMatrix([[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self._data, other._data)])

    def scale(self, c) -> "ExactMatrix":
        c = _as_rational(c)
        return ExactMatrix([[c * x for x in row] for row in self._data])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) @ "
                f"({other.rows}x{other.cols})")
        bt = list(zip(*other._data))
        return ExactMatrix([[sum(a * b for a, b in zip(row, col))
                             for col in bt] for row in self._data])

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum((self._data[i][i] for i in range(self.rows)),
                   Fraction(0))

    def row_sums(self) -> list[Fraction]:
        return [sum(row, Fraction(0)) for row in self._data]


def determinant(a: ExactMatrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Rows are first scaled to integers to keep all intermediate values
    integral; the accumulated scale is divided back out at the end.
    """
    if not a.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    scale = 1
    m: list[list[int]] = []
    for row in a.to_lists():
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        m.append([int(x * mult) for x in row])

    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], scale)


class ExactPolynomial:
    """Polynomial with exact rational coefficients, ascending degree."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence):
        coeffs = [_as_rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactPolynomial)
                and self.coefficients == other.coefficients)

    def __repr__(self) -> str:
        return f"ExactPolynomial({self.coefficients!r})"

    def __call__(self, x) -> Fraction:
        x = _as_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if not self or not other:
            return ExactPolynomial([])
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return ExactPolynomial(out)

    def scale(self, c) -> "ExactPolynomial":
        c = _as_rational(c)
        return ExactPolynomial([c * x for x in self.coefficients])

    def divmod(self, divisor: "ExactPolynomial"):
        """Exact polynomial long division: returns (quotient, remainder)."""
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
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


def char_poly(a: ExactMatrix) -> ExactPolynomial:
    """Characteristic polynomial det(xI - A), monic, exact.

    Faddeev-LeVerrier recursion: only divisions by small integers occur,
    so coefficient growth stays controlled.
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = a.rows
    coeffs_desc = [Fraction(1)]
    m = ExactMatrix.identity(n).to_lists()
    for k in range(1, n + 1):
        # A M_k, computed once, gives c_k and M_{k+1} = A M_k + c_k I.
        product = a @ ExactMatrix(m)
        c = -product.trace() / k
        coeffs_desc.append(c)
        m = product.to_lists()
        for i in range(n):
            m[i][i] += c
    return ExactPolynomial(list(reversed(coeffs_desc)))
