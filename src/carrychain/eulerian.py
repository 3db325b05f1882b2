"""Generalized Eulerian triangles and the arrays that diagonalize carry chains.

For a rational parameter p >= 1 the generalized Eulerian numbers E_p(n, k)
form a triangle (p = 1 is the classical one, p = 2 the MacMahon numbers).
They sit as row 0 of an (n+1) x (n+2) array v[i][j] whose rows, restricted to
the state-space width, are the left eigenvectors of the n-summand carry chain
with parameter p.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import mul


def v_closed(n: int, p, i: int, j: int) -> Fraction:
    """Array entry v[i][j]: alternating binomial sum of (p(j-r)+1)^(n-i).

    Exact for rational p. Valid for 0 <= i <= n and -1 <= j <= n+1, with
    j = -1 giving 0 by convention; j = n+1 always evaluates to 0.
    """
    if not 0 <= i <= n:
        raise ValueError(f"row index i={i} outside 0..{n}")
    if not -1 <= j <= n + 1:
        raise ValueError(f"column index j={j} outside -1..{n + 1}")
    if j == -1:
        return Fraction(0)
    p = Fraction(p)
    return sum(
        ((-1) ** r * comb(n + 1, r) * (p * (j - r) + 1) ** (n - i)
         for r in range(j + 1)),
        Fraction(0))


def alternating_sums(n: int, f: list[int], cols) -> list[int]:
    """sum_{r=0..j} (-1)^r C(n+1, r) f[j-r] for each j in cols, in ints.

    v_closed's sum in integers, behind the eigenvector rows, the stationary
    vector and the closed-form transition matrix; f needs max(cols)+1 values.
    """
    signed = [(-1) ** r * comb(n + 1, r) for r in range(len(f))]
    return [sum(map(mul, signed[:j + 1], reversed(f[:j + 1]))) for j in cols]


def triangle_recurrence(n_max: int, p) -> list[list[Fraction]]:
    """Rows 0..n_max of the triangle E_p, each row of length n+1.

    Built bottom-up from E_p(0, 0) = 1 by the two-term recurrence
    E_p(n, k) = (pk+1) E_p(n-1, k) + (p(n+1-k)-1) E_p(n-1, k-1),
    independent of the closed form (and cross-checked against it in tests).
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    p = Fraction(p)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    rows = [[Fraction(1)]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [Fraction(0)]
        rows.append([
            (p * k + 1) * prev[k]
            + ((p * (n + 1 - k) - 1) * prev[k - 1] if k else Fraction(0))
            for k in range(n + 1)
        ])
    return rows


def stationary(n: int, p, m: int | None = None) -> list[Fraction]:
    """Stationary probabilities of the n-summand chain with parameter p.

    The first m entries of the top array row divided by p^n n!. By default
    m = n+1 for p > 1; for p = 1 the final entry is the trailing zero of the
    triangle, so the vector truncates to the n genuine states.
    """
    p = Fraction(p)
    k, l = p.numerator, p.denominator
    if m is None:
        m = n + 1 if p != 1 else n
    # v[0][j] = W[0][j] / L^n and p^n n! = K^n n! / L^n.
    total = k ** n * factorial(n)
    return [Fraction(w, total) for w in
            alternating_sums(n, [(k * t + l) ** n for t in range(m)], range(m))]
