"""Identities of the generalized Eulerian array, checked against v_closed.

Each check returns the index pairs where its identity fails, so a failing
test names them; every check is expected to return an empty list. The full
array and its row sums are built here too, from v_closed.
"""

from fractions import Fraction

from carrychain.eulerian import v_closed


def eulerian_array(n: int, p) -> list[list[Fraction]]:
    """The full (n+1) x (n+2) array; the extra last column is all zeros."""
    return [[v_closed(n, p, i, j) for j in range(n + 2)] for i in range(n + 1)]


def row_sums(n: int, p) -> list[Fraction]:
    """Sum over j of v[i][j] for each i: p^n n! at i = 0 and 0 for i > 0."""
    return [sum((v_closed(n, p, i, j) for j in range(n + 2)), Fraction(0))
            for i in range(n + 1)]


def array_recurrence_check(n: int, p) -> list[tuple[int, int]]:
    """Index pairs (i, j) where the array recurrence fails; expected empty.

    Checks v[i][j](n) = (p(n+1-j) - 1) v[i][j-1](n-1) + (pj+1) v[i][j](n-1)
    for all 0 <= i <= n-1 and 0 <= j <= n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 to compare with n-1, got {n}")
    p = Fraction(p)
    bad = []
    for i in range(n):
        for j in range(n + 1):
            lhs = v_closed(n, p, i, j)
            rhs = ((p * (n + 1 - j) - 1) * v_closed(n - 1, p, i, j - 1)
                   + (p * j + 1)
                   * (v_closed(n - 1, p, i, j) if j <= n else Fraction(0)))
            if lhs != rhs:
                bad.append((i, j))
    return bad


def conjugate_parameter(p) -> Fraction:
    """The p* with 1/p + 1/p* = 1, pairing a triangle with its reflection."""
    p = Fraction(p)
    if p <= 1:
        raise ValueError(f"no finite conjugate for p={p}; need p > 1")
    return p / (p - 1)


def symmetry_check(n: int, p) -> list[tuple[int, int]]:
    """Index pairs where the reflection identity fails; expected empty.

    For p = 1: v[i][n-1-j] = (-1)^i v[i][j] over 0 <= i, j <= n-1, the
    index square that actually enters the n-state eigenvector matrix (the
    identity genuinely fails on the extra row i = n).
    For p > 1: v*[i][n-j] = (-1)^i (p*/p)^(n-i) v[i][j] over 0 <= i, j <= n,
    where v* is the array of the conjugate parameter p*.
    """
    p = Fraction(p)
    bad = []
    if p == 1:
        for i in range(n):
            for j in range(n):
                if v_closed(n, 1, i, n - 1 - j) != (-1) ** i * v_closed(n, 1, i, j):
                    bad.append((i, j))
        return bad
    ps = conjugate_parameter(p)
    for i in range(n + 1):
        for j in range(n + 1):
            lhs = v_closed(n, ps, i, n - j)
            rhs = (-1) ** i * (ps / p) ** (n - i) * v_closed(n, p, i, j)
            if lhs != rhs:
                bad.append((i, j))
    return bad
