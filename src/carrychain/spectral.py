"""Exact spectral verification of carry chains.

The left eigenvector matrix V is built from the generalized Eulerian array,
the predicted spectrum is (1, base^-1, ..., base^-(m-1)) with the signed
base, and every claim (V P = D V, det V != 0, pi P = pi, row-stochasticity,
sum(pi) = 1) is checked by exact rational equality. Every matrix check fails
the same way: the first mismatching entry as reduced num/den text, and how
many entries and rows differ.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .carries import (
    ChainSpec,
    chain_stationary,
    p_param,
    state_space,
    transition_matrix,
)
from .eulerian import alternating_sums
from .exactmath import ExactMatrix, determinant, ratio_text


class CheckResult(namedtuple("CheckResult", "passed detail", defaults=("",))):
    __slots__ = ()


class ChainReport(namedtuple("ChainReport",
                             "spec states p P V spectrum pi verdicts")):
    __slots__ = ()

    @property
    def verified(self) -> bool:
        return all(v.passed for v in self.verdicts.values())


def eigen_matrix(n: int, p, m: int, *, reverse: bool = False) -> ExactMatrix:
    """m x m matrix of left eigenvectors, rows indexed by eigenvalue order.

    Entry (i, j) is the array value v[i][j]; with ``reverse`` the columns
    are flipped (entry (i, j) = v[i][m-1-j]), which is the alignment that
    matches negative-base chains, whose state order is mirrored.

    For p = K/L, row i is the integer row
    W[i][j] = sum_r (-1)^r C(n+1, r) (K(j-r) + L)^(n-i) over L^(n-i).
    """
    p = Fraction(p)
    k, l = p.numerator, p.denominator
    cols = range(m - 1, -1, -1) if reverse else range(m)
    rows = [alternating_sums(n, [(k * t + l) ** (n - i) for t in range(m)], cols)
            for i in range(m)]
    return ExactMatrix.from_int_rows(rows, [l ** (n - i) for i in range(m)])


def chain_spectrum(base: int, m: int) -> list[Fraction]:
    """Predicted eigenvalues (1, base^-1, ..., base^-(m-1)), signed base."""
    return [Fraction(1, base ** i) for i in range(m)]


def _compare(got: ExactMatrix, want: ExactMatrix) -> CheckResult:
    """CheckResult of got == want, with the first mismatch and its extent."""
    if got == want:
        return CheckResult(True)
    bad = [(i, j, x, y)
           for i, (a, b) in enumerate(zip(got.ratios(), want.ratios()))
           for j, (x, y) in enumerate(zip(a, b)) if x != y]
    i, j, x, y = bad[0]
    rows = len({r for r, *_ in bad})
    return CheckResult(False, (
        f"first mismatch at ({i},{j}): {ratio_text(*x)} != {ratio_text(*y)}; "
        f"{len(bad)} of {got.rows * got.cols} entries in {rows} of {got.rows} "
        f"rows differ"))


def verify_diagonalization(spec: ChainSpec) -> ChainReport:
    """Run every exact spectral check for one chain and report verdicts.

    Checks: rows of P sum to 1; V P = D V with D = diag(spectrum);
    det(V) != 0 (so V really diagonalizes P); pi P = pi; sum(pi) = 1.
    When V P = D V holds, det(V) != 0 is proved from it (no zero row);
    otherwise the exact determinant decides. Every other check compares
    two matrices, so each failure counts what differs (_compare).
    """
    states = state_space(spec)
    m = len(states)
    p = p_param(spec)
    P = transition_matrix(spec)
    V = eigen_matrix(spec.n, p, m, reverse=spec.negative)
    spectrum = chain_spectrum(spec.base, m)
    pi = chain_stationary(spec)

    ones = ExactMatrix([[1]] * m)
    verdicts: dict[str, CheckResult] = {}
    verdicts["row_stochastic"] = _compare(P @ ones, ones)
    verdicts["eigenvector_equation"] = _compare(V @ P, V.scale_rows(spectrum))

    if verdicts["eigenvector_equation"].passed and len(set(spectrum)) == m:
        # Each row of V is then a left eigenvector of P for its own, pairwise
        # distinct eigenvalue, and such vectors are linearly independent
        # unless one is zero: det(V) != 0 iff no row of V is zero.
        nonsingular = all(any(row) for row, _ in V.int_rows())
    else:
        nonsingular = determinant(V) != 0
    verdicts["eigenbasis_nonsingular"] = CheckResult(
        nonsingular, "" if nonsingular else "det(V) = 0")

    pi_row = ExactMatrix([pi])
    verdicts["stationary_fixed"] = _compare(pi_row @ P, pi_row)
    verdicts["stationary_normalized"] = _compare(pi_row @ ones,
                                                 ExactMatrix([[1]]))

    return ChainReport(spec=spec, states=list(states), p=p, P=P, V=V,
                       spectrum=spectrum, pi=pi, verdicts=verdicts)

