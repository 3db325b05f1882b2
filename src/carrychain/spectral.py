"""Exact spectral verification of carry chains.

The left eigenvector matrix V is built from the generalized Eulerian array,
the predicted spectrum is (1, base^-1, ..., base^-(m-1)) with the signed
base, and every claim (V P = D V, det V != 0, pi P = pi, row-stochasticity)
is checked by exact rational equality. Failures are reported as structured
diffs, never silently.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .carries import ChainSpec, p_param, state_space, transition_matrix
from .eulerian import alternating_sums, stationary
from .exactmath import ExactMatrix, is_nonsingular


class CheckResult(namedtuple("CheckResult", "passed detail", defaults=("",))):
    __slots__ = ()


class ChainReport(namedtuple("ChainReport",
                             "spec states p P V spectrum pi verdicts")):
    __slots__ = ()

    def __new__(cls, spec: ChainSpec, states: list[int], p: Fraction,
                P: ExactMatrix, V: ExactMatrix, spectrum: list[Fraction],
                pi: list[Fraction],
                verdicts: dict[str, CheckResult] | None = None):
        return super().__new__(cls, spec, states, p, P, V, spectrum, pi,
                               {} if verdicts is None else verdicts)

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


def chain_stationary(spec: ChainSpec) -> list[Fraction]:
    """Stationary vector in ascending state order for the given chain.

    For positive base this is the Eulerian row over p^n n!; for negative
    base the same vector reversed, mirroring the state order.
    """
    pi = stationary(spec.n, p_param(spec))
    return pi[::-1] if spec.system.negative else pi


def _first_diff(a: ExactMatrix, b: ExactMatrix) -> str:
    """The first mismatch of two unequal same-shape matrices, and its extent."""
    a_rows, b_rows = a.to_lists(), b.to_lists()
    bad = [(i, j) for i, (ra, rb) in enumerate(zip(a_rows, b_rows))
           for j, (x, y) in enumerate(zip(ra, rb)) if x != y]
    i, j = bad[0]
    rows = len({r for r, _ in bad})
    return (f"first mismatch at ({i},{j}): {a_rows[i][j]} != {b_rows[i][j]}; "
            f"{len(bad)} of {a.rows * a.cols} entries in {rows} of {a.rows} "
            f"rows differ")


def verify_diagonalization(spec: ChainSpec) -> ChainReport:
    """Run every exact spectral check for one chain and report verdicts.

    Checks: rows of P sum to 1; V P = D V with D = diag(spectrum);
    det(V) != 0 (so V really diagonalizes P); pi P = pi; sum(pi) = 1.
    When V P = D V holds, det(V) != 0 is proved from it (no zero row);
    otherwise is_nonsingular decides. All comparisons are exact; failures
    carry a structured diff.
    """
    space = state_space(spec)
    m = space.size
    p = p_param(spec)
    P = transition_matrix(spec)
    V = eigen_matrix(spec.n, p, m, reverse=spec.system.negative)
    spectrum = chain_spectrum(spec.system.base, m)
    pi = chain_stationary(spec)

    verdicts: dict[str, CheckResult] = {}

    sums = P.row_sums()
    bad_rows = [i for i, s in enumerate(sums) if s != 1]
    verdicts["row_stochastic"] = CheckResult(
        not bad_rows,
        "" if not bad_rows else f"rows {bad_rows} sum to {[sums[i] for i in bad_rows]}")

    VP, DV = V @ P, V.scale_rows(spectrum)
    equation = VP == DV
    verdicts["eigenvector_equation"] = CheckResult(
        equation, "" if equation else _first_diff(VP, DV))

    if equation and len(set(spectrum)) == m:
        # Each row of V is then a left eigenvector of P for its own, pairwise
        # distinct eigenvalue, and such vectors are linearly independent
        # unless one is zero: det(V) != 0 iff no row of V is zero.
        nonsingular = all(any(row) for row, _ in V.int_rows())
    else:
        nonsingular = is_nonsingular(V)
    verdicts["eigenbasis_nonsingular"] = CheckResult(
        nonsingular, "" if nonsingular else "det(V) = 0")

    pi_next = (ExactMatrix([pi]) @ P).to_lists()[0]
    verdicts["stationary_fixed"] = CheckResult(
        pi_next == pi,
        "" if pi_next == pi else f"pi P = {pi_next}, pi = {pi}")

    total = sum(pi, Fraction(0))
    verdicts["stationary_normalized"] = CheckResult(
        total == 1, "" if total == 1 else f"sum(pi) = {total}")

    return ChainReport(spec=spec, states=space.states, p=p, P=P, V=V,
                       spectrum=spectrum, pi=pi, verdicts=verdicts)


def commutes(spec1: ChainSpec, spec2: ChainSpec) -> bool:
    """Exact check that two same-(n, p) chains have commuting matrices.

    (n, p) fixes the state count: n states when p = 1, else n + 1.
    """
    if spec1.n != spec2.n:
        raise ValueError(f"summand counts differ: {spec1.n} != {spec2.n}")
    if p_param(spec1) != p_param(spec2):
        raise ValueError(
            f"parameters differ: {p_param(spec1)} != {p_param(spec2)}")
    p1 = transition_matrix(spec1)
    p2 = transition_matrix(spec2)
    return p1 @ p2 == p2 @ p1
