"""Tests for exact diagonalization, spectra, and commutation of carry chains."""

from fractions import Fraction
from math import gcd

import pytest

from carrychain.carries import ChainSpec, transition_matrix, transition_matrix_bruteforce
from carrychain.eulerian import v_closed
from carrychain.exactmath import ExactMatrix, determinant
from carrychain.numeration import NumerationSystem
from carrychain.spectral import (
    chain_spectrum,
    chain_stationary,
    commutes,
    eigen_matrix,
    verify_diagonalization,
)


def spectrum_probe(P: ExactMatrix,
                   candidates: list[Fraction]) -> list[tuple[Fraction, bool]]:
    """Exact eigenvalue membership test for each candidate rational.

    A candidate lam is an eigenvalue iff det(P - lam I) = 0; the
    determinant is exact, so there are no tolerance questions.
    """
    rows = P.to_lists()
    out = []
    for lam in candidates:
        lam = Fraction(lam)
        shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(rows)]
        out.append((lam, determinant(ExactMatrix(shifted)) == 0))
    return out


def spec(b, d, n, negative=False):
    return ChainSpec(NumerationSystem(b, d, negative=negative), n)


def test_eigen_matrix_reference_p2_n2():
    assert eigen_matrix(2, 2, 3) == ExactMatrix(
        [[1, 6, 1], [1, 0, -1], [1, -2, 1]])


def test_eigen_matrix_reference_p53_n2():
    assert eigen_matrix(2, Fraction(5, 3), 3) == ExactMatrix([
        [1, Fraction(37, 9), Fraction(4, 9)],
        [1, Fraction(-1, 3), Fraction(-2, 3)],
        [1, -2, 1],
    ])


def test_eigen_matrix_reference_p2_n4():
    assert eigen_matrix(4, 2, 5) == ExactMatrix([
        [1, 76, 230, 76, 1],
        [1, 22, 0, -22, -1],
        [1, 4, -10, 4, 1],
        [1, -2, 0, 2, -1],
        [1, -4, 6, -4, 1],
    ])


def test_eigen_matrix_matches_v_closed():
    for l in range(1, 7):
        for k in (l, l + 1, 2 * l + 1, 3 * l + 2):
            if gcd(k, l) != 1:
                continue
            p = Fraction(k, l)
            for n in range(1, 13):
                m = n + 1
                v = [[v_closed(n, p, i, j) for j in range(m)] for i in range(m)]
                assert eigen_matrix(n, p, m).to_lists() == v, (p, n)
                assert eigen_matrix(n, p, m, reverse=True).to_lists() == [
                    row[::-1] for row in v], (p, n)
                assert eigen_matrix(n, p, n) == ExactMatrix(
                    [row[:n] for row in v[:n]]), (p, n)


def test_chain_spectrum_signs():
    assert chain_spectrum(3, 3) == [1, Fraction(1, 3), Fraction(1, 9)]
    assert chain_spectrum(-3, 3) == [1, Fraction(-1, 3), Fraction(1, 9)]


def test_verify_positive_base_example():
    report = verify_diagonalization(spec(3, -1, 2))
    assert report.verified
    assert report.spectrum == [1, Fraction(1, 3), Fraction(1, 9)]
    assert report.pi == [Fraction(1, 8), Fraction(6, 8), Fraction(1, 8)]


def test_verify_negative_base_example():
    report = verify_diagonalization(spec(3, -1, 2, negative=True))
    assert report.verified
    assert report.spectrum == [1, Fraction(-1, 3), Fraction(1, 9)]


def test_verify_large_p2_system():
    report = verify_diagonalization(spec(7, -1, 4))
    assert report.verified
    assert report.spectrum == [Fraction(1, 7 ** i) for i in range(5)]


def test_negative_base_stationary_is_reversed():
    pos = chain_stationary(spec(3, -1, 2))
    neg = chain_stationary(spec(3, -1, 2, negative=True))
    assert neg == pos[::-1]


def test_commutes_same_parameter():
    assert commutes(spec(3, -1, 2), spec(9, -4, 2))
    assert commutes(spec(5, -1, 3), spec(5, -1, 3))
    assert commutes(spec(11, -3, 3), spec(21, -6, 3))


def test_commutes_rejects_mismatched_chains():
    with pytest.raises(ValueError):
        commutes(spec(3, -1, 2), spec(3, -1, 3))
    with pytest.raises(ValueError):
        commutes(spec(3, -1, 2), spec(6, -3, 2))   # p = 2 vs 5/3


def test_spectrum_probe_consecutive_chain():
    P = transition_matrix(spec(3, -1, 2))
    probed = spectrum_probe(
        P, [Fraction(1), Fraction(1, 3), Fraction(1, 9), Fraction(1, 2)])
    assert probed == [
        (Fraction(1), True),
        (Fraction(1, 3), True),
        (Fraction(1, 9), True),
        (Fraction(1, 2), False),
    ]


def test_spectrum_probe_sparse_digit_chain():
    _, P = transition_matrix_bruteforce(3, [-1, 0, 4], 2)
    probed = spectrum_probe(P, [Fraction(1), Fraction(1, 3), Fraction(1, 9)])
    assert all(hit for _, hit in probed)


def test_verify_reports_structured_diff_on_corruption():
    report = verify_diagonalization(spec(3, -1, 2))
    # Recheck with a corrupted stationary vector through the public pieces:
    bad = list(report.pi)
    bad[0], bad[1] = bad[1], bad[0]
    P = report.P
    moved = [sum(bad[k] * P[k, j] for k in range(3)) for j in range(3)]
    assert moved != bad


def test_grid_diagonalization_modest():
    for negative in (False, True):
        for b in range(2, 7):
            for d in range(-(b - 1), 1):
                for n in range(1, 5):
                    report = verify_diagonalization(spec(b, d, n, negative))
                    assert report.verified, (b, d, n, negative,
                                             report.verdicts)
