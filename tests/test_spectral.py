"""Tests for exact diagonalization, spectra, and commutation of carry chains."""

from fractions import Fraction
from math import gcd

import pytest

import carrychain.spectral as spectral
from carrychain.carries import (
    ChainSpec,
    transition_matrix,
    transition_matrix_bruteforce,
)
from carrychain.eulerian import v_closed
from carrychain.exactmath import ExactMatrix, determinant
from carrychain.spectral import (
    chain_spectrum,
    chain_stationary,
    commutes,
    eigen_matrix,
    verify_diagonalization,
)
from cases import chains


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
    report = verify_diagonalization(ChainSpec(3, -1, 2))
    assert report.verified
    assert report.spectrum == [1, Fraction(1, 3), Fraction(1, 9)]
    assert report.pi == [Fraction(1, 8), Fraction(6, 8), Fraction(1, 8)]


def test_verify_negative_base_example():
    report = verify_diagonalization(ChainSpec(3, -1, 2, negative=True))
    assert report.verified
    assert report.spectrum == [1, Fraction(-1, 3), Fraction(1, 9)]


def test_verify_large_p2_system():
    report = verify_diagonalization(ChainSpec(7, -1, 4))
    assert report.verified
    assert report.spectrum == [Fraction(1, 7 ** i) for i in range(5)]


def test_negative_base_stationary_is_reversed():
    pos = chain_stationary(ChainSpec(3, -1, 2))
    neg = chain_stationary(ChainSpec(3, -1, 2, negative=True))
    assert neg == pos[::-1]


def test_commutes_same_parameter():
    assert commutes(ChainSpec(3, -1, 2), ChainSpec(9, -4, 2))
    assert commutes(ChainSpec(5, -1, 3), ChainSpec(5, -1, 3))
    assert commutes(ChainSpec(11, -3, 3), ChainSpec(21, -6, 3))


def test_commutes_rejects_mismatched_chains():
    with pytest.raises(ValueError):
        commutes(ChainSpec(3, -1, 2), ChainSpec(3, -1, 3))
    with pytest.raises(ValueError):
        commutes(ChainSpec(3, -1, 2), ChainSpec(6, -3, 2))   # p = 2 vs 5/3


def test_spectrum_probe_consecutive_chain():
    P = transition_matrix(ChainSpec(3, -1, 2))
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


def corrupt_eigen_matrix(monkeypatch, edit):
    """Make verify_diagonalization see eigen_matrix's V with edit(rows)
    applied; returns the list of matrices determinant is called on."""
    calls = []

    def corrupted(*args, **kwargs):
        rows = eigen_matrix(*args, **kwargs).to_lists()
        edit(rows)
        return ExactMatrix(rows)

    def counted(a):
        calls.append(a)
        return determinant(a)

    monkeypatch.setattr(spectral, "eigen_matrix", corrupted)
    monkeypatch.setattr(spectral, "determinant", counted)
    return calls


def test_verify_reports_structured_diff_on_corruption(monkeypatch):
    # V = [[1, 6, 1], [1, 0, -1], [1, -2, 1]] for the base-3 d=-1 n=2 chain.
    def zero_row(rows):
        rows[1] = [0] * len(rows[1])

    calls = corrupt_eigen_matrix(monkeypatch, zero_row)
    verdicts = verify_diagonalization(ChainSpec(3, -1, 2)).verdicts
    assert verdicts["eigenvector_equation"] == (True, "")
    assert verdicts["eigenbasis_nonsingular"] == (False, "det(V) = 0")
    assert calls == []

    def bump_two_rows(rows):
        rows[1][1] += 1
        rows[2][1] += 1

    calls = corrupt_eigen_matrix(monkeypatch, bump_two_rows)
    report = verify_diagonalization(ChainSpec(3, -1, 2))
    assert report.verdicts["eigenvector_equation"] == (
        False, "first mismatch at (1,0): 4/9 != 1/3; "
               "6 of 9 entries in 2 of 3 rows differ")
    assert report.verdicts["eigenbasis_nonsingular"] == (True, "")
    assert calls == [report.V]
    assert not report.verified


def test_eigenbasis_certificate_agrees_with_determinant():
    for s in chains(range(2, 8), range(1, 9)):
        report = verify_diagonalization(s)
        verdicts = report.verdicts
        nonsingular = determinant(report.V) != 0
        assert verdicts["eigenvector_equation"].passed
        assert verdicts["eigenbasis_nonsingular"].passed == nonsingular, s


def corrupt_transition_matrix(monkeypatch, edit):
    """Make verify_diagonalization see transition_matrix's P with edit(rows)
    applied."""
    def corrupted(chain):
        rows = transition_matrix(chain).to_lists()
        edit(rows)
        return ExactMatrix(rows)

    monkeypatch.setattr(spectral, "transition_matrix", corrupted)


def swap_within_row(rows):
    # Row sums stay 1; pi P = pi and V P = D V break.
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]


def swap_across_rows(rows):
    # Rows 0 and 1 no longer sum to 1.
    rows[0][0], rows[1][0] = rows[1][0], rows[0][0]


def test_row_and_stationary_failures_name_the_first_mismatch(monkeypatch):
    # P = [[3, 6, 0], [1, 7, 1], [0, 6, 3]] / 9 and pi = [1/8, 3/4, 1/8].
    corrupt_transition_matrix(monkeypatch, swap_across_rows)
    verdicts = verify_diagonalization(ChainSpec(3, -1, 2)).verdicts
    assert verdicts["row_stochastic"] == (
        False, "first mismatch at (0,0): 7/9 != 1; "
               "2 of 3 entries in 2 of 3 rows differ")
    assert verdicts["stationary_fixed"] == (
        False, "first mismatch at (0,0): 19/72 != 1/8; "
               "1 of 3 entries in 1 of 1 rows differ")

    corrupt_transition_matrix(monkeypatch, swap_within_row)
    verdicts = verify_diagonalization(ChainSpec(3, -1, 2)).verdicts
    assert verdicts["row_stochastic"] == (True, "")
    assert verdicts["stationary_fixed"] == (
        False, "first mismatch at (0,0): 1/6 != 1/8; "
               "2 of 3 entries in 1 of 1 rows differ")


def test_stationary_normalized_failure_names_the_sum(monkeypatch):
    # pi = [1/8, 3/4, 1/8] for the base-3 d=-1 n=2 chain; 2/8 first sums to 9/8.
    def corrupted(chain):
        return [Fraction(2, 8), *chain_stationary(chain)[1:]]

    monkeypatch.setattr(spectral, "chain_stationary", corrupted)
    verdicts = verify_diagonalization(ChainSpec(3, -1, 2)).verdicts
    assert verdicts["stationary_normalized"] == (
        False, "first mismatch at (0,0): 9/8 != 1; "
               "1 of 1 entries in 1 of 1 rows differ")
    assert not verdicts["stationary_fixed"].passed
    assert verdicts["row_stochastic"] == (True, "")


def test_failure_details_stay_short_on_large_chains(monkeypatch):
    for edit, failing in (
        (swap_within_row, {"eigenvector_equation", "stationary_fixed"}),
        (swap_across_rows, {"row_stochastic", "eigenvector_equation",
                            "stationary_fixed"}),
    ):
        corrupt_transition_matrix(monkeypatch, edit)
        report = verify_diagonalization(ChainSpec(16, -3, 40))
        failed = {name: detail for name, (passed, detail)
                  in report.verdicts.items() if not passed}
        assert set(failed) == failing, edit
        for name, detail in failed.items():
            assert len(detail) < 400 and "Fraction(" not in detail, name
            assert detail.startswith("first mismatch at "), name
