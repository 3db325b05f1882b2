"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each criterion is checked in full before its verdict line is printed, so a
failure still reports exactly which sub-check broke. Criterion 5 checks the
sparse digit set {-1, 0, 4} in base 3 (7 carry states) against an enumerator
of its own, and shows that a reference 10x10 for that example is the chain
with output digits {-1, 0, 10} instead.
"""

import itertools
import json
import math
from fractions import Fraction

import carrychain.spectral
from carrychain.carries import (
    p_param,
    state_space,
    transition_matrix,
    transition_matrix_bruteforce,
)
from carrychain.eulerian import triangle_recurrence, v_closed
from carrychain.exactmath import ExactMatrix, ExactPolynomial, char_poly
from carrychain.simulate import SimConfig, run_chain
from carrychain.spectral import chain_stationary, commutes, eigen_matrix
from carrychain.uniformsum import interval_prob
from cases import (
    GOLDEN,
    GOLDEN_CASES,
    frac_matrix,
    oracle_mismatch,
    run_cli,
    spec,
)
from eulerian_identities import array_recurrence_check, row_sums, symmetry_check
from polynomials import poly_divmod, poly_mul, poly_scale


def verdict(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_01_triangle_reproduction():
    expected = {
        Fraction(1): [[1], [1, 0], [1, 1, 0], [1, 4, 1, 0],
                      [1, 11, 11, 1, 0]],
        Fraction(2): [[1], [1, 1], [1, 6, 1], [1, 23, 23, 1],
                      [1, 76, 230, 76, 1]],
        Fraction(3): [[1], [1, 2], [1, 13, 4], [1, 60, 93, 8],
                      [1, 251, 1131, 545, 16]],
        Fraction(5, 3): [
            [1],
            [1, Fraction(2, 3)],
            [Fraction(x, 9) for x in (9, 37, 4)],
            [Fraction(x, 27) for x in (27, 404, 311, 8)],
            [Fraction(x, 81) for x in (81, 3691, 8891, 2321, 16)],
        ],
    }
    bad = []
    for p, rows in expected.items():
        got = triangle_recurrence(4, p)
        for n in range(5):
            if got[n] != [Fraction(x) for x in rows[n]]:
                bad.append((p, n, got[n]))
    verdict(1, "triangle reproduction", not bad, f"mismatches: {bad}")


REFERENCE_SYSTEMS = [
    # (b, d, n, matrix numerators, denominator, eigenvector rows)
    (3, -1, 2, [[3, 6, 0], [1, 7, 1], [0, 6, 3]], 9,
     [[1, 6, 1], [1, 0, -1], [1, -2, 1]]),
    (5, -1, 3, [[10, 80, 35, 0], [4, 68, 52, 1], [1, 52, 68, 4],
                [0, 35, 80, 10]], 125,
     [[1, 23, 23, 1], [1, 5, -5, -1], [1, -1, -1, 1], [1, -3, 3, -1]]),
    (7, -1, 4, [[35, 826, 1330, 210, 0], [15, 640, 1420, 325, 1],
                [5, 470, 1451, 470, 5], [1, 325, 1420, 640, 15],
                [0, 210, 1330, 826, 35]], 2401,
     [[1, 76, 230, 76, 1], [1, 22, 0, -22, -1], [1, 4, -10, 4, 1],
      [1, -2, 0, 2, -1], [1, -4, 6, -4, 1]]),
    (6, -3, 2, [[10, 25, 1], [6, 27, 3], [3, 27, 6]], 36,
     [[1, Fraction(37, 9), Fraction(4, 9)],
      [1, Fraction(-1, 3), Fraction(-2, 3)],
      [1, -2, 1]]),
    # Reference tables give this 4x4 with prefactor 1/11^4, but
    # the integer entries sum to 11^3 per row; row-stochasticity decides.
    (11, -3, 3, [[84, 804, 439, 4], [56, 745, 520, 10], [35, 676, 600, 20],
                 [20, 600, 676, 35]], 11 ** 3,
     [[1, Fraction(404, 27), Fraction(311, 27), Fraction(8, 27)],
      [1, Fraction(28, 9), Fraction(-11, 3), Fraction(-4, 9)],
      [1, Fraction(-4, 3), Fraction(-1, 3), Fraction(2, 3)],
      [1, -3, 3, -1]]),
    (16, -3, 4, [[715, 20176, 37390, 7240, 15],
                 [495, 18000, 38326, 8680, 35],
                 [330, 15900, 38960, 10276, 70],
                 [210, 13900, 39280, 12020, 126],
                 [126, 12020, 39280, 13900, 210]], 16 ** 4,
     [[1, Fraction(3691, 81), Fraction(8891, 81), Fraction(2321, 81),
       Fraction(16, 81)],
      [1, Fraction(377, 27), Fraction(-31, 9), Fraction(-101, 9),
       Fraction(-8, 27)],
      [1, Fraction(19, 9), Fraction(-61, 9), Fraction(29, 9),
       Fraction(4, 9)],
      [1, Fraction(-7, 3), 1, 1, Fraction(-2, 3)],
      [1, -4, 6, -4, 1]]),
]


def test_criterion_02_matrix_reproduction():
    bad = []
    for b, d, n, nums, denom, vrows in REFERENCE_SYSTEMS:
        s = spec(b, d, n)
        P = transition_matrix(s)
        if P != frac_matrix(nums, denom):
            bad.append(("P", b, d, n))
        ones = ExactMatrix([[1]] * P.rows)
        if P @ ones != ones:
            bad.append(("row sums", b, d, n))
        m = state_space(s).size
        if eigen_matrix(n, p_param(s), m) != ExactMatrix(vrows):
            bad.append(("V", b, d, n))
    verdict(2, "matrix reproduction", not bad, f"mismatches: {bad}")


def test_criterion_03_diagonalization_grid():
    bad = []
    for negative in (False, True):
        for b in range(2, 12):
            for d in range(-(b - 1), 1):
                for n in range(1, 6):
                    report = carrychain.spectral.verify_diagonalization(
                        spec(b, d, n, negative))
                    if not report.verified:
                        bad.append((b, d, n, negative,
                                    [k for k, v in report.verdicts.items()
                                     if not v.passed]))
    verdict(3, "diagonalization grid", not bad, f"failures: {bad}")


def test_criterion_04_oracle_equivalence():
    # Every system with |b| <= 16 and n <= 10: 2,700 of them.
    bad = []
    for negative in (False, True):
        for b in range(2, 17):
            for d in range(-(b - 1), 1):
                for n in range(1, 11):
                    what = oracle_mismatch(spec(b, d, n, negative))
                    if what is not None:
                        bad.append((b, d, n, negative, what))
    verdict(4, "oracle equivalence", not bad, f"failures: {bad}")


def _enumerate_carry_chain(base, summand_digits, output_digits, n):
    """States reachable from carry 0 and the transition counts between them.

    Definition-level: every n-tuple of summand digits is listed; the output
    digit is the one member of output_digits congruent to carry + column sum.
    Row i of the counts is out of len(summand_digits)**n.
    """
    emit = {a % base: a for a in output_digits}
    sums = [sum(t) for t in itertools.product(summand_digits, repeat=n)]

    def step(c, total):
        return (c + total - emit[(c + total) % base]) // base

    states, frontier = {0}, {0}
    while frontier:
        frontier = {step(c, t) for c in frontier for t in sums} - states
        states |= frontier
    states = sorted(states)
    rows = [[0] * len(states) for _ in states]
    for i, c in enumerate(states):
        for t in sums:
            rows[i][states.index(step(c, t))] += 1
    return states, rows


def test_criterion_05_sparse_digit_reference_example():
    # Base 3, summand and output digits {-1, 0, 4}, two summands. Column sums
    # lie in [-2, 8] and output digits in [-1, 4], so from carry 0 the carries
    # never leave [-2, 4]: the chain has 7 states (numerators over 9 below).
    digits = [-1, 0, 4]
    true_states = list(range(-2, 5))
    true_rows = [
        [1, 5, 0, 2, 1, 0, 0],
        [2, 1, 1, 5, 0, 0, 0],
        [1, 0, 5, 2, 0, 1, 0],
        [0, 1, 5, 0, 2, 1, 0],
        [0, 2, 1, 1, 5, 0, 0],
        [0, 1, 0, 5, 2, 0, 1],
        [0, 0, 1, 5, 0, 2, 1],
    ]
    # Its monic char poly is (x-1)(3x-1)(9x-1)(2187x^4 - 405x^2 - 30x + 1)/3^10.
    true_char_poly = ExactPolynomial([1, -30, -405, 0, 2187])
    for root_den in (1, 3, 9):
        true_char_poly = poly_mul(true_char_poly, ExactPolynomial([-1, root_den]))
    true_char_poly = poly_scale(true_char_poly, Fraction(1, 3 ** 10))
    # A reference claims carries {-5..4}, the 10x10 below (entries x9) and
    # the septic cofactor below (x3^12). That is the chain whose output digits
    # come from {-1, 0, 10} instead of the digit set: same residues mod 3,
    # but 10 in place of 4 lets carries drop to -5.
    reference_rows = [
        [1, 2, 0, 3, 0, 2, 1, 0, 0, 0],
        [2, 0, 0, 2, 1, 4, 0, 0, 0, 0],
        [1, 0, 2, 0, 3, 2, 0, 1, 0, 0],
        [0, 1, 2, 0, 3, 0, 2, 1, 0, 0],
        [0, 2, 0, 0, 2, 1, 4, 0, 0, 0],
        [0, 1, 0, 2, 0, 3, 2, 0, 1, 0],
        [0, 0, 1, 2, 0, 3, 0, 2, 1, 0],
        [0, 0, 2, 0, 0, 2, 1, 4, 0, 0],
        [0, 0, 1, 0, 2, 0, 3, 2, 0, 1],
        [0, 0, 0, 1, 2, 0, 3, 0, 2, 1],
    ]
    reference_septic = [2, 24, -297, -1944, 5103, -19683, 0, 531441]

    problems = []
    states, rows = _enumerate_carry_chain(3, digits, digits, 2)
    if states != true_states:
        problems.append(f"enumerated states are {states}, not -2..4")
    elif rows != true_rows:
        problems.append(f"enumerated 7x7 is {rows}, not the literal")

    states, P = transition_matrix_bruteforce(3, digits, 2)
    if states != true_states:
        problems.append(f"oracle states are {states}, not -2..4")
    elif P != frac_matrix(true_rows, 9):
        problems.append("oracle matrix differs from the literal 7x7")
    elif (poly := char_poly(P)) != true_char_poly:
        problems.append(f"char poly is {poly}, not the factored form")

    states, rows = _enumerate_carry_chain(3, digits, [-1, 0, 10], 2)
    if states != list(range(-5, 5)):
        problems.append(f"{{-1, 0, 10}} chain states are {states}, not -5..4")
    elif rows != reference_rows:
        problems.append("{-1, 0, 10} chain differs from the reference 10x10")
    quotient = char_poly(frac_matrix(reference_rows, 9))
    for root in (Fraction(1), Fraction(1, 3), Fraction(1, 9)):
        quotient, rem = poly_divmod(quotient, ExactPolynomial([-root, 1]))
        if rem:
            problems.append(f"reference char poly not divisible by (x - {root})")
    scaled = [c * 531441 for c in quotient.coefficients]
    if scaled != [Fraction(c) for c in reference_septic]:
        problems.append(
            f"reference cofactor (x531441) is {scaled}, not the septic")

    verdict(5, "sparse digit-set reference example", not problems,
            "; ".join(problems))


def test_criterion_06_eulerian_identities():
    p_grid = [Fraction(1), Fraction(2), Fraction(3), Fraction(5, 3),
              Fraction(7, 4)]
    bad = []
    for p in p_grid:
        for n in range(9):
            if any(v_closed(n, p, i, n + 1) != 0 for i in range(n + 1)):
                bad.append(("last column", p, n))
            if n and array_recurrence_check(n, p):
                bad.append(("recurrence", p, n))
            sums = row_sums(n, p)
            if sums[0] != p ** n * math.factorial(n):
                bad.append(("row sum i=0", p, n))
            if any(s != 0 for s in sums[1:]):
                bad.append(("row sum i>0", p, n))
            if symmetry_check(n, p):
                bad.append(("symmetry", p, n))
    verdict(6, "eulerian identities", not bad, f"failures: {bad}")


def test_criterion_07_uniform_sum_identity():
    p_grid = [Fraction(1), Fraction(2), Fraction(3), Fraction(5, 3)]
    bad = []
    for p in p_grid:
        for n in range(1, 9):
            total = p ** n * math.factorial(n)
            for k in range(n + 1):
                if interval_prob(n, p, k) != v_closed(n, p, 0, k) / total:
                    bad.append((p, n, k))
    verdict(7, "uniform-sum identity", not bad, f"failures: {bad}")


def test_criterion_08_commutative_family():
    pairs = [
        (spec(3, -1, 2), spec(9, -4, 2)),          # both p = 2
        (spec(5, -1, 3), spec(9, -2, 3)),          # scaled via K -> 2K
        (spec(11, -3, 3), spec(21, -6, 3)),        # both p = 5/3
    ]
    bad = []
    for a, b in pairs:
        if not commutes(a, b):
            bad.append((a, b))
    verdict(8, "commutative family", not bad, f"non-commuting: {bad}")


def test_criterion_09_simulation_statistics():
    problems = []
    for b, d, n, seed in ((3, -1, 2, 42), (5, -1, 3, 2024)):
        s = spec(b, d, n)
        cfg = SimConfig(s, steps=10 ** 6, seed=seed)
        exact = chain_stationary(s)
        first = run_chain(cfg, exact=exact)
        if not first.tv_distance < 5e-3:
            problems.append(
                f"({b},{d},{n}) seed {seed}: tv={first.tv_distance}")
        if (b, d, n) == (3, -1, 2):
            again = run_chain(cfg, exact=exact)
            if (again.counts, again.empirical, again.tv_distance) != (
                    first.counts, first.empirical, first.tv_distance):
                problems.append("same-seed rerun differs")
    verdict(9, "simulation statistics", not problems, "; ".join(problems))


def test_criterion_10_cli_contract(capsys, monkeypatch):
    problems = []
    for fname, argv in GOLDEN_CASES:
        code, out = run_cli(argv, capsys)
        if code != 0:
            problems.append(f"{fname}: exit {code}")
        elif out != (GOLDEN / fname).read_text():
            problems.append(f"{fname}: output differs from golden file")

    code, _ = run_cli(
        ["simulate", "--base", "3", "--d", "-1", "--n", "2",
         "--steps", "0", "--seed", "1"], capsys)
    if code != 2:
        problems.append(f"usage error exit code {code}, expected 2")

    real = carrychain.spectral.transition_matrix

    def corrupted(chain_spec):
        rows = real(chain_spec).to_lists()
        rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
        return ExactMatrix(rows)

    monkeypatch.setattr(carrychain.spectral, "transition_matrix", corrupted)
    code, out = run_cli(
        ["verify", "--base", "3", "--d", "-1", "--n", "2",
         "--format", "json"], capsys)
    monkeypatch.undo()
    if code != 1:
        problems.append(f"corrupted verify exit code {code}, expected 1")
    elif json.loads(out)["payload"]["verified"] is not False:
        problems.append("corrupted verify not reported as failed")

    verdict(10, "CLI contract", not problems, "; ".join(problems))
