"""Fixtures the test modules share: chain specs, exact matrices from integer
tables, the golden CLI requests, an in-process CLI runner, the two checks
that Tier-1 and tools/oracle_sweep.py run over their own grids (the
closed-form transition matrix against the brute-force oracle, and the exact
diagonalization), and a carry chain enumerated from every digit tuple."""

import itertools
import pathlib
from fractions import Fraction

import carrychain.cli as cli
from carrychain.carries import (
    ChainSpec,
    state_space,
    transition_matrix,
    transition_matrix_bruteforce,
)
from carrychain.exactmath import ExactMatrix
from carrychain.spectral import verify_diagonalization

GOLDEN = pathlib.Path(__file__).parent / "golden"

# (golden file, argv): one request per subcommand, plus the sparse digit set,
# a negative base, and a negative-base characteristic polynomial with p > 1.
GOLDEN_CASES = [
    ("triangle.json",
     ["triangle", "--p", "2", "--n-max", "4", "--format", "json"]),
    ("matrix.json",
     ["matrix", "--base", "3", "--d", "-1", "--n", "2", "--format", "json"]),
    ("matrix_sparse.json",
     ["matrix", "--base", "3", "--digits=-1,0,4", "--n", "2",
      "--char-poly", "--format", "json"]),
    ("matrix_negative_char_poly.json",
     ["matrix", "--base", "4", "--d", "-1", "--n", "3", "--negative",
      "--char-poly", "--format", "json"]),
    ("verify.json",
     ["verify", "--base", "5", "--d", "-1", "--n", "3", "--format", "json"]),
    ("verify_negative.json",
     ["verify", "--base", "3", "--d", "-1", "--n", "2", "--negative",
      "--format", "json"]),
    ("find_system.json",
     ["find-system", "--p", "5/3", "--n", "4", "--format", "json"]),
    ("uniform_sum.json",
     ["uniform-sum", "--p", "3", "--n", "3", "--format", "json"]),
    ("simulate.json",
     ["simulate", "--base", "3", "--d", "-1", "--n", "2", "--steps", "20000",
      "--seed", "42", "--format", "json"]),
]


def spec(b, d, n, negative=False):
    return ChainSpec(b, d, n, negative)


def frac_matrix(rows, denom):
    return ExactMatrix([[Fraction(x, denom) for x in row] for row in rows])


def run_cli(argv, capsys):
    """Exit code and stdout of one in-process CLI run."""
    code = cli.main(argv)
    return code, capsys.readouterr().out


def oracle_mismatch(spec):
    """What differs between the closed form and the brute-force oracle for
    spec (the states or the matrix), what the oracle raised, or None."""
    try:
        states, P = transition_matrix_bruteforce(spec.base, spec.digits,
                                                 spec.n)
    except (ValueError, RuntimeError) as exc:
        return f"oracle raised {exc}"
    if states != list(state_space(spec)):
        return f"states {states} != {list(state_space(spec))}"
    if P != transition_matrix(spec):
        return "matrix differs"
    return None


def diagonalization_failures(spec):
    """Names of the verify_diagonalization verdicts that fail for spec."""
    report = verify_diagonalization(spec)
    return [name for name, v in report.verdicts.items() if not v.passed]


def enumerate_carry_chain(base, summand_digits, output_digits, n):
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
