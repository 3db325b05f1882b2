"""Fixtures the test modules share: chain specs, exact matrices from integer
tables, the golden CLI requests, an in-process CLI runner and the check of
the closed-form transition matrix against the brute-force oracle."""

import pathlib
from fractions import Fraction

import carrychain.cli as cli
from carrychain.carries import (
    ChainSpec,
    NumerationSystem,
    state_space,
    transition_matrix,
    transition_matrix_bruteforce,
)
from carrychain.exactmath import ExactMatrix

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
    return ChainSpec(NumerationSystem(b, d, negative=negative), n)


def frac_matrix(rows, denom):
    return ExactMatrix([[Fraction(x, denom) for x in row] for row in rows])


def run_cli(argv, capsys):
    """Exit code and stdout of one in-process CLI run."""
    code = cli.main(argv)
    return code, capsys.readouterr().out


def oracle_mismatch(spec):
    """What differs between the closed form and the brute-force oracle for
    spec (the states or the matrix), what the oracle raised, or None."""
    system = spec.system
    try:
        states, P = transition_matrix_bruteforce(system.base, system.digits,
                                                 spec.n)
    except (ValueError, RuntimeError) as exc:
        return f"oracle raised {exc}"
    if states != state_space(spec).states:
        return f"states {states} != {state_space(spec).states}"
    if P != transition_matrix(spec):
        return "matrix differs"
    return None
