"""Fixtures the test modules share: chain specs, exact matrices from integer
tables, the golden CLI requests and an in-process CLI runner."""

import pathlib
from fractions import Fraction

import carrychain.cli as cli
from carrychain.carries import ChainSpec, NumerationSystem
from carrychain.exactmath import ExactMatrix

GOLDEN = pathlib.Path(__file__).parent / "golden"

# (golden file, argv): one request per subcommand, plus the sparse digit set
# and a negative base.
GOLDEN_CASES = [
    ("triangle.json",
     ["triangle", "--p", "2", "--n-max", "4", "--format", "json"]),
    ("matrix.json",
     ["matrix", "--base", "3", "--d", "-1", "--n", "2", "--format", "json"]),
    ("matrix_sparse.json",
     ["matrix", "--base", "3", "--digits=-1,0,4", "--n", "2",
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
