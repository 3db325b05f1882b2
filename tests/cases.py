"""Fixtures the test modules share: grids of carry chains, exact matrices
from integer tables, the golden CLI requests, in-process and child-process
runners, the five checks that Tier-1 and tools/oracle_sweep.py run over
their own grids (closed form against oracle, exact diagonalization, Holte's
product rule, commutation, det V in closed form), and a carry chain
enumerated from every digit tuple."""

import itertools
import os
import pathlib
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from math import prod

import carrychain.cli as cli
from carrychain.carries import (
    ChainSpec,
    p_param,
    state_space,
    transition_matrix,
    transition_matrix_bruteforce,
)
from carrychain.exactmath import ExactMatrix, determinant
from carrychain.spectral import eigen_matrix, verify_diagonalization

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


def chains(bases, summands):
    """ChainSpec(b, d, n, negative) for both signs, every b in bases, every
    least digit d from 1 - b to 0 and every n in summands."""
    return (ChainSpec(b, d, n, negative) for negative in (False, True)
            for b in bases for d in range(1 - b, 1) for n in summands)


def frac_matrix(rows, denom):
    return ExactMatrix([[Fraction(x, denom) for x in row] for row in rows])


def run_cli(argv, capsys):
    """Exit code and stdout of one in-process CLI run."""
    code = cli.main(argv)
    return code, capsys.readouterr().out


def run_python(*args):
    """Run a fresh interpreter on args, with the carrychain package these
    tests import ahead of the caller's PYTHONPATH."""
    root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


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


def product_rule_failures(bases, summands):
    """Holte's product rule P(s1) P(s2) = P(s) on every pair s1, s2 of
    chains(bases, [n]), n in summands, where s, whose digits are the
    x1 + base1 x2, shares their state space: the failing (s1, s2, s) and
    how many triples were checked. Holte (1997) proves the rule for the
    standard digits and positive bases; the rest is an extension."""
    failures, checked = [], 0
    for n in summands:
        for s1, s2 in itertools.product(chains(bases, [n]), repeat=2):
            least = min(x1 + s1.base * x2
                        for x1 in s1.digits for x2 in s2.digits)
            s = ChainSpec(s1.base_magnitude * s2.base_magnitude, least, n,
                          s1.negative != s2.negative)
            if state_space(s1) == state_space(s2) == state_space(s):
                checked += 1
                if transition_matrix(s1) @ transition_matrix(s2) != (
                        transition_matrix(s)):
                    failures.append((s1, s2, s))
    return failures, checked


def commutation_failures(bases, summands):
    """Commutation of the transition matrices of every two chains of
    chains(bases, summands) with equal n and p, which force equal state
    counts: the failing pairs (s1, s2) and every pair checked. Holte (1997)
    proves that chains of one sign commute. A positive-base chain and a
    negative-base one commute once the latter's matrix is mirrored (J P J,
    both state orders reversed); that is an extension."""
    family = defaultdict(list)
    for s in chains(bases, summands):
        family[s.n, p_param(s)].append(s)
    failures, pairs = [], []
    for specs in family.values():
        for s1, s2 in itertools.combinations(specs, 2):
            pairs.append((s1, s2))
            p1, p2 = transition_matrix(s1), transition_matrix(s2)
            if s1.negative != s2.negative:
                # J P2 J commutes with P1 iff P2 commutes with J P1 J.
                p2 = ExactMatrix([row[::-1] for row in p2.to_lists()[::-1]])
            if p1 @ p2 != p2 @ p1:
                failures.append((s1, s2))
    return failures, pairs


def eigenbasis_det_mismatch(bases, summands):
    """det V, by Bareiss, against its closed form for each distinct
    (n, p, m, sign) of chains(bases, summands): the chains where the two
    differ and how many were checked. Row i of V is the first m coefficients
    of (1 - z)^(n+1) sum_t (pt + 1)^(n-i) z^t, so V is the Vandermonde-like
    F[i][t] = (pt + 1)^(n-i) times a unit triangular matrix, and
    det V = s prod_{u<t} p(t - u) prod_t (pt + 1)^(n-m+1), with
    s = (-1)^(m(m-1)/2) for a positive base and +1 for a negative one, whose
    columns are reversed. The closed form is derived here, an extension."""
    seen, mismatches = set(), []
    for s in chains(bases, summands):
        n, p, m = s.n, p_param(s), len(state_space(s))
        if (n, p, m, s.negative) in seen:
            continue
        seen.add((n, p, m, s.negative))
        sign = 1 if s.negative else (-1) ** (m * (m - 1) // 2)
        want = (sign * prod(p * (t - u) for t in range(m) for u in range(t))
                * prod((p * t + 1) ** (n - m + 1) for t in range(m)))
        if determinant(eigen_matrix(n, p, m, reverse=s.negative)) != want:
            mismatches.append(s)
    return mismatches, len(seen)


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
