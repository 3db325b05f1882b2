"""Carry chains: state spaces, the triangle parameter p, and exact transition matrices.

The chain tracks the carry produced while adding n numbers column by column.
From carry c, with column digits x_1..x_n drawn uniformly from the digit set,
the output digit a is the forced residue representative of c + sum(x) and the
next carry is (c + sum(x) - a) / base.

Two independent routes to the transition matrix are provided: the
alternating-binomial closed form (consecutive digit sets only) and a
definition-level brute-force count that also accepts arbitrary digit sets.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .eulerian import alternating_sums
from .exactmath import ExactMatrix
from .numeration import NumerationSystem


class StateSpace(namedtuple("StateSpace", "s t")):
    __slots__ = ()

    @property
    def size(self) -> int:
        return self.t - self.s + 1

    @property
    def states(self) -> list[int]:
        return list(range(self.s, self.t + 1))


class ChainSpec(namedtuple("ChainSpec", "system n")):
    __slots__ = ()

    def __new__(cls, system: NumerationSystem, n: int):
        if n < 1:
            raise ValueError(f"need at least one summand, got n={n}")
        return super().__new__(cls, system, n)


def state_space(spec: ChainSpec) -> StateSpace:
    """Carry range {s, ..., t} of the n-summand chain."""
    l = spec.system.centroid_offset
    n = spec.n
    return StateSpace(s=math.floor((n - 1) * l),
                      t=math.ceil((n - 1) * (l + 1)))


def p_param(spec: ChainSpec) -> Fraction:
    """The rational p >= 1 selecting which generalized Eulerian triangle applies.

    Reciprocal of the fractional part of (n-1)(-l) for positive base and of
    (n-1)l for negative base; 1 when that quantity is an integer.
    """
    l = spec.system.centroid_offset
    x = (spec.n - 1) * (l if spec.system.negative else -l)
    if x.denominator == 1:
        return Fraction(1)
    return 1 / (x - math.floor(x))


def _count_binom(m: int, k: int) -> int:
    # Counting binomial: zero below the diagonal and for negative tops.
    return math.comb(m, k) if m >= 0 else 0


def transition_matrix(spec: ChainSpec) -> ExactMatrix:
    """m x m transition matrix by closed formula, states ascending s..t.

    Entry (i, j) is the probability of moving from carry s+i to carry s+j;
    every denominator divides b**n and rows sum to exactly 1.
    """
    sys_, n = spec.system, spec.n
    b, d = sys_.base_magnitude, sys_.d
    m = state_space(spec).size
    bn = b ** n
    if sys_.negative:
        # Positive-base formula on mirrored columns, offset cleared mod b+1.
        e = ((n - 1) * (-d - b)) % (b + 1) - 1
        cols = [n - j for j in range(m)]
    else:
        e = ((n - 1) * (-d)) % (b - 1) or (b - 1)
        cols = range(m)

    top = max(cols)
    return ExactMatrix.from_int_rows(
        [alternating_sums(n, [_count_binom(n + b * t + e - i, n)
                              for t in range(top + 1)], cols)
         for i in range(m)], [bn] * m)


def _digit_sum_counts(digit_set: list[int], n: int) -> dict[int, int]:
    """Counts of each value of x_1 + ... + x_n, by repeated convolution."""
    counts = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for total, c in counts.items():
            for x in digit_set:
                nxt[total + x] = nxt.get(total + x, 0) + c
        counts = nxt
    return counts


def transition_matrix_bruteforce(
    base: int,
    digit_set: list[int],
    n: int,
) -> tuple[list[int], ExactMatrix]:
    """Definition-level oracle: (states, matrix) for an arbitrary digit set.

    Computes the carry set reachable from 0 by closure, then counts the
    solutions of base*c' + a = c + sum(x) with digits and output digit drawn
    from the digit set. Requires 0 in the digit set and distinct residues
    mod |base|; residues the digit set cannot emit raise if ever needed.
    """
    if abs(base) < 2:
        raise ValueError(f"base magnitude must be >= 2, got {base}")
    if 0 not in digit_set:
        raise ValueError("digit set must contain 0")
    b = abs(base)
    residue = {}
    for a in digit_set:
        if a % b in residue:
            raise ValueError(
                f"digits {residue[a % b]} and {a} collide mod {b}")
        residue[a % b] = a
    if n < 1:
        raise ValueError(f"need at least one summand, got n={n}")

    counts = _digit_sum_counts(list(digit_set), n)

    def step(c: int, total: int) -> int:
        r = (c + total) % b
        if r not in residue:
            raise ValueError(
                f"no digit with residue {r} mod {b}; digit set is incomplete")
        return (c + total - residue[r]) // base

    # S in [n*lo, n*hi] and a in [lo, hi] map [-R, R] into itself, either sign.
    lo, hi = min(digit_set), max(digit_set)
    R = -(-max(n * hi - lo, hi - n * lo) // (b - 1))
    states = {0}
    frontier = {0}
    while frontier:
        new = {step(c, total) for c in frontier for total in counts}
        frontier = new - states
        states |= frontier
        if any(abs(c) > R for c in frontier):
            raise RuntimeError(f"carry beyond the proven bound {R} (internal error)")
    ordered = sorted(states)
    index = {c: i for i, c in enumerate(ordered)}
    m = len(ordered)
    rows = [[0] * m for _ in range(m)]
    for c in ordered:
        for total, w in counts.items():
            rows[index[c]][index[step(c, total)]] += w
    return ordered, ExactMatrix.from_int_rows(rows, [len(digit_set) ** n] * m)


def find_system(n: int, p: Fraction) -> NumerationSystem:
    """A positive-base system whose n-summand chain has parameter p.

    For p = K/L in lowest terms (K >= L >= 1) takes b = (n-1)K + 1, d = -L.
    """
    p = Fraction(p)
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    k, l = p.numerator, p.denominator
    sys_ = NumerationSystem(base_magnitude=(n - 1) * k + 1, d=-l)
    got = p_param(ChainSpec(sys_, n))
    if got != p:
        raise RuntimeError(
            f"constructed system has p={got}, expected {p} (internal error)")
    return sys_
