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

# exactmath is imported inside the two matrix builders, so that simulate and
# find-system do not load it.
from .eulerian import alternating_sums, stationary
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


def chain_stationary(spec: ChainSpec) -> list[Fraction]:
    """Stationary vector in ascending state order for the given chain.

    For positive base this is the Eulerian row over p^n n!; for negative
    base the same vector reversed, mirroring the state order.
    """
    pi = stationary(spec.n, p_param(spec))
    return pi[::-1] if spec.system.negative else pi


def _count_binom(m: int, k: int) -> int:
    # Counting binomial: zero below the diagonal and for negative tops.
    return math.comb(m, k) if m >= 0 else 0


def transition_matrix(spec: ChainSpec) -> ExactMatrix:
    """m x m transition matrix by closed formula, states ascending s..t.

    Entry (i, j) is the probability of moving from carry s+i to carry s+j;
    every denominator divides b**n and rows sum to exactly 1.
    """
    from .exactmath import ExactMatrix

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


def carry_interval(base: int, digit_set: list[int], n: int) -> tuple[int, int]:
    """(low, high) with every carry of the n-summand chain from 0 in [low, high].

    A carry c goes to (c + S - a) / base, with S in [n*lo, n*hi] and a in
    [lo, hi]: the numerator is c plus at most up = n*hi - lo, less at most
    down = hi - n*lo. For b = |base| the real interval [-down, up] / (b - 1)
    maps into itself when base > 0, and [-(down + b*up), b*down + up] /
    (b^2 - 1) when base < 0, which flips the sign. Both hold 0, and carries
    are integers, so the ends round inward. (0, 0) for a digit set without 0
    or |base| < 2, which the oracle refuses before it looks for carries.
    """
    b = abs(base)
    if 0 not in digit_set or b < 2:
        return 0, 0
    lo, hi = min(digit_set), max(digit_set)
    up, down = n * hi - lo, hi - n * lo
    if base > 0:
        return -(down // (b - 1)), up // (b - 1)
    return -((down + b * up) // (b * b - 1)), (b * down + up) // (b * b - 1)


def transition_matrix_bruteforce(
    base: int,
    digit_set: list[int],
    n: int,
) -> tuple[list[int], ExactMatrix]:
    """Definition-level oracle: (states, matrix) for an arbitrary digit set.

    Closes the carry set reachable from 0, counting as each carry is reached
    the solutions of base*c' + a = c + sum(x) with digits and output digit
    drawn from the digit set. Requires 0 in the digit set and distinct residues
    mod |base|; residues the digit set cannot emit raise if ever needed.
    """
    from .exactmath import ExactMatrix

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

    low, high = carry_interval(base, digit_set, n)
    moves: dict[int, dict[int, int]] = {}  # carry -> {next carry: weight}
    frontier = [0]
    while frontier:
        # Least carry first, so the residue an incomplete set raises is stable.
        for c in frontier:
            out = moves[c] = {}
            for total, w in counts.items():
                nxt = step(c, total)
                out[nxt] = out.get(nxt, 0) + w
        frontier = sorted({x for c in frontier for x in moves[c]}
                          .difference(moves))
        if any(not low <= c <= high for c in frontier):
            raise RuntimeError(f"carry outside the proven interval [{low}, "
                               f"{high}] (internal error)")
    ordered = sorted(moves)
    return ordered, ExactMatrix.from_int_rows(
        [[moves[c].get(x, 0) for x in ordered] for c in ordered],
        [len(digit_set) ** n] * len(ordered))


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
