"""Carry chains: the chain record, its state space, the triangle parameter p,
and exact transition matrices.

A chain (ChainSpec) is fixed by a base magnitude ``b >= 2``, a sign, a least
digit ``d`` with ``d <= 0 <= d + b - 1``, giving the digit set
{d, ..., d + b - 1}, and a summand count ``n >= 1``. Every residue class mod b
has exactly one representative in the digit set, so the digit a column emits
is forced.

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


# Record types here and in spectral and simulate are namedtuple subclasses
# with the checks in __new__: unlike dataclasses they cost next to nothing to
# define, which every CLI start-up pays for.
class ChainSpec(namedtuple("ChainSpec", "base_magnitude d n negative")):
    """The n-summand carry chain in base +-b with digits {d, ..., d+b-1}."""
    __slots__ = ()

    def __new__(cls, base_magnitude: int, d: int, n: int,
                negative: bool = False):
        b = base_magnitude
        if b < 2:
            raise ValueError(f"base magnitude must be >= 2, got {b}")
        if not (d <= 0 <= d + b - 1):
            raise ValueError(
                f"digit set {{{d}, ..., {d + b - 1}}} must contain 0")
        if n < 1:
            raise ValueError(f"need at least one summand, got n={n}")
        return super().__new__(cls, base_magnitude, d, n, negative)

    @classmethod
    def _make(cls, iterable):
        """Build through __new__, so _make and _replace validate too."""
        return cls(*iterable)

    @property
    def base(self) -> int:
        """Signed base."""
        return -self.base_magnitude if self.negative else self.base_magnitude

    @property
    def digits(self) -> list[int]:
        return list(range(self.d, self.d + self.base_magnitude))

    @property
    def centroid_offset(self) -> Fraction:
        """The digit-set location parameter l.

        Equals d/(b-1) for positive base and (-d-b)/(b+1) for negative base;
        the digit average scaled so that single-column values fill (l, l+1).
        """
        b, d = self.base_magnitude, self.d
        if self.negative:
            return Fraction(-d - b, b + 1)
        return Fraction(d, b - 1)


def state_space(spec: ChainSpec) -> range:
    """Carry range s..t of the n-summand chain, as range(s, t + 1)."""
    l = spec.centroid_offset
    n = spec.n
    return range(math.floor((n - 1) * l), math.ceil((n - 1) * (l + 1)) + 1)


def p_param(spec: ChainSpec) -> Fraction:
    """The rational p >= 1 selecting which generalized Eulerian triangle applies.

    Reciprocal of the fractional part of (n-1)(-l) for positive base and of
    (n-1)l for negative base; 1 when that quantity is an integer.
    """
    l = spec.centroid_offset
    x = (spec.n - 1) * (l if spec.negative else -l)
    if x.denominator == 1:
        return Fraction(1)
    return 1 / (x - math.floor(x))


def chain_stationary(spec: ChainSpec) -> list[Fraction]:
    """Stationary vector in ascending state order for the given chain.

    For positive base this is the Eulerian row over p^n n!; for negative
    base the same vector reversed, mirroring the state order.
    """
    pi = stationary(spec.n, p_param(spec))
    return pi[::-1] if spec.negative else pi


def transition_matrix(spec: ChainSpec) -> ExactMatrix:
    """m x m transition matrix by closed formula, states ascending s..t.

    Entry (i, j) is the probability of moving from carry c = s+i to carry
    c' = s+j, the share of column sums S that make c + S - base*c' a digit.
    For either sign of the base that is one window count of Holte's matrix,
    A(k) / b**n at k = base*c' - c + b - 1 - (n-1)d, where
    A(k) = [z^k] (1 + z + ... + z^(b-1))^(n+1)
         = sum_r (-1)^r C(n+1, r) C(k - rb + n, n) over r with k - rb >= 0,
    and 0 for k < 0. With k = b*col + rho, 0 <= rho < b, that is
    alternating_sums' column col of f[t] = C(n + b*t + rho, n). rho is fixed
    along a row and f depends on the row only through rho, so the rows share
    at most min(b, m) lists f, each as long as the widest row needs. Every
    denominator divides b**n and rows sum to exactly 1.
    """
    from .exactmath import ExactMatrix

    n, b, base = spec.n, spec.base_magnitude, spec.base
    shift = b - 1 - (n - 1) * spec.d
    states = state_space(spec)
    cols = [[(base * x + shift - c) // b for x in states] for c in states]
    width = max(map(max, cols)) + 1
    f = {rho: [math.comb(n + b * t + rho, n) for t in range(width)]
         for rho in {(shift - c) % b for c in states}}
    rows = [alternating_sums(n, f[(shift - c) % b], row)
            for c, row in zip(states, cols)]
    return ExactMatrix.from_int_rows(rows, [b ** n] * len(states))


def _digit_sum_counts(digit_set: list[int], n: int) -> dict[int, int]:
    """Counts of each sum x_1 + ... + x_n in ascending order, by convolution."""
    counts = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for total, c in counts.items():
            for x in digit_set:
                nxt[total + x] = nxt.get(total + x, 0) + c
        counts = nxt
    return dict(sorted(counts.items()))


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
    for a in sorted(digit_set):
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
        # Least carry first, then least sum: the residue an incomplete set
        # raises does not depend on the order of its digits.
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


def find_system(n: int, p: Fraction) -> ChainSpec:
    """A positive-base n-summand chain with parameter p.

    For p = K/L in lowest terms (K >= L >= 1) takes b = (n-1)K + 1, d = -L.
    """
    p = Fraction(p)
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    k, l = p.numerator, p.denominator
    spec = ChainSpec(base_magnitude=(n - 1) * k + 1, d=-l, n=n)
    got = p_param(spec)
    if got != p:
        raise RuntimeError(
            f"constructed system has p={got}, expected {p} (internal error)")
    return spec
