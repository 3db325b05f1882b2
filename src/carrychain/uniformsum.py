"""Sums of i.i.d. uniform [0,1] variables, exactly.

The cumulative distribution of such a sum is piecewise polynomial with
rational coefficients, so for rational arguments everything is exact. The
probability that the sum lands in the unit interval 1/p + [k-1, k]
reproduces the generalized Eulerian numbers divided by p^n n!, which gives
an analytic cross-check of the triangle completely independent of the
combinatorial recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction


def irwin_hall_cdf(n: int, x) -> Fraction:
    """Pr(sum of n i.i.d. uniform [0,1] variables <= x), exact for rational x."""
    if n < 1:
        raise ValueError(f"need at least one summand, got n={n}")
    x = Fraction(x)
    if x <= 0:
        return Fraction(0)
    if x >= n:
        return Fraction(1)
    return sum((-1) ** k * math.comb(n, k) * (x - k) ** n
               for k in range(math.floor(x) + 1)) / math.factorial(n)


def _check_p(p) -> Fraction:
    p = Fraction(p)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return p


def interval_prob(n: int, p, k: int) -> Fraction:
    """Pr(sum of n uniforms lands in 1/p + [k-1, k]), exact for rational p."""
    x = 1 / _check_p(p) + k
    return irwin_hall_cdf(n, x) - irwin_hall_cdf(n, x - 1)


def _cdf_num(n: int, a: int, k: int) -> int:
    # Irwin-Hall CDF at x = a/k, times k^n n!, in integers.
    if a <= 0:
        return 0
    if a >= n * k:
        return k ** n * math.factorial(n)
    return sum((-1) ** j * math.comb(n, j) * (a - j * k) ** n
               for j in range(a // k + 1))


def interval_probs(n: int, p) -> list[Fraction]:
    """interval_prob(n, p, k) for k = 0, ..., n, from n+2 CDF evaluations.

    With p = K/L the CDF points 1/p + k - 1 are a/K for a = L + (k-1)K;
    each is evaluated once in integers, and each probability is one
    division by K^n n!.
    """
    p = _check_p(p)
    if n < 1:
        raise ValueError(f"need at least one summand, got n={n}")
    K, L = p.numerator, p.denominator
    num = [_cdf_num(n, L + (k - 1) * K, K) for k in range(n + 2)]
    total = K ** n * math.factorial(n)
    return [Fraction(hi - lo, total) for lo, hi in zip(num, num[1:])]

