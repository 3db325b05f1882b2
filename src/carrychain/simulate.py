"""Seeded Monte Carlo simulation of the carries process.

Digits are drawn i.i.d. uniformly from the digit set; the carry recursion is
applied exactly in integers. Only the column's digit sum enters the
recursion, so each step draws that sum directly, with its exact probability,
from one uniform integer. Results are deterministic for a given seed and
the generator algorithm is recorded so runs remain auditable.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

from .carries import ChainSpec, _digit_sum_counts, state_space

# One Mersenne Twister randrange(|D|^n) per step picks the digit sum through
# its cumulative counts (see digit_sum_draw).
GENERATOR_ALGORITHM = "mt19937-digit-sum-bisect"


class SimConfig(namedtuple("SimConfig", "spec steps seed burn_in")):
    __slots__ = ()

    def __new__(cls, spec: ChainSpec, steps: int, seed: int, burn_in: int = 1000):
        if burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {burn_in}")
        if steps <= burn_in:
            raise ValueError(f"steps ({steps}) must exceed burn_in ({burn_in})")
        return super().__new__(cls, spec, steps, seed, burn_in)

    @classmethod
    def _make(cls, iterable):
        """Build through __new__, so _make and _replace validate too."""
        return cls(*iterable)


class SimResult(namedtuple("SimResult",
                           "config counts empirical tv_distance generator",
                           defaults=(GENERATOR_ALGORITHM,))):
    __slots__ = ()

    @property
    def samples(self) -> int:
        return self.config.steps - self.config.burn_in


def tv_distance(a: list, b: list) -> float:
    """Total variation distance: half the L1 distance of two distributions."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    return float(sum(abs(Fraction(x) - Fraction(y)) for x, y in zip(a, b))) / 2


def digit_sum_draw(digits: list[int], n: int):
    """(size, draw) with size = |D|^n: for u uniform in range(size), draw(u)
    is the digit sum S = x_1 + ... + x_n with probability exactly
    count(S) / |D|^n.

    The sums ascend and cum holds their cumulative counts, so the u with
    cum[i-1] <= u < cum[i] are count(sums[i]) integers; bisect_right finds i.
    """
    counts = _digit_sum_counts(digits, n)
    sums = list(counts)
    cum = list(accumulate(counts.values()))

    def draw(u: int) -> int:
        return sums[bisect_right(cum, u)]

    return cum[-1], draw


def run_chain(cfg: SimConfig, exact: list[Fraction]) -> SimResult:
    """Simulate the carry chain from C_0 = 0 and tally post-burn-in visits.

    ``random.Random(seed)`` supplies one ``randrange(|D|^n)`` per step,
    which picks the step's digit sum exactly (digit_sum_draw). tv_distance
    compares the occupancy with ``exact``, the ascending-state stationary law.
    """
    spec = cfg.spec
    size, draw = digit_sum_draw(spec.digits, spec.n)
    states = state_space(spec)
    # The chain from 0 never leaves the proven carry range; doing so is a bug.
    lo, hi = states[0], states[-1]

    randrange = random.Random(cfg.seed).randrange
    # Column total t = c + S has output digit a = d + (t - d) mod b, which
    # leaves the carry (t - a) / base = sign * floor((t - d) / b).
    d, b = spec.d, spec.base_magnitude
    sign = -1 if spec.negative else 1
    burn_in = cfg.burn_in
    c = 0
    counts: dict[int, int] = {}
    for step in range(cfg.steps):
        c = sign * ((c + draw(randrange(size)) - d) // b)
        if not lo <= c <= hi:
            raise RuntimeError(
                f"carry {c} left the state space [{lo}, {hi}] at step {step}")
        if step >= burn_in:
            counts[c] = counts.get(c, 0) + 1

    samples = cfg.steps - cfg.burn_in
    empirical = {state: counts.get(state, 0) / samples
                 for state in states}
    dist = tv_distance([empirical[s] for s in states],
                       [float(x) for x in exact])
    return SimResult(config=cfg, counts=dict(sorted(counts.items())),
                     empirical=empirical, tv_distance=dist)
