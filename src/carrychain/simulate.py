"""Seeded Monte Carlo simulation of the carries process.

Digits are drawn i.i.d. uniformly from the digit set; the carry recursion is
applied exactly in integers. Results are deterministic for a given seed and
the generator algorithm is recorded so runs remain auditable.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .carries import ChainSpec, state_space

GENERATOR_ALGORITHM = "mt19937"


class SimConfig(namedtuple("SimConfig", "spec steps seed burn_in")):
    __slots__ = ()

    def __new__(cls, spec: ChainSpec, steps: int, seed: int, burn_in: int = 1000):
        if burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {burn_in}")
        if steps <= burn_in:
            raise ValueError(f"steps ({steps}) must exceed burn_in ({burn_in})")
        return super().__new__(cls, spec, steps, seed, burn_in)


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


def run_chain(cfg: SimConfig, exact: list[Fraction] | None = None) -> SimResult:
    """Simulate the carry chain from C_0 = 0 and tally post-burn-in visits.

    ``random.Random(seed)`` supplies the digits; ``randrange`` is unbiased
    over the digit-set size. If ``exact`` (ascending-state stationary
    probabilities) is given, the TV distance of the empirical occupancy to
    it is reported; otherwise tv_distance is NaN.
    """
    spec = cfg.spec
    sys_ = spec.system
    digits = sys_.digits
    nd = len(digits)
    base = sys_.base
    space = state_space(spec)
    # The chain from 0 never leaves the proven carry range; doing so is a bug.
    lo, hi = space.s, space.t

    rng = random.Random(cfg.seed)
    c = 0
    counts: dict[int, int] = {}
    for step in range(cfg.steps):
        total = c
        for _ in range(spec.n):
            total += digits[rng.randrange(nd)]
        a = sys_.digit_for_residue(total)
        c = (total - a) // base
        if not lo <= c <= hi:
            raise RuntimeError(
                f"carry {c} left the state space [{lo}, {hi}] at step {step}")
        if step >= cfg.burn_in:
            counts[c] = counts.get(c, 0) + 1

    samples = cfg.steps - cfg.burn_in
    empirical = {state: counts.get(state, 0) / samples
                 for state in space.states}
    if exact is not None:
        dist = tv_distance([empirical[s] for s in space.states],
                           [float(x) for x in exact])
    else:
        dist = float("nan")
    return SimResult(config=cfg, counts=dict(sorted(counts.items())),
                     empirical=empirical, tv_distance=dist)
