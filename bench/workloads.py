"""Seeded request generators for the three benchmark workloads.

Each generator returns one *cycle*: a list of requests that the closed loop
replays, in the same order, until the run's time is up. A cycle is built from
fixed strata (size class, base sign, kind of p), so every seed yields the same
mix of request costs.

In exact arithmetic the cost of a request hangs on more than its size: two
``verify`` requests of the same m and the same kind of p can differ by a
third in time. So the verify-large and charpoly systems are fixed, and there
the seed chooses only what leaves the cost as it is: the order of the cycle,
and on charpoly whether each digit set is mirrored. On cli-small the seed
picks every parameter; start-up dominates its cost.

The generators compute state spaces and the parameter p from the paper's
formulas directly, never by calling carrychain, so a request list does not
depend on the code under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

FORMATS = ("json", "csv", "pretty")


@dataclass(frozen=True)
class Request:
    """One CLI invocation: ``argv`` is what follows ``-m carrychain.cli``."""

    command: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)
    fmt: str = "json"


def centroid_offset(b: int, d: int, negative: bool) -> Fraction:
    """Digit-set location l: d/(b-1) for base b, (-d-b)/(b+1) for base -b."""
    return Fraction(-d - b, b + 1) if negative else Fraction(d, b - 1)


def state_range(b: int, d: int, n: int, negative: bool) -> tuple[int, int]:
    """Carry range (s, t) of the n-summand chain with digits {d..d+b-1}."""
    l = centroid_offset(b, d, negative)
    return math.floor((n - 1) * l), math.ceil((n - 1) * (l + 1))


def p_param(b: int, d: int, n: int, negative: bool) -> Fraction:
    """The triangle parameter p of the chain (1 when (n-1)l is an integer)."""
    l = centroid_offset(b, d, negative)
    x = (n - 1) * (l if negative else -l)
    if x.denominator == 1:
        return Fraction(1)
    return 1 / (x - math.floor(x))


def rat_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def bruteforce_states(base: int, digits: list[int], n: int) -> list[int]:
    """Carries reachable from 0 when adding n digits of an arbitrary digit set."""
    b = abs(base)
    residue = {x % b: x for x in digits}
    sums = {0}
    for _ in range(n):
        sums = {s + x for s in sums for x in digits}
    states, frontier = {0}, {0}
    while frontier:
        new = {(c + s - residue[(c + s) % b]) // base
               for c in frontier for s in sums}
        frontier = new - states
        states |= frontier
    return sorted(states)


def _system(command: str, b: int, d: int, n: int, negative: bool,
            extra: tuple[str, ...] = (), fmt: str = "json", **params) -> Request:
    argv = (command, "--base", str(b), "--d", str(d), "--n", str(n))
    if negative:
        argv += ("--negative",)
    argv += extra
    if fmt != "json":
        argv += ("--format", fmt)
    return Request(command, argv, dict(base=b, d=d, n=n, negative=negative,
                                       **params), fmt)


# verify-large: (n, negative, b, d), m = n or n + 1, so m spans 21..31, and
# 41 in the fixed ROADMAP baseline case. p = K/L has K >= 12 and
# L = 1 or 2 <= L <= 6; V's row denominators grow like L^(n-i). Sizes are
# dense from m = 23 to 29, where the median and the tail percentile fall, so
# that neither hangs on the latency of one or two requests.
VERIFY_STRATA = (
    (20, False, 15, -3),    # p = 14
    (20, True, 15, 0),      # p = 16/3
    (21, False, 14, -6),    # p = 13/3
    (21, True, 16, -5),     # p = 17
    (22, True, 15, 0),      # p = 16/5
    (22, False, 17, -13),   # p = 16
    (23, True, 16, 0),      # p = 17/5
    (23, False, 16, -7),    # p = 15/4
    (23, False, 14, -3),    # p = 13
    (24, False, 17, -5),    # p = 16/3
    (24, True, 14, -1),     # p = 15
    (24, False, 14, -12),   # p = 13/3
    (25, True, 12, -5),     # p = 13
    (25, False, 14, -5),    # p = 13/3
    (26, False, 14, -7),    # p = 13/6
    (26, True, 12, -9),     # p = 13/3
    (27, True, 16, -3),     # p = 17/2
    (28, False, 14, -1),    # p = 13
    (30, True, 13, -2),     # p = 14/3
)
VERIFY_BASELINE = _system("verify", 16, -3, 40, False)


def verify_large(seed: int) -> list[Request]:
    rng = random.Random(f"verify-large/{seed}")
    reqs = [VERIFY_BASELINE] + [_system("verify", b, d, n, negative)
                                for n, negative, b, d in VERIFY_STRATA]
    rng.shuffle(reqs)
    return reqs


# charpoly: closed-form chains (n, negative, b, d) with m = 7..14 plus the
# m = 21 baseline, and arbitrary digit sets (signed base, n, digits) through
# the brute-force oracle, m = 8..14.
CHARPOLY_STRATA = (
    (7, False, 11, 0), (8, True, 9, -2), (9, False, 10, -8), (10, True, 9, -2),
    (11, False, 10, 0), (12, True, 10, -2), (13, False, 9, -5),
    (8, False, 9, -6), (9, True, 11, -10), (7, True, 8, -2),
)
CHARPOLY_BASELINE = _system("matrix", 11, -3, 20, False, ("--char-poly",))
DIGITSET_STRATA = (
    (5, 2, (0, 1, -3, 8, -1)),            # m = 8
    (-6, 2, (0, 1, -4, 9, 4, -1)),        # m = 8
    (7, 2, (0, -6, 2, 3, -3, 12, 13)),    # m = 10
    (4, 3, (0, 5, -2, -1)),               # m = 9
    (-5, 3, (0, 6, -3, 8, 4)),            # m = 11
    (6, 3, (0, 1, 2, -3, 10, 11)),        # m = 11
    (3, 4, (0, 4, 5)),                    # m = 12
    (4, 4, (0, 1, 2, 7)),                 # m = 12
    (-3, 3, (0, -2, 5)),                  # m = 14
)


def charpoly(seed: int) -> list[Request]:
    """Negating every digit reflects the carry chain (c -> -c): the matrix is
    reversed and its characteristic polynomial, and the products that compute
    it, stay the same. Digits {d..d+b-1} become {d'..d'+b-1} with
    d' = -(b-1) - d. So the seed mirrors each system or not at no change of
    cost."""
    rng = random.Random(f"charpoly/{seed}")
    reqs = [CHARPOLY_BASELINE]
    for n, negative, b, d in CHARPOLY_STRATA:
        if rng.random() < 0.5:
            d = -(b - 1) - d
        reqs.append(_system("matrix", b, d, n, negative, ("--char-poly",)))
    for base, n, digits in DIGITSET_STRATA:
        if rng.random() < 0.5:
            digits = tuple(-x for x in digits)
        b = abs(base)
        argv = ("matrix", "--base", str(b), "--n", str(n),
                "--digits=" + ",".join(map(str, digits)), "--char-poly")
        if base < 0:
            argv += ("--negative",)
        reqs.append(Request("matrix", argv, dict(
            base=b, n=n, negative=base < 0, digits=list(digits))))
    rng.shuffle(reqs)
    return reqs


def _small_p(rng: random.Random) -> Fraction:
    k = rng.randrange(1, 8)
    return Fraction(k + rng.randrange(0, 3 * k + 1), k)


def _cli_small_one(rng: random.Random, command: str, fmt: str) -> Request:
    """A request of 0-40 ms in process, so that start-up still dominates."""
    if command in ("triangle", "find-system", "uniform-sum"):
        p = _small_p(rng)
        key, n = {"triangle": ("n_max", rng.randrange(3, 31)),
                  "find-system": ("n", rng.randrange(2, 10)),
                  "uniform-sum": ("n", rng.randrange(1, 21))}[command]
        argv = (command, "--p", rat_text(p), "--" + key.replace("_", "-"), str(n))
        if fmt != "json":
            argv += ("--format", fmt)
        return Request(command, argv, {"p": p, key: n}, fmt)
    b = rng.randrange(2, 10)
    d = rng.randrange(-(b - 1), 1)
    negative = rng.random() < 0.5
    extra: tuple[str, ...] = ()
    params = {}
    if command == "verify":
        n = rng.randrange(2, 10)
    elif command == "matrix":
        n = rng.randrange(2, 11)
        if n <= 7 and rng.random() < 0.5:
            extra = ("--char-poly",)
    else:
        n = rng.randrange(2, 6)
        steps = rng.randrange(2000, 8000)
        extra = ("--steps", str(steps), "--seed", str(rng.randrange(10 ** 6)),
                 "--burn-in", "100")
        params = dict(steps=steps, burn_in=100)
    return _system(command, b, d, n, negative, extra, fmt, **params)


CLI_COMMANDS = ("triangle", "matrix", "verify", "find-system", "simulate",
                "uniform-sum")


def cli_small(seed: int) -> list[Request]:
    rng = random.Random(f"cli-small/{seed}")
    reqs = [_cli_small_one(rng, command, fmt)
            for command in CLI_COMMANDS for fmt in FORMATS for _ in range(3)]
    rng.shuffle(reqs)
    return reqs


# The ROADMAP baseline cases, present in every cycle of their workload.
BASELINES = (VERIFY_BASELINE.argv, CHARPOLY_BASELINE.argv)

WORKLOADS = {
    "verify-large": verify_large,
    "charpoly": charpoly,
    "cli-small": cli_small,
}

# One small request per subcommand, run untimed before the timed phase so
# that bytecode compilation is not charged to the first timed request.
WARMUP = (
    Request("triangle", ("triangle", "--p", "2", "--n-max", "3"), dict(p=Fraction(2), n_max=3)),
    _system("matrix", 3, -1, 2, False, ("--char-poly",)),
    _system("verify", 3, -1, 2, False),
    Request("find-system", ("find-system", "--p", "5/3", "--n", "3"), dict(p=Fraction(5, 3), n=3)),
    _system("simulate", 3, -1, 2, False,
            ("--steps", "2000", "--seed", "1", "--burn-in", "100"), steps=2000, burn_in=100),
    Request("uniform-sum", ("uniform-sum", "--p", "3", "--n", "3"), dict(p=Fraction(3), n=3)),
)
