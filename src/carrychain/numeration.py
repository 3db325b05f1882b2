"""Numeration systems with offset consecutive digit sets, base positive or negative.

A system has base magnitude ``b >= 2``, a sign, and a least digit ``d`` with
``d <= 0 <= d + b - 1``, giving the digit set {d, ..., d + b - 1}. Every
residue class mod b has exactly one representative in the digit set, so digit
expansion is a forced greedy choice.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction


class RepresentableClass(enum.Enum):
    ALL_INTEGERS = "all-integers"
    NON_NEGATIVES = "non-negatives"
    NON_POSITIVES = "non-positives"


# Record types here and in carries, spectral and simulate are namedtuple
# subclasses with the checks in __new__: unlike dataclasses they cost next to
# nothing to define, which every CLI start-up pays for.
class NumerationSystem(
        namedtuple("NumerationSystem", "base_magnitude d negative")):
    __slots__ = ()

    def __new__(cls, base_magnitude: int, d: int, negative: bool = False):
        b = base_magnitude
        if b < 2:
            raise ValueError(f"base magnitude must be >= 2, got {b}")
        if not (d <= 0 <= d + b - 1):
            raise ValueError(
                f"digit set {{{d}, ..., {d + b - 1}}} must contain 0")
        return super().__new__(cls, base_magnitude, d, negative)

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

    def digit_for_residue(self, x: int) -> int:
        """The unique digit congruent to x mod the base magnitude."""
        b = self.base_magnitude
        return self.d + (x - self.d) % b

    def representable_class(self) -> RepresentableClass:
        if self.negative:
            return RepresentableClass.ALL_INTEGERS
        if self.d == 0:
            return RepresentableClass.NON_NEGATIVES
        if self.d == -(self.base_magnitude - 1):
            return RepresentableClass.NON_POSITIVES
        return RepresentableClass.ALL_INTEGERS


def expand(sys: NumerationSystem, x: int) -> list[int]:
    """Digit string of x, least significant first.

    Greedy: each digit is the forced residue representative, then the base
    is divided out. Raises ValueError for integers the system cannot
    represent (wrong sign when the digit set is one-sided).
    """
    cls = sys.representable_class()
    if cls is RepresentableClass.NON_NEGATIVES and x < 0:
        raise ValueError(f"{x} not representable: digit set is non-negative")
    if cls is RepresentableClass.NON_POSITIVES and x > 0:
        raise ValueError(f"{x} not representable: digit set is non-positive")
    if x == 0:
        return [0]
    # For valid systems the loop contracts to 0; the cap is a pure guard.
    cap = 64 + math.ceil(math.log(abs(x) + 1, sys.base_magnitude))
    base = sys.base
    digits: list[int] = []
    for _ in range(cap):
        if x == 0:
            return digits
        x0 = sys.digit_for_residue(x)
        digits.append(x0)
        x = (x - x0) // base
    raise RuntimeError("digit expansion failed to terminate (internal error)")


def evaluate(sys: NumerationSystem, digits: list[int]) -> int:
    """Value of a digit string (least significant first) via Horner."""
    lo, hi = sys.d, sys.d + sys.base_magnitude - 1
    for x in digits:
        if not lo <= x <= hi:
            raise ValueError(f"digit {x} outside {{{lo}, ..., {hi}}}")
    acc = 0
    for x in reversed(digits):
        acc = acc * sys.base + x
    return acc
