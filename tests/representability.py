"""Digit expansion and representability in a NumerationSystem.

The setting the carry chains live in, kept as a test oracle: each digit is
the forced residue representative, then the base is divided out.
"""

import enum
import math

from carrychain.numeration import NumerationSystem


class RepresentableClass(enum.Enum):
    ALL_INTEGERS = "all-integers"
    NON_NEGATIVES = "non-negatives"
    NON_POSITIVES = "non-positives"


def digit_for_residue(sys: NumerationSystem, x: int) -> int:
    """The unique digit congruent to x mod the base magnitude."""
    return sys.d + (x - sys.d) % sys.base_magnitude


def representable_class(sys: NumerationSystem) -> RepresentableClass:
    if sys.negative:
        return RepresentableClass.ALL_INTEGERS
    if sys.d == 0:
        return RepresentableClass.NON_NEGATIVES
    if sys.d == -(sys.base_magnitude - 1):
        return RepresentableClass.NON_POSITIVES
    return RepresentableClass.ALL_INTEGERS


def expand(sys: NumerationSystem, x: int) -> list[int]:
    """Digit string of x, least significant first.

    Greedy: each digit is the forced residue representative, then the base
    is divided out. Raises ValueError for integers the system cannot
    represent (wrong sign when the digit set is one-sided).
    """
    cls = representable_class(sys)
    if cls is RepresentableClass.NON_NEGATIVES and x < 0:
        raise ValueError(f"{x} not representable: digit set is non-negative")
    if cls is RepresentableClass.NON_POSITIVES and x > 0:
        raise ValueError(f"{x} not representable: digit set is non-positive")
    if x == 0:
        return [0]
    # For valid systems the loop contracts to 0; the cap is a pure guard.
    cap = 64 + math.ceil(math.log(abs(x) + 1, sys.base_magnitude))
    digits: list[int] = []
    for _ in range(cap):
        if x == 0:
            return digits
        x0 = digit_for_residue(sys, x)
        digits.append(x0)
        x = (x - x0) // sys.base
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
