"""Numeration systems with offset consecutive digit sets, base positive or negative.

A system has base magnitude ``b >= 2``, a sign, and a least digit ``d`` with
``d <= 0 <= d + b - 1``, giving the digit set {d, ..., d + b - 1}. Every
residue class mod b has exactly one representative in the digit set, so the
digit a column emits is forced.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


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
