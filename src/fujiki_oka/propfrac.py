"""Exact n-dimensional proper fractions and their remainder maps.

A proper fraction ``(a_1, ..., a_n)/r`` encodes the diagonal matrix
``diag(eps^{a_1}, ..., eps^{a_n})`` for a primitive r-th root of unity
``eps``, i.e. the generator of a cyclic subgroup of GL(n, C).  The
remainder maps are the elementary step of a multidimensional continued
fraction algorithm: the i-th map swaps the denominator for the i-th
numerator and reduces everything else modulo it.

All arithmetic in this module is exact integer arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction


class _Infinity:
    """Sentinel returned by a remainder map when the pivot numerator is 0."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "infinity"


#: The infinite remainder image.  Compare with ``is``.
INFINITY = _Infinity()


def _as_int(value: object, message: str) -> int:
    """``operator.index(value)``, refusing bools, which Python counts as ints."""
    if isinstance(value, bool):
        raise ValueError(f"{message}, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{message}, got {value!r}") from None


@dataclass(frozen=True)
class ProperFraction:
    """A tuple of residues over a positive denominator.

    Invariants: at least two numerators, ``denominator >= 1`` and every
    numerator lies in ``[0, denominator - 1]``.  The all-zero fraction over
    denominator 1 is representable (it shows up as a remainder image) but is
    not a valid group type.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        nums = tuple(self.numerators)
        object.__setattr__(self, "numerators", nums)
        if len(nums) < 2:
            raise ValueError("need at least two numerators")
        r = self.denominator
        if type(r) is not int:
            r = _as_int(r, "denominator must be a positive integer")
            object.__setattr__(self, "denominator", r)
        if r < 1:
            raise ValueError(f"denominator must be a positive integer, got {r!r}")
        for a in nums:
            if type(a) is not int or not 0 <= a < r:
                break
        else:
            return
        # slow path, off the hot loop: integer-likes such as numpy integers
        nums = tuple(_as_int(a, "numerator must be an integer") for a in nums)
        for a in nums:
            if not 0 <= a < r:
                raise ValueError(f"numerator {a!r} outside [0, {r - 1}]")
        object.__setattr__(self, "numerators", nums)

    @property
    def n(self) -> int:
        return len(self.numerators)

    def is_semi_unimodular(self) -> bool:
        """True when some numerator equals 1 (in any position)."""
        return 1 in self.numerators

    def is_zero(self) -> bool:
        """True for the all-zero fraction over denominator 1."""
        return self.denominator == 1

    def height(self) -> int:
        """Sum of the numerators minus the denominator."""
        return sum(self.numerators) - self.denominator

    def age(self) -> Fraction:
        """Sum of the numerators divided by the denominator, exactly."""
        return Fraction(sum(self.numerators), self.denominator)

    def ones(self) -> int:
        """Number of numerator entries equal to 1."""
        return sum(1 for a in self.numerators if a == 1)

    def remainder(self, i: int) -> "ProperFraction | _Infinity":
        """Apply the i-th remainder map (i is 1-based).

        The i-th numerator becomes the new denominator; every other
        numerator is reduced modulo it and the old denominator re-enters,
        negated, at position i.  Returns :data:`INFINITY` when the i-th
        numerator is 0.  Only defined on semi-unimodular fractions.
        """
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} outside 1..{self.n}")
        if not self.is_semi_unimodular():
            raise ValueError(f"remainder map undefined: {self} has no unit numerator")
        pivot = self.numerators[i - 1]
        if pivot == 0:
            return INFINITY
        # floor modulus keeps every residue in [0, pivot - 1], including the
        # negated denominator entry
        nums = tuple(
            (-self.denominator) % pivot if j == i - 1 else a % pivot
            for j, a in enumerate(self.numerators)
        )
        return ProperFraction(nums, pivot)

    def __str__(self) -> str:
        return "(%s)/%d" % (",".join(str(a) for a in self.numerators), self.denominator)

