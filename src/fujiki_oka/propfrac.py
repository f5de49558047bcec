"""Exact n-dimensional proper fractions and their remainder maps.

A proper fraction ``(a_1, ..., a_n)/r`` encodes the diagonal matrix
``diag(eps^{a_1}, ..., eps^{a_n})`` for a primitive r-th root of unity
``eps``, i.e. the generator of a cyclic subgroup of GL(n, C).  The
remainder maps are the elementary step of a multidimensional continued
fraction algorithm: the i-th map swaps the denominator for the i-th
numerator and reduces everything else modulo it.  Its value is infinity
when that numerator is 0, and ``remainder`` returns ``None`` there.

All arithmetic in this module is exact integer arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


def _as_int(value: object, message: str) -> int:
    """``operator.index(value)``, refusing bools, which Python counts as ints."""
    try:
        if type(value) is not bool:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{message}, got {value!r}")


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
        if len(nums) < 2:
            raise ValueError("need at least two numerators")
        r = _as_int(self.denominator, "denominator must be a positive integer")
        if r < 1:
            raise ValueError(f"denominator must be a positive integer, got {r!r}")
        # integer-likes such as numpy integers become plain ints
        nums = tuple([_as_int(a, "numerator must be an integer") for a in nums])
        for a in nums:
            if not 0 <= a < r:
                raise ValueError(f"numerator {a!r} outside [0, {r - 1}]")
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", r)

    @property
    def n(self) -> int:
        return len(self.numerators)

    def is_semi_unimodular(self) -> bool:
        """True when some numerator equals 1 (in any position)."""
        return 1 in self.numerators

    def height(self) -> int:
        """Sum of the numerators minus the denominator."""
        return sum(self.numerators) - self.denominator

    def ones(self) -> int:
        """Number of numerator entries equal to 1."""
        return self.numerators.count(1)

    def remainder(self, i: int) -> "ProperFraction | None":
        """Apply the i-th remainder map (i is 1-based).

        The i-th numerator becomes the new denominator; every other
        numerator is reduced modulo it and the old denominator re-enters,
        negated, at position i.  The map's value is infinity when the i-th
        numerator is 0; ``None`` stands for it.  Only defined on
        semi-unimodular fractions.

        The image skips ``__post_init__``: its entries are ``int`` residues
        in ``[0, pivot)`` over a pivot of at least 1, as many as this
        fraction has, so it satisfies every invariant by construction.
        """
        nums = self.numerators
        if not 1 <= i <= len(nums):
            raise IndexError(f"index {i} outside 1..{len(nums)}")
        if 1 not in nums:
            raise ValueError(f"remainder map undefined: {self} has no unit numerator")
        pivot = nums[i - 1]
        if pivot == 0:
            return None
        # floor modulus keeps every residue in [0, pivot - 1], including the
        # negated denominator entry
        image = [a % pivot for a in nums]
        image[i - 1] = (-self.denominator) % pivot
        return _trusted(tuple(image), pivot)

    def __str__(self) -> str:
        return "(%s)/%d" % (",".join(str(a) for a in self.numerators), self.denominator)


def _trusted(numerators: tuple[int, ...], denominator: int) -> ProperFraction:
    """A ``ProperFraction`` built without ``__post_init__``, for values that
    already hold its invariants."""
    frac = object.__new__(ProperFraction)
    object.__setattr__(frac, "numerators", numerators)
    object.__setattr__(frac, "denominator", denominator)
    return frac
