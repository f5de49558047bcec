"""Remainder polynomials: the full expansion of a semi-unimodular fraction.

Starting from a root fraction, every composition of remainder maps that
neither blows up to infinity nor collapses to the zero fraction contributes
one term.  A term is indexed by its word ``(i_1, ..., i_l)``: appending an
index ``i`` to a word applies the i-th remainder map to that word's
coefficient.  Denominators strictly decrease along any branch, so the
expansion is finite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .propfrac import ProperFraction


@dataclass(frozen=True)
class RemainderPolynomial:
    """An expansion's coefficients in canonical (word length, lex) order."""

    coefficients: tuple[ProperFraction, ...]

    def __len__(self) -> int:
        return len(self.coefficients)

    def words(self) -> tuple[tuple[int, ...], ...]:
        """Each coefficient's word, in ``coefficients`` order.

        One breadth-first walk, as ``expand`` made it: a coefficient's
        children are its slots whose numerator is at least 2, since a pivot
        of 0 maps to infinity and one of 1 to the zero fraction over 1.
        """
        words = [()]
        # the zip also reads the words appended while it runs
        for word, coef in zip(words, self.coefficients):
            words.extend(word + (i,) for i, a in enumerate(coef.numerators, 1) if a >= 2)
        return tuple(words)

    def total_height(self) -> int:
        """Sum of the heights of all coefficients."""
        return sum(c.height() for c in self.coefficients)

    def size(self) -> int:
        """Total count of numerator entries equal to 1 across all terms."""
        return sum(c.ones() for c in self.coefficients)

    def pretty(self) -> str:
        """One term per line, ``coef * x_{i1} x_{i2} ...``.  ``ValueError``
        when the coefficients and ``words()`` differ in count."""
        return "\n".join(
            "%s * %s" % (coef, " ".join(f"x{i}" for i in word)) if word else str(coef)
            for word, coef in zip(self.words(), self.coefficients, strict=True)
        )


def expand(root: ProperFraction) -> RemainderPolynomial:
    """Expand ``root`` into its remainder polynomial.

    Coefficients are generated breadth-first: each one's images are appended
    in index order 1..n, so the list comes out in canonical (length, lex)
    order.  Images equal to infinity (``None``) or to the zero fraction over
    1 are dropped.  Raises ``ValueError`` if the root is not
    semi-unimodular.  Every kept image is semi-unimodular again: the entry
    1 of its parent reduces to 1 modulo a denominator of at least 2.
    """
    if not root.is_semi_unimodular():
        raise ValueError(f"expansion requires a semi-unimodular root, got {root}")
    coefficients = [root]
    for coef in coefficients:
        for i in range(1, len(coef.numerators) + 1):
            image = coef.remainder(i)
            if image is not None and image.denominator != 1:
                coefficients.append(image)
    return RemainderPolynomial(tuple(coefficients))
