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
class Term:
    word: tuple[int, ...]
    coefficient: ProperFraction

    def __str__(self) -> str:
        if not self.word:
            return str(self.coefficient)
        return "%s * %s" % (self.coefficient, " ".join(f"x{i}" for i in self.word))


@dataclass(frozen=True)
class RemainderPolynomial:
    """All terms of an expansion, in canonical (word length, lex) order."""

    terms: tuple[Term, ...]

    def __len__(self) -> int:
        return len(self.terms)

    def total_height(self) -> int:
        """Sum of the heights of all coefficients."""
        return sum(t.coefficient.height() for t in self.terms)

    def size(self) -> int:
        """Total count of numerator entries equal to 1 across all terms."""
        return sum(t.coefficient.ones() for t in self.terms)

    def pretty(self) -> str:
        """One term per line, ``coef * x_{i1} x_{i2} ...``."""
        return "\n".join(str(t) for t in self.terms)

    def to_json(self) -> list[dict]:
        """JSON-ready list of ``{word, numerators, denominator}`` objects."""
        return [
            {
                "word": list(t.word),
                "numerators": list(t.coefficient.numerators),
                "denominator": t.coefficient.denominator,
            }
            for t in self.terms
        ]


def expand(root: ProperFraction) -> RemainderPolynomial:
    """Expand ``root`` into its remainder polynomial.

    Terms are generated breadth-first: each term's children are appended in
    index order 1..n, so the list comes out in canonical (length, lex)
    order.  Images equal to infinity (``None``) or to the zero fraction over
    1 are dropped.  Raises ``ValueError`` if the root is not
    semi-unimodular.  Every kept image is semi-unimodular again: the entry
    1 of its parent reduces to 1 modulo a denominator of at least 2.
    """
    if not root.is_semi_unimodular():
        raise ValueError(f"expansion requires a semi-unimodular root, got {root}")
    terms: list[Term] = [Term((), root)]
    for term in terms:
        coef = term.coefficient
        word = term.word
        for i in range(1, len(coef.numerators) + 1):
            image = coef.remainder(i)
            if image is None or image.denominator == 1:
                continue
            terms.append(Term(word + (i,), image))
    return RemainderPolynomial(tuple(terms))
