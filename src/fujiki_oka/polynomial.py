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

from .propfrac import INFINITY, ProperFraction

Word = tuple[int, ...]


@dataclass(frozen=True)
class Term:
    word: Word
    coefficient: ProperFraction

    def __str__(self) -> str:
        if not self.word:
            return str(self.coefficient)
        return "%s * %s" % (self.coefficient, " ".join(f"x{i}" for i in self.word))


@dataclass(frozen=True)
class RemainderPolynomial:
    """All terms of an expansion, in canonical (word length, lex) order."""

    root: ProperFraction
    terms: tuple[Term, ...]

    def __len__(self) -> int:
        return len(self.terms)

    def total_height(self) -> int:
        """Sum of the heights of all coefficients."""
        return sum(t.coefficient.height() for t in self.terms)

    def size(self) -> int:
        """Total count of numerator entries equal to 1 across all terms."""
        return sum(t.coefficient.ones() for t in self.terms)

    def all_ages_one(self) -> bool:
        """Whether every coefficient has age exactly 1.

        This is the arithmetic criterion for the associated resolution to
        be crepant.
        """
        return all(t.coefficient.age() == 1 for t in self.terms)

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

    def __str__(self) -> str:
        return self.pretty()


def expand(root: ProperFraction) -> RemainderPolynomial:
    """Expand ``root`` into its remainder polynomial.

    Terms are generated breadth-first: each term's children are appended in
    index order 1..n, so the list comes out in canonical (length, lex)
    order.  Images equal to infinity or to the zero fraction over 1 are
    dropped.  Raises ``ValueError`` if the root is not semi-unimodular and
    ``ArithmeticError`` if an intermediate coefficient escapes the
    semi-unimodular family, which would mean the input was outside the
    machinery's scope.
    """
    if not root.is_semi_unimodular():
        raise ValueError(f"expansion requires a semi-unimodular root, got {root}")
    terms: list[Term] = [Term((), root)]
    for term in terms:
        coef = term.coefficient
        if not coef.is_semi_unimodular():
            raise ArithmeticError(f"coefficient {coef} at word {term.word} has no unit entry")
        for i in range(1, coef.n + 1):
            image = coef.remainder(i)
            if image is INFINITY or image.is_zero():
                continue
            terms.append(Term(term.word + (i,), image))
    return RemainderPolynomial(root, tuple(terms))
