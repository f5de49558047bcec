"""Unit tests for remainder polynomial expansion."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings

from conftest import (
    all_semi_unimodular,
    oracle_expand,
    oracle_height,
    oracle_size,
    semi_unimodular_fractions,
)
from fujiki_oka import ProperFraction, RemainderPolynomial, expand, polynomial_json_text


def words_and_coefficients(poly: RemainderPolynomial):
    return {w: (c.numerators, c.denominator) for w, c in zip(poly.words(), poly.coefficients)}


def in_canonical_order(poly: RemainderPolynomial) -> bool:
    keys = [(len(w), w) for w in poly.words()]
    return keys == sorted(keys)


class TestGolden:
    def test_expand_1_2_7_over_12(self):
        poly = expand(ProperFraction((1, 2, 7), 12))
        assert len(poly) == 5
        assert words_and_coefficients(poly) == {
            (): ((1, 2, 7), 12),
            (2,): ((1, 0, 1), 2),
            (3,): ((1, 2, 2), 7),
            (3, 2): ((1, 1, 0), 2),
            (3, 3): ((1, 0, 1), 2),
        }
        assert poly.size() == 8
        assert poly.total_height() == -4

    def test_expand_1_2_5_over_12(self):
        poly = expand(ProperFraction((1, 2, 5), 12))
        assert words_and_coefficients(poly) == {
            (): ((1, 2, 5), 12),
            (2,): ((1, 0, 1), 2),
            (3,): ((1, 2, 3), 5),
            (3, 2): ((1, 1, 1), 2),
            (3, 3): ((1, 2, 1), 3),
            (3, 3, 2): ((1, 1, 1), 2),
        }
        assert poly.size() == 12
        assert poly.total_height() == 0

    def test_term_rendering(self):
        poly = expand(ProperFraction((1, 2, 7), 12))
        lines = poly.pretty().splitlines()
        assert lines[0] == "(1,2,7)/12"
        assert "(1,0,1)/2 * x2" in lines
        assert "(1,1,0)/2 * x3 x2" in lines
        assert "(1,0,1)/2 * x3 x3" in lines

    def test_surface_chain(self):
        poly = expand(ProperFraction((1, 2), 5))
        assert words_and_coefficients(poly) == {
            (): ((1, 2), 5),
            (2,): ((1, 1), 2),
        }
        assert poly.size() == 3
        assert poly.total_height() == -2
        assert poly.size() == 5 + poly.total_height()


class TestStructure:
    def test_terms_in_canonical_order(self):
        assert in_canonical_order(expand(ProperFraction((1, 2, 5), 12)))

    def test_rejects_non_semi_unimodular_root(self):
        with pytest.raises(ValueError):
            expand(ProperFraction((2, 3), 5))

    def test_to_json_shape(self):
        poly = expand(ProperFraction((1, 2), 5))
        data = json.loads(polynomial_json_text(poly))
        assert data[0] == {"word": [], "numerators": [1, 2], "denominator": 5}
        assert all(set(entry) == {"word", "numerators", "denominator"} for entry in data)

    @pytest.mark.parametrize(
        "coefficients",
        [
            # the root alone, though (1,2,7)/12 has two children
            (ProperFraction((1, 2, 7), 12),),
            # a second coefficient under a root that has no children
            (ProperFraction((1, 1), 2), ProperFraction((1, 1), 2)),
        ],
    )
    def test_output_refuses_coefficients_that_are_not_an_expansion(self, coefficients):
        poly = RemainderPolynomial(coefficients)
        with pytest.raises(ValueError):
            poly.pretty()
        with pytest.raises(ValueError):
            polynomial_json_text(poly)

    def test_expand_memory_is_linear_in_depth(self):
        # 1/3001(1,2,2998) has 2,000 terms down to depth 1,000; a word
        # stored on every term would copy its parent's, 1.0 M entries in all
        v = ProperFraction((1, 2, 2998), 3001)
        tracemalloc.start()
        try:
            poly = expand(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(poly) == 2000
        assert max(map(len, poly.words())) == 1000
        assert peak < 2**20


class TestAgainstOracle:
    def test_exhaustive_small_orders(self):
        for dim, r_top in ((2, 12), (3, 12), (4, 6)):
            for r in range(2, r_top + 1):
                for v in all_semi_unimodular(dim, r):
                    poly = expand(v)
                    assert words_and_coefficients(poly) == oracle_expand(
                        v.numerators, v.denominator
                    ), f"mismatch at {v}"
                    assert in_canonical_order(poly), f"order at {v}"

    @settings(max_examples=200)
    @given(semi_unimodular_fractions(max_n=4, max_r=50))
    def test_random_types(self, v):
        poly = expand(v)
        assert words_and_coefficients(poly) == oracle_expand(v.numerators, v.denominator)
        assert in_canonical_order(poly)
        assert poly.size() == oracle_size(v.numerators, v.denominator)
        assert poly.total_height() == oracle_height(v.numerators, v.denominator)

    @given(semi_unimodular_fractions(max_n=4, max_r=50))
    def test_size_recursion(self, v):
        # size telescopes through the remainder images of the root
        total = v.ones()
        for i in range(1, v.n + 1):
            image = v.remainder(i)
            if image is None or image.denominator == 1:
                continue
            total += expand(image).size()
        assert expand(v).size() == total
