"""Unit tests for proper fractions and the remainder maps."""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import semi_unimodular_fractions
from fujiki_oka import ProperFraction, expand


class TestConstruction:
    def test_basic(self):
        v = ProperFraction((1, 2, 7), 12)
        assert v.n == 3
        assert v.denominator == 12
        assert v.numerators == (1, 2, 7)

    def test_rejects_short_tuples(self):
        with pytest.raises(ValueError):
            ProperFraction((1,), 5)

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            ProperFraction((0, 0), 0)
        with pytest.raises(ValueError):
            ProperFraction((0, 0), -3)

    def test_rejects_out_of_range_numerators(self):
        with pytest.raises(ValueError):
            ProperFraction((1, 5), 5)
        with pytest.raises(ValueError):
            ProperFraction((1, -1), 5)

    def test_rejects_bools(self):
        # bool is an int subclass, but True is no residue
        with pytest.raises(ValueError):
            ProperFraction((True, 2), 3)
        with pytest.raises(ValueError):
            ProperFraction((0, 0), True)
        with pytest.raises(ValueError):
            ProperFraction((1, np.bool_(True)), 3)

    def test_accepts_numpy_integers(self):
        v = ProperFraction((np.int64(1), np.int32(2)), np.int64(5))
        assert v == ProperFraction((1, 2), 5)
        assert all(type(a) is int for a in v.numerators)
        assert type(v.denominator) is int
        with pytest.raises(ValueError, match="outside"):
            ProperFraction((1, np.int64(7)), 5)

    def test_rejects_non_integers(self):
        for bad in (2.0, np.float64(2), "2"):
            with pytest.raises(ValueError, match="integer"):
                ProperFraction((1, bad), 5)
        with pytest.raises(ValueError):
            ProperFraction((1, 2), 5.0)

    def test_zero_element(self):
        z = ProperFraction((0, 0, 0), 1)
        assert (z.numerators, z.denominator) == ((0, 0, 0), 1)

    def test_str(self):
        assert str(ProperFraction((1, 2, 7), 12)) == "(1,2,7)/12"


class TestScalars:
    def test_height(self):
        assert ProperFraction((1, 2, 7), 12).height() == -2
        assert ProperFraction((1, 2, 5), 12).height() == -4
        assert ProperFraction((1, 1, 1), 2).height() == 1

    def test_ones(self):
        assert ProperFraction((1, 2, 7), 12).ones() == 1
        assert ProperFraction((1, 0, 1), 2).ones() == 2
        assert ProperFraction((0, 0, 0), 1).ones() == 0

    def test_semi_unimodular_flag(self):
        assert ProperFraction((1, 2, 7), 12).is_semi_unimodular()
        assert ProperFraction((2, 1), 3).is_semi_unimodular()
        assert not ProperFraction((2, 3), 5).is_semi_unimodular()
        assert not ProperFraction((0, 0), 1).is_semi_unimodular()


class TestRemainder:
    def test_golden_images(self):
        v = ProperFraction((1, 2, 7), 12)
        assert v.remainder(2) == ProperFraction((1, 0, 1), 2)
        assert v.remainder(3) == ProperFraction((1, 2, 2), 7)

    def test_unit_slot_gives_zero(self):
        v = ProperFraction((1, 2, 7), 12)
        assert v.remainder(1) == ProperFraction((0, 0, 0), 1)

    def test_zero_slot_gives_infinity(self):
        v = ProperFraction((1, 0, 3), 7)
        assert v.remainder(2) is None

    def test_new_denominator_is_pivot(self):
        v = ProperFraction((1, 2, 7), 12)
        assert v.remainder(3).denominator == 7

    def test_index_out_of_range(self):
        v = ProperFraction((1, 2), 5)
        for bad in (0, 3, -1):
            with pytest.raises(IndexError):
                v.remainder(bad)

    def test_requires_semi_unimodular(self):
        v = ProperFraction((2, 3), 5)
        with pytest.raises(ValueError):
            v.remainder(1)

    @given(semi_unimodular_fractions())
    def test_images_semi_unimodular_or_dropped(self, v):
        # the closure property everything else leans on
        for i in range(1, v.n + 1):
            image = v.remainder(i)
            if image is None or image.denominator == 1:
                continue
            assert image.is_semi_unimodular()

    @given(semi_unimodular_fractions())
    def test_denominators_strictly_decrease(self, v):
        for i in range(1, v.n + 1):
            image = v.remainder(i)
            if image is None:
                continue
            assert image.denominator < v.denominator
            assert image.denominator == v.numerators[i - 1]

    @given(semi_unimodular_fractions())
    def test_images_are_valid_proper_fractions(self, v):
        for i in range(1, v.n + 1):
            image = v.remainder(i)
            if image is None:
                continue
            assert all(0 <= a < image.denominator for a in image.numerators)

    # a fraction of order near 60 expands to ~10^4 terms, so one example can
    # take longer than hypothesis's default deadline on a loaded host
    @settings(deadline=None)
    @given(semi_unimodular_fractions())
    def test_images_equal_their_checked_construction(self, v):
        # remainder builds images without __post_init__, so each one, and
        # each image of an image, must be what the checked constructor
        # makes of the same values, with plain int entries
        for coef in expand(v).coefficients:
            for i in range(1, coef.n + 1):
                image = coef.remainder(i)
                if image is None:
                    continue
                assert image == ProperFraction(image.numerators, image.denominator)
                assert type(image.numerators) is tuple
                assert type(image.denominator) is int
                assert all(type(a) is int for a in image.numerators)
