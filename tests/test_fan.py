"""Unit tests for the lattice, subdivision, and validation machinery."""

import math
import random
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import assume, given, settings

import fujiki_oka.fan as fan_mod
from conftest import all_semi_unimodular, oracle_expand, semi_unimodular_fractions
from fujiki_oka import (
    Cone,
    Fan,
    GroupType,
    ProperFraction,
    RayInfo,
    build_resolution,
    cone_multiplicity,
    det_int,
    expand,
    resolution_report,
    star_subdivide,
    validate_fan,
)


# every type the exhaustive cross-checks below walk through
SMALL_ORDERS = ((2, 30), (3, 12), (4, 5))


def small_types():
    for dim, r_max in SMALL_ORDERS:
        for r in range(2, r_max + 1):
            for frac in all_semi_unimodular(dim, r):
                yield GroupType(frac)


def interior_nodes(fan):
    """word -> (numerators, denominator) of every non-smooth node, with the
    words ``Fan.words`` reads off the preorder."""
    words = fan.words()
    assert len(words) == len(fan.nodes)
    nodes = [c for c in fan.nodes if not c.is_smooth_type()]
    table = {
        w: (c.local_type.numerators, c.local_type.denominator)
        for c, w in zip(fan.nodes, words)
        if not c.is_smooth_type()
    }
    assert len(table) == len(nodes)
    # the accessor that sweep records and the fan JSON read
    assert fan.interior_types == tuple(c.local_type for c in nodes)
    return table


def det_by_permutations(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += (-1) ** inversions * prod
    return total


class TestDeterminant:
    def test_goldens(self):
        # the empty matrix is square, with the empty product as determinant
        assert det_int([]) == 1
        assert det_int([[5]]) == 5
        assert det_int([[1, 2], [3, 4]]) == -2
        assert det_int([[12, 0, 0], [0, 12, 0], [0, 0, 12]]) == 12**3
        assert det_int([[1, 2, 7], [0, 12, 0], [0, 0, 12]]) == 144

    def test_singular(self):
        # closed forms
        assert det_int([[1, 2], [2, 4]]) == 0
        assert det_int([[0, 0], [1, 1]]) == 0
        assert det_int([[0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 9], [0, 1, 1, 1]]) == 0
        # Bareiss finds no nonzero pivot in a column and stops at 0: the
        # first column here, the second after one elimination step below
        rows = [[0, 1, 2, 3, 4], [0, 4, 5, 6, 7], [0, 7, 8, 9, 1], [0, 1, 1, 1, 2], [0, 3, 1, 4, 1]]
        assert det_int(rows) == 0
        rows = [[1, 2, 3, 4, 5], [2, 4, 1, 0, 3], [3, 6, 2, 2, 1], [1, 2, 5, 3, 3], [4, 8, 1, 1, 2]]
        assert det_int(rows) == 0

    def test_needs_pivot_swap(self):
        # closed forms, where no pivot is chosen
        assert det_int([[0, 1], [1, 0]]) == -1
        assert det_int([[0, 2, 1], [3, 0, 0], [0, 0, 4]]) == -24
        # Bareiss swaps rows 0 and 1 for its first pivot: one transposition
        # away from diag(3, 2, 5, 7, 11)
        rows = [
            [0, 2, 0, 0, 0],
            [3, 0, 0, 0, 0],
            [0, 0, 5, 0, 0],
            [0, 0, 0, 7, 0],
            [0, 0, 0, 0, 11],
        ]
        assert det_int(rows) == -2310
        # here rows 0 and 2 for the first pivot, then rows 1 and 4 for the second
        rows = [
            [0, 0, 1, 2, 0, 1],
            [0, 0, 3, 1, 1, 0],
            [2, 1, 0, 0, 1, 1],
            [4, 2, 1, 0, 0, 3],
            [1, 0, 0, 1, 2, 0],
            [0, 1, 1, 1, 1, 1],
        ]
        assert det_int(rows) == det_by_permutations(rows) == 6

    def test_against_permutation_expansion(self):
        # closed forms for n <= 4, Bareiss from 5; both past int64
        rng = random.Random(0)
        for n in range(1, 6):
            for bound in (9, 10**30):
                for _ in range(40):
                    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
                    assert det_int(rows) == det_by_permutations(rows)
                    assert det_int(tuple(map(tuple, rows))) == det_by_permutations(rows)

    def test_rejects_ragged(self):
        # a wrong row length or row count at each closed-form size and above
        for rows in (
            [[1, 2]],
            [[1], [2]],
            [[1, 2], [3]],
            [[1, 2], [3, 4, 5]],
            [[1, 2, 3], [4, 5, 6]],
            [[1, 2], [3, 4], [5, 6]],
            [[1, 2, 3], [4, 5, 6], [7, 8]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 9, 10]],
            [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 2, 3]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1, 0]],
            [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
        ):
            with pytest.raises(ValueError, match="square"):
                det_int(rows)


class TestGroupType:
    def test_from_weights(self):
        g = GroupType.from_weights(12, (1, 2, 7))
        assert g.r == 12
        assert g.n == 3
        assert g.weights == (1, 2, 7)
        assert str(g) == "1/12(1,2,7)"

    def test_rejects_without_unit_weight(self):
        with pytest.raises(ValueError):
            GroupType.from_weights(5, (2, 3))

    def test_rejects_weight_out_of_range(self):
        with pytest.raises(ValueError):
            GroupType.from_weights(5, (1, 5))

    def test_contains(self):
        g = GroupType.from_weights(12, (1, 2, 7))
        assert g.contains((1, 2, 7))
        assert g.contains((12, 0, 0))
        assert g.contains((6, 0, 6))
        assert g.contains((7, 2, 1))
        assert not g.contains((1, 2, 6))
        assert not g.contains((1, 0, 0))
        assert g.contains((0, 0, 0))

    def test_contains_checks_length(self):
        g = GroupType.from_weights(12, (1, 2, 7))
        with pytest.raises(ValueError):
            g.contains((1, 2))

    def test_primitive(self):
        g = GroupType.from_weights(12, (1, 2, 7))
        assert g.primitive((2, 4, 14)) == (1, 2, 7)
        # gcd 6 has the divisors 2 and 3, which give lattice points too
        assert g.primitive((6, 12, 42)) == (1, 2, 7)
        assert g.primitive((24, 0, 0)) == (12, 0, 0)
        assert g.primitive((6, 0, 6)) == (6, 0, 6)
        assert g.primitive((2, 4, 2)) == (2, 4, 2)

    def test_multiples_of_every_ray(self):
        # primitive must try the divisors of the gcd largest first
        for r in range(2, 13):
            for frac in all_semi_unimodular(3, r):
                group = GroupType(frac)
                for ray in build_resolution(group).rays:
                    p = ray.scaled
                    for k in range(1, 13):
                        kp = tuple(k * v for v in p)
                        assert group.primitive(kp) == p, (group, p, k)

    def test_primitive_rejects_bad_input(self):
        g = GroupType.from_weights(12, (1, 2, 7))
        with pytest.raises(ValueError):
            g.primitive((0, 0, 0))
        with pytest.raises(ValueError):
            g.primitive((1, 0, 0))

    def test_discrepancy_goldens(self):
        g = GroupType.from_weights(12, (1, 2, 7))
        table = {ray.scaled: ray.discrepancy for ray in build_resolution(g).rays}
        assert table == {
            (12, 0, 0): 0,
            (0, 12, 0): 0,
            (0, 0, 12): 0,
            (1, 2, 7): Fraction(-1, 6),
            (6, 0, 6): 0,
            (2, 4, 2): Fraction(-1, 3),
            (7, 2, 1): Fraction(-1, 6),
        }


class TestSubdivision:
    def setup_method(self):
        self.group = GroupType.from_weights(12, (1, 2, 7))
        self.axes = ((12, 0, 0), (0, 12, 0), (0, 0, 12))
        self.root = Cone(self.axes, self.group.fraction)

    def test_subdivision_point(self):
        point, _ = star_subdivide(self.root, self.group)
        assert point == (1, 2, 7)

    def test_children(self):
        _, kids = star_subdivide(self.root, self.group)
        assert kids[0].generators == ((1, 2, 7), (0, 12, 0), (0, 0, 12))
        assert kids[1].generators == ((12, 0, 0), (1, 2, 7), (0, 0, 12))
        assert kids[2].generators == ((12, 0, 0), (0, 12, 0), (1, 2, 7))
        assert kids[0].local_type == ProperFraction((0, 0, 0), 1)
        assert kids[1].local_type == ProperFraction((1, 0, 1), 2)
        assert kids[2].local_type == ProperFraction((1, 2, 2), 7)

    def test_zero_weight_slot_dropped(self):
        group = GroupType.from_weights(2, (1, 1, 0))
        axes = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
        point, kids = star_subdivide(Cone(axes, group.fraction), group)
        # slots 1 and 2 are replaced; slot 3 would give a flat cone
        assert [c.generators for c in kids] == [
            (point, axes[1], axes[2]),
            (axes[0], point, axes[2]),
        ]

    def test_multiplicity_matches_local_denominator(self):
        for cone in star_subdivide(self.root, self.group)[1]:
            assert cone_multiplicity(cone, self.group) == cone.local_type.denominator

    def test_non_integral_point_is_refused(self):
        cone = Cone(self.axes, ProperFraction((1, 1, 0), 5))
        match = r"cone on \(\(12, 0, 0\), \(0, 12, 0\), \(0, 0, 12\)\) of type \(1,1,0\)/5"
        with pytest.raises(ArithmeticError, match=match + " is not integral"):
            star_subdivide(cone, self.group)

    def test_point_outside_the_lattice_is_refused(self):
        cone = Cone(self.axes, ProperFraction((1, 1, 1), 2))
        with pytest.raises(ArithmeticError, match=r"\(6, 6, 6\) escapes the lattice"):
            star_subdivide(cone, self.group)

    def test_smooth_cone_refuses_subdivision(self):
        _, kids = star_subdivide(self.root, self.group)
        with pytest.raises(ValueError):
            star_subdivide(kids[0], self.group)

    def test_root_multiplicity_is_r(self):
        assert cone_multiplicity(self.root, self.group) == 12

    def test_degenerate_cone_rejected(self):
        bad = Cone(((12, 0, 0), (24, 0, 0), (0, 0, 12)), self.group.fraction)
        with pytest.raises(ValueError):
            cone_multiplicity(bad, self.group)


class TestBuildResolution:
    def test_golden_fan(self):
        g = GroupType.from_weights(12, (1, 2, 7))
        fan = build_resolution(g)
        assert fan.euler == 8
        assert len(fan.max_cones) == 8
        assert [ray.scaled for ray in fan.rays] == [
            (12, 0, 0),
            (0, 12, 0),
            (0, 0, 12),
            (1, 2, 7),
            (6, 0, 6),
            (2, 4, 2),
            (7, 2, 1),
        ]
        assert [ray.exceptional for ray in fan.rays] == [False] * 3 + [True] * 4
        # a cone holds only its generators and local type; the tree is the
        # fan's, one word per node in preorder, children in slot order
        assert [f.name for f in fields(Cone)] == ["generators", "local_type"]
        assert fan.words() == (
            (), (1,), (2,), (2, 1), (2, 3), (3,), (3, 1),
            (3, 2), (3, 2, 1), (3, 2, 2), (3, 3), (3, 3, 1), (3, 3, 3),
        )
        assert len(fan.nodes) == 13
        assert all(cone_multiplicity(c, g) == 1 for c in fan.max_cones)
        assert not fan.is_crepant()

    def test_build_memory_is_linear_in_depth(self):
        # 1/3001(1,2,2998) has 5,001 nodes down to depth 1,001; a word
        # stored on every cone would copy its parent's, 2.5 M entries in all
        g = GroupType.from_weights(3001, (1, 2, 2998))
        tracemalloc.start()
        try:
            fan = build_resolution(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fan.max_cones) == 3001
        assert max(map(len, fan.words())) == 1001
        assert peak < 5 * 2**20

    def test_shared_wall_between_subtrees(self):
        # the two cones from different branches both pick up (7,2,1)
        g = GroupType.from_weights(12, (1, 2, 7))
        fan = build_resolution(g)
        leaves = [(c, w) for c, w in zip(fan.nodes, fan.words()) if c.is_smooth_type()]
        holders = [w for c, w in leaves if (7, 2, 1) in c.generators]
        assert len(holders) == 4
        assert {w[:2] for w in holders} == {(3, 2), (3, 3)}

    def test_takes_only_the_group(self):
        # every fan is a complete resolution; there is no depth cap
        g = GroupType.from_weights(12, (1, 2, 7))
        with pytest.raises(TypeError):
            build_resolution(g, max_depth=1)

    def test_quasi_reflection_direction(self):
        # a zero weight pushes the new ray onto a coordinate axis; the axis
        # ray it replaces is shorter than r*e_i and counts as exceptional
        g = GroupType.from_weights(2, (1, 0))
        fan = build_resolution(g)
        assert fan.euler == 1
        assert [ray.scaled for ray in fan.rays] == [(0, 2), (1, 0)]
        info = {ray.scaled: ray for ray in fan.rays}
        assert info[(1, 0)].exceptional
        assert info[(1, 0)].discrepancy == Fraction(-1, 2)
        assert not fan.is_crepant()
        assert not resolution_report(g)[0].crepant_by_ages
        poly = expand(g.fraction)
        assert fan.euler == poly.size() == poly.total_height() + g.r

    def test_crepant_gorenstein_chain(self):
        g = GroupType.from_weights(9, (1, 0, 8))
        fan = build_resolution(g)
        assert fan.euler == 9
        assert fan.is_crepant()
        assert resolution_report(g)[0].crepant_by_ages

    @settings(max_examples=60, deadline=None)
    @given(semi_unimodular_fractions(max_n=3, max_r=18))
    def test_resolutions_are_smooth_and_counted(self, v):
        g = GroupType(v)
        fan = build_resolution(g)
        assert all(cone_multiplicity(c, g) == 1 for c in fan.max_cones)
        assert all(c.is_smooth_type() for c in fan.max_cones)
        poly = expand(v)
        assert fan.euler == poly.size() == poly.total_height() + g.r
        for ray in fan.rays:
            assert g.primitive(ray.scaled) == ray.scaled

    def test_interior_nodes_are_the_expansion(self):
        # the sweep reads S, h and the age test from these nodes; the nodes
        # come depth-first and the oracle's terms breadth-first
        for g in small_types():
            v = g.fraction
            expected = oracle_expand(v.numerators, v.denominator)
            assert interior_nodes(build_resolution(g)) == expected, g

    @settings(max_examples=100, deadline=None)
    @given(semi_unimodular_fractions())
    def test_interior_nodes_match_the_oracle(self, v):
        expected = oracle_expand(v.numerators, v.denominator)
        assert interior_nodes(build_resolution(GroupType(v))) == expected


class TestRayInfo:
    def test_integer_data_reads_as_before(self):
        for r in range(2, 13):
            for frac in all_semi_unimodular(3, r):
                group = GroupType(frac)
                for ray in build_resolution(group).rays:
                    assert ray.r == r
                    assert ray.age == Fraction(sum(ray.scaled), r)
                    height = sum(group.primitive(ray.scaled)) - r
                    assert ray.discrepancy == Fraction(height, r)
                    moved = replace(ray, scaled=tuple(2 * v for v in ray.scaled))
                    assert isinstance(moved, RayInfo)
                    assert moved.height == ray.height


class TestValidateFan:
    def golden(self):
        g = GroupType.from_weights(12, (1, 2, 7))
        return build_resolution(g)

    def test_accepts_golden(self):
        v = validate_fan(self.golden())
        assert v.passed
        assert v.multiplicity_ok and v.rays_ok and v.coverage_ok and v.faces_ok
        assert (v.uncovered, v.overlapping, v.boundary_gaps) == (0, 0, 0)
        assert v.faces_certified
        assert v.bad_rays == v.unmatched_rays == ()

    def test_deterministic_for_fixed_seed(self):
        fan = self.golden()
        assert validate_fan(fan, seed=7) == validate_fan(fan, seed=7)
        assert validate_fan(fan, seed=8).passed

    def test_detects_missing_cone(self):
        fan = self.golden()
        broken = replace(fan, max_cones=fan.max_cones[1:])
        v = validate_fan(broken)
        assert not v.passed
        assert v.uncovered > 0
        assert not v.coverage_ok
        assert not v.faces_certified

    def test_zero_samples_rest_on_the_certificate(self):
        fan = self.golden()
        v = validate_fan(fan, samples=0)
        assert v.faces_certified and v.coverage_ok
        # nothing sampled and nothing certified is no evidence of coverage
        v = validate_fan(replace(fan, max_cones=fan.max_cones[1:]), samples=0)
        assert not v.faces_certified
        assert not v.coverage_ok
        assert not v.passed

    def test_detects_duplicate_cone(self):
        fan = self.golden()
        broken = replace(fan, max_cones=fan.max_cones + fan.max_cones[:1])
        v = validate_fan(broken)
        assert v.overlapping > 0
        assert not v.coverage_ok
        # a cone is trivially a face of itself, so the pair check stays clean
        assert v.faces_ok
        assert not v.faces_certified

    def test_detects_non_primitive_ray(self):
        fan = self.golden()
        doubled = tuple(
            replace(ray, scaled=tuple(2 * x for x in ray.scaled)) for ray in fan.rays[:1]
        ) + fan.rays[1:]
        broken = replace(fan, rays=doubled)
        v = validate_fan(broken)
        assert not v.rays_ok
        assert v.bad_rays == ((24, 0, 0),)

    def test_detects_ray_outside_lattice(self):
        fan = self.golden()
        alien = replace(fan.rays[3], scaled=(1, 2, 6))
        broken = replace(fan, rays=(alien,) + fan.rays[1:])
        v = validate_fan(broken)
        assert not v.rays_ok

    def test_ray_the_lattice_check_refuses_is_bad(self):
        fan = self.golden()
        broken = replace(fan, rays=fan.rays + (RayInfo((0, 0, 0), True, 12, 0),))
        v = validate_fan(broken)
        assert not v.rays_ok
        assert v.bad_rays == ((0, 0, 0),)

    def test_ray_dropped_from_the_list_fails(self):
        # the cones still tile the orthant, so only the ray list can show it
        fan = self.golden()
        exceptional = [k for k, ray in enumerate(fan.rays) if ray.exceptional]
        assert len(exceptional) == 4
        for k in exceptional:
            broken = replace(fan, rays=fan.rays[:k] + fan.rays[k + 1 :])
            v = validate_fan(broken)
            assert not v.rays_ok and not v.passed
            assert v.unmatched_rays == (fan.rays[k].scaled,)
            assert v.bad_rays == ()
            assert v.coverage_ok and v.faces_ok

    def test_listed_ray_in_no_cone_fails(self):
        # (3, 6, 9) is a primitive lattice point of 1/12(1,2,7), so it
        # passes the ray check, but no maximal cone holds it
        fan = self.golden()
        stray = RayInfo((3, 6, 9), True, 12, 6)
        assert fan.group.primitive(stray.scaled) == stray.scaled
        v = validate_fan(replace(fan, rays=fan.rays + (stray,)))
        assert not v.rays_ok and not v.passed
        assert v.unmatched_rays == ((3, 6, 9),)
        assert v.bad_rays == ()

    def test_ray_listed_twice_fails(self):
        fan = self.golden()
        for k in (0, 3):
            v = validate_fan(replace(fan, rays=fan.rays + fan.rays[k : k + 1]))
            assert not v.rays_ok and not v.passed
            assert v.unmatched_rays == (fan.rays[k].scaled,)
            assert v.bad_rays == ()

    def test_detects_engulfing_cone(self):
        g = GroupType.from_weights(2, (1, 1))
        fan = build_resolution(g)
        assert validate_fan(fan).passed
        quadrant = Cone(((2, 0), (0, 2)), g.fraction)
        broken = replace(fan, max_cones=(fan.max_cones[0], quadrant))
        v = validate_fan(broken)
        assert not v.multiplicity_ok
        assert v.overlapping > 0
        assert not v.faces_ok
        assert v.bad_pairs == ((0, 1),)
        assert not v.faces_certified

    def test_detects_wall_mismatch(self):
        # both cones smooth, union misses part of the orthant, and their
        # intersection is a face of only one of them
        g = GroupType.from_weights(2, (1, 1, 0))
        fan = build_resolution(g)
        assert validate_fan(fan).passed
        keep = fan.max_cones[0]
        assert keep.generators == ((1, 1, 0), (0, 2, 0), (0, 0, 2))
        skew = Cone(((2, 0, 0), (1, 1, 0), (1, 1, 2)), ProperFraction((0, 0, 0), 1))
        assert cone_multiplicity(skew, g) == 1
        broken = replace(fan, max_cones=(keep, skew))
        v = validate_fan(broken)
        assert not v.faces_ok
        assert v.bad_pairs == ((0, 1),)
        assert not v.faces_certified

    def test_detects_folded_cones(self):
        # the witness lies in one cone and every facet belongs to at most two
        # cones, but the cones sharing the walls at (1,3) and (4,2) both lie
        # on the same side of them
        g = GroupType.from_weights(2, (1, 1))
        a, b, c, d, e = (2, 0), (3, 1), (4, 2), (1, 3), (0, 2)
        cones = tuple(
            Cone(gens, g.fraction) for gens in ((a, b), (b, d), (c, d), (c, e))
        )
        fan = replace(build_resolution(g), max_cones=cones)
        v = validate_fan(fan)
        assert not v.faces_certified
        assert v.bad_pairs == ((1, 2), (1, 3), (2, 3))

    def test_detects_second_layer(self):
        # a second copy of the quadrant on longer axis generators shares no
        # facet with the resolution; only the witness sees it
        g = GroupType.from_weights(2, (1, 1))
        fan = build_resolution(g)
        layer = Cone(((4, 0), (0, 4)), g.fraction)
        v = validate_fan(replace(fan, max_cones=fan.max_cones + (layer,)))
        assert not v.faces_certified
        assert v.bad_pairs == ((0, 2), (1, 2))

    def test_detects_third_cone_on_a_wall(self):
        # the extra cone's other facet lies on the axis and the witness
        # (1,3) misses it, so only the count of cones on the wall at (1,1)
        # sees it
        g = GroupType.from_weights(2, (1, 1))
        fan = build_resolution(g)
        assert fan.max_cones[1].generators == ((2, 0), (1, 1))
        third = Cone(((4, 0), (1, 1)), g.fraction)
        v = validate_fan(replace(fan, max_cones=fan.max_cones + (third,)))
        assert not v.faces_certified
        assert v.bad_pairs == ((1, 2),)

    def test_detects_layers_outside_the_orthant(self):
        # every facet of the two extra cones is unshared and lies in a
        # coordinate hyperplane, and the witness misses them, but they
        # overlap each other outside the orthant the samples are drawn from
        fan = self.golden()
        layers = tuple(
            Cone(((-k, 0, 0), (0, -k, 0), (0, 0, -k)), fan.group.fraction)
            for k in (12, 24)
        )
        v = validate_fan(replace(fan, max_cones=fan.max_cones + layers))
        assert not v.faces_certified
        assert not v.faces_ok
        assert v.bad_pairs == ((8, 9),)

    def test_detects_overlap_across_a_negated_generator(self):
        # cone(-e_1, (3,1)) swallows cone((1,2), e_2); the pair test must run
        # on every pair, also where a generator's coordinates sum below zero
        fan = build_resolution(GroupType.from_weights(5, (1, 2)))
        first, _, last = fan.max_cones
        negated = replace(last, generators=((-5, 0), (3, 1)))
        v = validate_fan(replace(fan, max_cones=(first, negated)))
        assert not v.faces_certified
        assert not v.faces_ok
        assert v.bad_pairs == ((0, 1),)

    @pytest.mark.parametrize(
        "r, weights, euler", [(3001, (1, 2, 2998), 3001), (101, (1, 2, 3, 95), 233)]
    )
    def test_large_fans_are_certified(self, r, weights, euler):
        fan = build_resolution(GroupType.from_weights(r, weights))
        assert fan.euler == euler
        v = validate_fan(fan)
        assert v.passed
        assert v.faces_certified

    def test_sample_count_respected(self):
        v = validate_fan(self.golden(), samples=64, seed=3)
        assert v.samples == 64
        assert v.passed

    def test_sample_request_is_bounded(self, monkeypatch):
        # a stub draw fails the test before anything is drawn, so an
        # unbounded request is never allocated
        def no_draw(n, samples, seed):
            raise RuntimeError("samples drawn")

        monkeypatch.setattr(fan_mod, "_samples", no_draw)
        fan = self.golden()
        most = fan_mod._SAMPLE_BUDGET // 3
        with pytest.raises(ValueError, match="bound of 33,554,432 sample coordinates"):
            validate_fan(fan, samples=most + 1)
        with pytest.raises(ValueError, match="bound"):
            validate_fan(fan, samples=10**9)
        with pytest.raises(RuntimeError, match="samples drawn"):
            validate_fan(fan, samples=most)

    def test_negative_sample_count_is_refused(self):
        # a negative count tests nothing yet would be reported as the count
        for samples in (-1, -5):
            with pytest.raises(ValueError, match=f"at least 0, got {samples}"):
                validate_fan(self.golden(), samples=samples)

    def test_malformed_cones_raise(self):
        # a flat cone has no multiplicity, and a determinant r^(n-1) does
        # not divide puts a generator outside the lattice: both are errors
        # in the input, not failed checks
        fan = self.golden()
        a, b, _ = fan.max_cones[0].generators
        flat = replace(fan.max_cones[0], generators=(a, b, b))
        with pytest.raises(ValueError, match="degenerate"):
            validate_fan(replace(fan, max_cones=(flat,) + fan.max_cones[1:]))
        g = GroupType.from_weights(4, (1, 1))
        alien = Cone(((3, 0), (0, 3)), g.fraction)
        with pytest.raises(ValueError, match="divisible"):
            validate_fan(replace(build_resolution(g), max_cones=(alien,)))

    def test_negative_seed_is_refused(self):
        # the stream would fold -1 as 2^64 - 1 and test that seed's points
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            validate_fan(self.golden(), seed=-1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": 1.5}, "sampling seed must be an integer, got 1.5"),
        ({"samples": 2.5}, "sample count must be an integer, got 2.5"),
        # bools are ints to Python, but True is no count and no seed
        ({"samples": True}, "sample count must be an integer, got True"),
        ({"seed": True}, "sampling seed must be an integer, got True"),
    ])
    def test_non_integer_sampling_is_refused(self, kwargs, message):
        group = self.golden().group
        with pytest.raises(ValueError, match=message):
            validate_fan(self.golden(), **kwargs)
        with pytest.raises(ValueError, match=message):
            resolution_report(group, **kwargs)

    def test_integer_likes_are_taken_as_ints(self):
        v = validate_fan(self.golden(), samples=np.int64(64), seed=np.uint8(3))
        assert v == validate_fan(self.golden(), samples=64, seed=3)
        assert type(v.samples) is int and type(v.seed) is int

    def test_thin_missing_cone_fails(self, monkeypatch):
        # no sample lands in the dropped cone, and no pair of the others
        # meets badly; only the certificate sees the gap.  The draw is the
        # default one less its points in that cone, so that no sample lands
        # there whatever the stream
        fan = build_resolution(GroupType.from_weights(9, (1, 8, 4)))
        cones = fan.max_cones
        rows = np.array(fan_mod._cofactor_rows(cones[9].generators))
        draw = fan_mod._samples

        def outside(n, samples, seed):
            pts = draw(n, samples, seed)
            return pts[:, (rows @ pts).min(axis=0) < 0]

        monkeypatch.setattr(fan_mod, "_samples", outside)
        # the other samples are still tested
        assert outside(3, 1000, fan_mod.DEFAULT_SEED).shape[1] > 0
        v = validate_fan(replace(fan, max_cones=cones[:9] + cones[10:]))
        assert not v.passed
        assert not v.coverage_ok
        assert (v.uncovered, v.bad_pairs, v.faces_certified) == (0, (), False)

    def test_coverage_needs_the_certificate(self, monkeypatch):
        # clean samples over cones that meet in common faces are no proof
        # of coverage: without the certificate, coverage fails
        monkeypatch.setattr(fan_mod, "_facets_certified", lambda fan, normals: False)
        fan = build_resolution(GroupType.from_weights(9, (1, 8, 4)))
        v = validate_fan(fan)
        assert (v.uncovered, v.overlapping, v.boundary_gaps, v.bad_pairs) == (0, 0, 0, ())
        assert v.faces_ok and not v.faces_certified
        assert not v.coverage_ok
        assert not v.passed

    def test_one_cone_twice_is_no_tiling(self):
        # both cones of 1/2(1,1) fill half the orthant, and a cone meets
        # itself in a common face
        fan = build_resolution(GroupType.from_weights(2, (1, 1)))
        first = fan.max_cones[0]
        for twice in ((first, first), (first, replace(first, generators=first.generators[::-1]))):
            v = validate_fan(replace(fan, max_cones=twice), samples=0)
            assert v.faces_ok and not v.faces_certified
            assert not v.coverage_ok


def test_no_fan_with_its_thinnest_cone_dropped_passes():
    # the cone of smallest share 1/prod_k(1 . g_k) of the orthant's
    # cross-section 1 . x = 1 is the one samples miss most often
    checked = []
    for r in range(2, 13):
        for frac in all_semi_unimodular(3, r):
            fan = build_resolution(GroupType(frac))
            cones = fan.max_cones
            if len(cones) < 2:
                continue
            shares = [Fraction(1, math.prod(map(sum, c.generators))) for c in cones]
            k = shares.index(min(shares))
            checked.append((fan, validate_fan(replace(fan, max_cones=cones[:k] + cones[k + 1 :]))))
    assert len(checked) == 1694
    assert [str(fan.group) for fan, v in checked if v.passed] == []


def face_normals(fan):
    return [fan_mod._cofactor_rows(c.generators) for c in fan.max_cones]


def scaled_normals(fan, scale):
    return [[tuple(scale * v for v in u) for u in rows] for rows in face_normals(fan)]


def coverage_counts(fan, scale=1):
    normals = scaled_normals(fan, scale)
    return fan_mod._check_coverage(normals, fan.group.n, 1000, fan_mod.DEFAULT_SEED)


def coverage_dtype(fan, scale=1):
    return fan_mod._coverage_dtype(scaled_normals(fan, scale), fan.group.n)


# one row scale per coverage dtype on the golden fan's variants below:
# B = max|u| * _SAMPLE_SPAN * n is below 2^53, in [2^53, 2^62), and past 2^62
TIER_SCALES = ((1, np.float64), (2**30, np.int64), (2**45, object))


def variants(fan):
    """The fan, with its first cone dropped, and with two cones doubled."""
    return [
        fan,
        replace(fan, max_cones=fan.max_cones[1:]),
        replace(fan, max_cones=fan.max_cones + fan.max_cones[:2]),
    ]


def golden_variants():
    return variants(TestValidateFan().golden())


class TestExactCoverage:
    """Coverage counts on each exact dtype the magnitude guard picks."""

    def test_scaled_rows_give_the_same_counts(self):
        # scaling a cone's cofactor rows keeps every sign, so the counts
        # must not change when the scale moves them to another dtype
        fans = golden_variants()
        counts = [coverage_counts(f) for f in fans]
        assert counts[0] == (0, 0, 0)
        assert counts[1][0] > 0 and counts[2][1] > 0
        for scale, dtype in TIER_SCALES:
            for f, expected in zip(fans, counts):
                assert coverage_dtype(f, scale) is dtype
                assert coverage_counts(f, scale) == expected

    def test_dtype_guard_edges(self, monkeypatch):
        # the guard bounds B = max|u| * _SAMPLE_SPAN * n; a span of 1 lets
        # B hit each edge exactly, so moving either edge by one fails here
        def dtype(biggest, n=1):
            rows = [tuple([0] * (n - 1) + [-biggest])] + [(1,) * n] * (n - 1)
            return fan_mod._coverage_dtype([rows], n)

        real = 2**53 // (fan_mod._SAMPLE_SPAN * 3)
        assert dtype(real, 3) is np.float64
        assert dtype(real + 1, 3) is np.int64
        monkeypatch.setattr(fan_mod, "_SAMPLE_SPAN", 1)
        assert dtype(2**53 - 1) is np.float64
        assert dtype(2**53) is np.int64
        assert dtype(2**52, 2) is np.int64
        assert dtype(2**62 - 1) is np.int64
        assert dtype(2**62) is object
        assert dtype(2**61, 2) is object

    def test_large_order_fan(self):
        group = GroupType.from_weights(10**7, (1, 2, 3))
        fan = build_resolution(group)
        assert fan.euler == 8
        assert coverage_dtype(fan) is object
        v = validate_fan(fan)
        assert (v.uncovered, v.overlapping, v.boundary_gaps) == (0, 0, 0)
        assert v.passed and v.faces_certified
        dropped = validate_fan(replace(fan, max_cones=fan.max_cones[1:]))
        assert dropped.uncovered > 0
        assert not dropped.coverage_ok

    @pytest.mark.parametrize("budget", [3 * 7, 3 * 64, 3 * 999, 3 * 1000 * 3, 4 * 1000 * 3])
    def test_sample_blocks_give_the_same_counts(self, budget, monkeypatch):
        # a budget below cones * n * samples splits the samples into blocks,
        # the last one short, or, once a block is all 1000 samples, the
        # cones into chunks: 3 * 1000 * 3 gives the 8, 7 and 10 cones of the
        # golden variants chunks of 3 and a short last one, and the 25 cones
        # of 1/5(1,2,3,4) chunks of 2 and a last one of 1.  The counts must
        # add up to the one-tile ones.
        four_dim = build_resolution(GroupType.from_weights(5, (1, 2, 3, 4)))
        fans = golden_variants() + variants(four_dim)
        whole = [coverage_counts(f) for f in fans]
        assert whole[0] == whole[3] == (0, 0, 0)
        assert whole[4][0] > 0 and whole[5][1] > 0
        monkeypatch.setattr(fan_mod, "_COVERAGE_BUDGET", budget)
        for scale, _ in TIER_SCALES:
            assert [coverage_counts(f, scale) for f in fans] == whole

    @pytest.mark.parametrize("r, weights", [(3001, (1, 2, 2998)), (101, (1, 2, 3, 95))])
    def test_coverage_scratch_is_one_tile(self, r, weights):
        # the kernel holds one tile of _COVERAGE_BUDGET float64s and a
        # block's per-sample counts, whatever the number of cones; one
        # product of every cone's rows with every sample would take 7.5 MB
        # of float64 on 1/101(1,2,3,95) and 72 MB on 1/3001(1,2,2998)
        fan = build_resolution(GroupType.from_weights(r, weights))
        normals = face_normals(fan)
        tracemalloc.start()
        try:
            counts = fan_mod._check_coverage(normals, fan.group.n, 1000, fan_mod.DEFAULT_SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == (0, 0, 0)
        assert len(fan.max_cones) * fan.group.n * 1000 > 8 * fan_mod._COVERAGE_BUDGET
        assert peak < 2 * 2**20

    def test_coverage_scratch_is_bounded_in_samples(self):
        # 200,000 samples are 13 blocks of 2^14; one block of them all would
        # hold a (4, 200000) float64 copy of the samples and a product of as
        # many entries, about 17 MB of scratch, where the blocks take 1.4 MB.
        # The memo holds the samples before tracing, so only scratch counts.
        n, samples, seed = 4, 200_000, fan_mod.DEFAULT_SEED
        fan = build_resolution(GroupType.from_weights(101, (1, 2, 3, 95)))
        normals = face_normals(fan)
        fan_mod._samples(n, samples, seed)
        tracemalloc.start()
        try:
            counts = fan_mod._check_coverage(normals, n, samples, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == (0, 0, 0)
        assert n * samples > 8 * fan_mod._COVERAGE_BUDGET
        assert peak < 4 * 2**20

    def test_no_cones_and_no_samples(self):
        # every sample of a fan with no cones is uncovered, and it has no
        # facets to certify; no samples give no counts
        golden = TestValidateFan().golden()
        v = validate_fan(replace(golden, max_cones=()))
        assert (v.uncovered, v.overlapping, v.boundary_gaps) == (1000, 0, 0)
        assert v.faces_ok and not v.faces_certified
        assert not v.coverage_ok and not v.passed
        n, seed = golden.group.n, fan_mod.DEFAULT_SEED
        assert fan_mod._check_coverage(face_normals(golden), n, 0, seed) == (0, 0, 0)
        assert fan_mod._check_coverage([], n, 1000, seed) == (1000, 0, 0)

    def test_memory_is_bounded_in_samples_times_cones(self):
        fan = build_resolution(GroupType.from_weights(3001, (1, 2, 2998)))
        tracemalloc.start()
        try:
            v = validate_fan(fan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.passed and len(fan.max_cones) == 3001
        # one (cones, n, samples) product alone would be 3001 * 3 * 1000
        # int64s, 72 MB; the cofactor rows and one coverage tile take 3.5 MB
        assert peak < 8 * 2**20


class TestSampleMemo:
    """Samples are drawn once per (n, samples, seed) and shared read-only."""

    def test_interleaved_keys_match_fresh_draws(self):
        # n=3 and n=4 fans under two seeds, plain and with a cone dropped,
        # in an order that both hits and evicts the two-entry memo
        memo = fan_mod._samples
        fans = []
        for r, weights in ((12, (1, 2, 7)), (5, (1, 2, 3, 4))):
            fan = build_resolution(GroupType.from_weights(r, weights))
            fans += [fan, replace(fan, max_cones=fan.max_cones[1:])]
        order = [(f, seed) for seed in (7, 8, 7) for f in fans] + [(fans[2], 8), (fans[0], 7)]
        memo.cache_clear()
        shared = [validate_fan(f, seed=seed) for f, seed in order]
        assert memo.cache_info().hits > 0 and memo.cache_info().misses > 2
        fresh = []
        for f, seed in order:
            memo.cache_clear()
            fresh.append(validate_fan(f, seed=seed))
        assert shared == fresh
        assert sum(v.uncovered for v in fresh) > 0

    def test_zero_samples_draw_nothing(self):
        # a samples=0 call tests no points, so it must not take a memo slot
        # and evict a draw that a later call with samples would reuse
        memo = fan_mod._samples
        a, b = (build_resolution(GroupType.from_weights(r, w))
                for r, w in ((12, (1, 2, 7)), (5, (1, 2, 3, 4))))
        memo.cache_clear()
        try:
            validate_fan(a)
            validate_fan(b)
            validate_fan(a, samples=0)
            assert memo.cache_info().misses == 2
            validate_fan(a)
            validate_fan(b)
            assert memo.cache_info().misses == 2
        finally:
            memo.cache_clear()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 1729, 2**32 - 1, 2**64 - 1, 2**64 + 5, 2**200])
    def test_stream_is_splitmix64(self, n, seed):
        # an independent scalar SplitMix64; warnings are errors, so uint64
        # wraparound must neither warn nor promote on any numpy version
        mask = 2**64 - 1

        def mix(z):
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
            return z ^ (z >> 31)

        limbs = [seed & mask]
        while seed >> 64 * len(limbs):
            limbs.append(seed >> 64 * len(limbs) & mask)
        state = 0
        for limb in reversed(limbs):
            state = mix(state ^ limb)
        expected = []
        for _ in range(n * 300):
            state = (state + 0x9E3779B97F4A7C15) & mask
            expected.append(mix(state) % 10**6 + 1)
        fan_mod._samples.cache_clear()
        pts = fan_mod._samples(n, 300, seed)
        assert pts.dtype == np.int64 and pts.shape == (n, 300)
        assert pts.ravel().tolist() == expected

    def test_samples_are_read_only(self):
        pts = fan_mod._samples(3, 10, 1)
        assert pts is fan_mod._samples(3, 10, 1)
        assert pts.dtype == np.int64 and pts.shape == (3, 10)
        with pytest.raises(ValueError, match="read-only"):
            pts[0, 0] = 0


@st.composite
def perturbed_fans(draw):
    """A resolution with one cone dropped, doubled, moved to the front, its
    generators permuted, or one generator g swapped for g + w, where w is
    another generator of the cone or the group generator."""
    group = GroupType(draw(semi_unimodular_fractions(max_n=4, max_r=12)))
    fan = build_resolution(group)
    cones = list(fan.max_cones)
    idx = draw(st.integers(0, len(cones) - 1))
    cone = cones[idx]
    kind = draw(st.sampled_from(["drop", "double", "front", "permute", "swap"]))
    if kind == "drop":
        del cones[idx]
    elif kind == "double":
        cones.insert(draw(st.integers(0, len(cones))), cone)
    elif kind == "front":
        cones.insert(0, cones.pop(idx))
    else:
        gens = list(cone.generators)
        if kind == "permute":
            gens = draw(st.permutations(gens))
        else:
            k = draw(st.integers(0, len(gens) - 1))
            w = draw(st.sampled_from(gens[:k] + gens[k + 1 :] + [group.weights]))
            gens[k] = tuple(a + b for a, b in zip(gens[k], w))
            assume(det_int(gens) != 0)  # the swap flattened the cone
        cones[idx] = replace(cone, generators=tuple(gens))
    return kind, replace(fan, max_cones=tuple(cones))


class TestFacetCertificate:
    def test_every_small_resolution_is_certified(self):
        for n, r_max in ((2, 40), (3, 12), (4, 5)):
            for r in range(2, r_max + 1):
                for v in all_semi_unimodular(n, r):
                    fan = build_resolution(GroupType(v))
                    normals = face_normals(fan)
                    assert fan_mod._facets_certified(fan, normals), v
                    assert fan_mod._check_faces(fan, normals) == [], v

    @settings(max_examples=150, deadline=None)
    @given(perturbed_fans())
    def test_certificate_never_accepts_a_bad_pair(self, case):
        kind, fan = case
        normals = face_normals(fan)
        certified = fan_mod._facets_certified(fan, normals)
        if certified:
            assert fan_mod._check_faces(fan, normals) == []
        if kind in ("front", "permute"):
            assert certified

    # fewer examples: the enumeration runs on every pair of every fan
    @settings(max_examples=60, deadline=None)
    @given(perturbed_fans())
    def test_fast_path_agrees_with_enumeration(self, case):
        _, fan = case
        normals = face_normals(fan)
        cones = fan.max_cones
        enumerated = []
        for i, j in combinations(range(len(cones)), 2):
            gens_i, gens_j = cones[i].generators, cones[j].generators
            shared = set(gens_i) & set(gens_j)
            args = (gens_i, normals[i], normals[j], shared, fan.group.n)
            if not fan_mod._pair_face_enumerate(*args):
                enumerated.append((i, j))
        assert fan_mod._check_faces(fan, normals) == enumerated


def random_independent_rows(rng, count, n, bound):
    """``count`` random rows of length n, resampled until they are independent."""
    while True:
        rows = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(count)]
        # a nonzero maximal minor on some choice of columns
        if any(det_int([[v[k] for k in cols] for v in rows])
               for cols in combinations(range(n), count)):
            return rows


class TestExactHelpers:
    def test_cofactor_rows_are_scaled_inverse(self):
        # a 3D cone of 1/12(1,2,7), then random cones for n = 2..5 (whose
        # minors are the 1x1 getters at n = 2 and the 4x4 closed form at
        # n = 5), with entries small and past 2^63
        rng = random.Random(25)
        cones = [((12, 0, 0), (1, 2, 7), (0, 0, 12))]
        for n in range(2, 6):
            for bound in (9, 2**70):
                cones += [tuple(random_independent_rows(rng, n, n, bound)) for _ in range(10)]
        for gens in cones:
            rows = fan_mod._cofactor_rows(gens)
            absdet = abs(det_int(gens))
            assert len(rows) == len(gens) and all(len(u) == len(gens) for u in rows)
            for i, u in enumerate(rows):
                for j, g in enumerate(gens):
                    expected = absdet if i == j else 0
                    assert sum(a * b for a, b in zip(u, g)) == expected

    def test_null_direction(self):
        d = fan_mod._null_direction([(1, 0, 0), (0, 1, 0)], 3)
        assert d is not None and d[0] == d[1] == 0 and d[2] != 0
        assert fan_mod._null_direction([(1, 1, 1), (2, 2, 2)], 3) is None
        rng = random.Random(26)
        for n in (2, 3, 4):
            for bound in (9, 2**70):
                for _ in range(10):
                    vs = random_independent_rows(rng, n - 1, n, bound)
                    d = fan_mod._null_direction(vs, n)
                    assert d is not None and len(d) == n
                    assert all(sum(a * b for a, b in zip(v, d)) == 0 for v in vs)
                    # a row repeated, scaled, makes the rows dependent
                    if n > 2:
                        dependent = vs[:-1] + [tuple(3 * a for a in vs[0])]
                        assert fan_mod._null_direction(dependent, n) is None
        assert fan_mod._null_direction([(0, 0)], 2) is None
        assert fan_mod._null_direction([(3, -5)], 2) == (-5, -3)
        assert fan_mod._null_direction([(1, 2, 3, 4), (2, 4, 6, 8), (0, 1, 0, 1)], 4) is None


class TestResolutionReport:
    def test_golden_report(self):
        g = GroupType.from_weights(12, (1, 2, 7))
        report, fan = resolution_report(g, samples=200)
        assert report.ok
        assert report.euler == 8
        assert report.size == 8
        assert report.height == -4
        assert not report.crepant
        assert report.crepant_by_ages == report.crepant_by_fan == False
        assert report.identity_size_height
        assert report.identity_euler_size
        assert report.identity_euler_height
        assert report.validation is not None and report.validation.passed
        discrepancies = {ray.scaled: ray.discrepancy for ray in fan.rays if ray.exceptional}
        assert discrepancies[(6, 0, 6)] == 0

    def test_skip_validation(self):
        g = GroupType.from_weights(5, (1, 2))
        report, _ = resolution_report(g, validate=False)
        assert report.validation is None
        assert report.ok

    def test_both_modes_agree(self):
        # S, h and the age test come from expand when validating and from
        # the fan's interior nodes otherwise
        for g in small_types():
            fast, _ = resolution_report(g, validate=False)
            full, _ = resolution_report(g, samples=1, validate=True)
            for field in ("size", "height", "crepant_by_ages", "crepant_by_fan"):
                assert getattr(fast, field) == getattr(full, field), (g, field)
