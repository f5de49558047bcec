"""Unit tests for cross-checks: continued fractions, hulls, families, sweeps."""

import io
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import FrozenInstanceError, asdict, fields, replace
from fractions import Fraction

import pytest

import fujiki_oka.cli as cli_mod
import fujiki_oka.fan as fan_mod
import fujiki_oka.verify as verify_mod
from conftest import all_semi_unimodular
from fujiki_oka import (
    GroupType,
    ResolutionReport,
    build_resolution,
    check_identities,
    compare_2d,
    expand,
    family_type,
    hj_evaluate,
    hj_expansion,
    measure_type,
    resolution_report,
    summarize,
    sweep,
    write_sweep_csv,
)


class TestContinuedFractions:
    def test_goldens(self):
        assert hj_expansion(5, 2) == [3, 2]
        assert hj_expansion(3, 1) == [3]
        assert hj_expansion(7, 1) == [7]
        assert hj_expansion(12, 7) == [2, 4, 2]
        assert hj_expansion(2, 1) == [2]

    def test_chain_of_twos(self):
        # r/(r-1) = [2,2,...,2], the A-series
        for r in (2, 3, 5, 9):
            assert hj_expansion(r, r - 1) == [2] * (r - 1)

    def test_entries_at_least_two(self):
        for r in range(2, 80):
            for a in range(1, r):
                if math.gcd(r, a) != 1:
                    continue
                assert all(c >= 2 for c in hj_expansion(r, a))

    def test_round_trip(self):
        for r in range(2, 120):
            for a in range(1, r):
                if math.gcd(r, a) != 1:
                    continue
                assert hj_evaluate(hj_expansion(r, a)) == Fraction(r, a)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hj_expansion(5, 0)
        with pytest.raises(ValueError):
            hj_expansion(5, 5)
        with pytest.raises(ValueError):
            hj_expansion(6, 2)
        with pytest.raises(ValueError):
            hj_evaluate([])
        with pytest.raises(ZeroDivisionError):
            hj_evaluate([2, 0])


def surface(r, weights):
    return compare_2d(build_resolution(GroupType.from_weights(r, weights)))


class TestCompare2D:
    def test_golden_5_2(self):
        cmp2 = surface(5, (1, 2))
        assert cmp2.ok
        assert cmp2.expansion == (3, 2)
        assert cmp2.exceptional_rays == ((1, 2), (3, 1))

    def test_golden_12_7(self):
        cmp2 = surface(12, (1, 7))
        assert cmp2.ok
        assert cmp2.expansion == (2, 4, 2)
        assert len(cmp2.exceptional_rays) == 3

    def test_exhaustive_small(self):
        for r in range(2, 61):
            for a in range(1, r):
                if math.gcd(r, a) != 1:
                    continue
                result = surface(r, (1, a))
                assert result.ok, f"disagreement at r={r}, a={a}: {result}"

    def test_unit_last_compares_in_unit_first_coordinates(self):
        for r in range(2, 31):
            for a in range(1, r):
                if math.gcd(r, a) != 1:
                    continue
                first, last = surface(r, (1, a)), surface(r, (a, 1))
                assert last.ok, f"disagreement at r={r}, weights ({a},1): {last}"
                assert (last.r, last.a, last.expansion) == (r, a, first.expansion)
                assert sorted(last.exceptional_rays) == sorted(first.exceptional_rays)

    def test_detects_ray_off_the_hull(self):
        fan = build_resolution(GroupType.from_weights(5, (1, 2)))
        # (2, 4) spans the same ray as (1, 2) but lies above the lower hull
        moved = tuple(
            replace(ray, scaled=(2, 4)) if ray.scaled == (1, 2) else ray for ray in fan.rays
        )
        cmp2 = compare_2d(replace(fan, rays=moved))
        assert cmp2.count_matches and cmp2.euler_matches and cmp2.round_trip
        assert not cmp2.rays_on_hull
        assert not cmp2.ok

    @pytest.mark.parametrize(
        "r, weights, ray, stand_in",
        [
            (8, (1, 3), (1, 3), (2, 2)),
            (8, (3, 1), (3, 1), (2, 2)),
            (12, (1, 5), (1, 5), (2, 4)),
        ],
        ids=["8-1,3", "8-3,1", "12-1,5"],
    )
    def test_detects_ray_off_the_lattice(self, r, weights, ray, stand_in):
        # the stand-in is an integer point on a hull edge, but no lattice
        # point of the group, so it is no ray of a resolution
        fan = build_resolution(GroupType.from_weights(r, weights))
        moved = tuple(
            replace(info, scaled=stand_in) if info.scaled == ray else info for info in fan.rays
        )
        cmp2 = compare_2d(replace(fan, rays=moved))
        assert cmp2.count_matches and cmp2.euler_matches and cmp2.round_trip
        assert not cmp2.rays_on_hull
        assert not cmp2.ok

    @pytest.mark.parametrize(
        "r, weights", [(5, (1, 2)), (12, (1, 7)), (12, (7, 1))], ids=["5-1,2", "12-1,7", "12-7,1"]
    )
    def test_detects_repeated_ray(self, r, weights):
        # one hull ray stands in for another: the count still matches and
        # every ray is still on the hull, but one hull vertex has no ray
        fan = build_resolution(GroupType.from_weights(r, weights))
        exceptional = [ray for ray in fan.rays if ray.exceptional]
        kept, dropped = exceptional[0].scaled, exceptional[-1].scaled
        doubled = tuple(
            replace(ray, scaled=kept) if ray.scaled == dropped else ray for ray in fan.rays
        )
        cmp2 = compare_2d(replace(fan, rays=doubled))
        assert cmp2.count_matches and cmp2.euler_matches and cmp2.round_trip
        assert not cmp2.rays_on_hull
        assert not cmp2.ok

    def test_hull_candidates_are_streamed(self):
        # the r + 1 candidate points are never held at once: a list of them
        # alone is several MB at this order
        fan = build_resolution(GroupType.from_weights(50003, (1, 2)))
        tracemalloc.start()
        try:
            cmp2 = compare_2d(fan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cmp2.ok and cmp2.expansion == (25002, 2)
        assert peak < 2**20

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            surface(8, (1, 2))
        with pytest.raises(ValueError):
            surface(8, (2, 1))

    def test_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            surface(12, (1, 2, 7))


VERIFY_12_7 = """\
type 1/12({weights})
euler 4  size 4  height -8
[ok] size = height + r
[ok] euler = size
[ok] euler = height + r
[ok] crepancy criteria agree (not crepant)
[ok] multiplicities all 1
[ok] rays primitive in the lattice
[ok] coverage clean on 1000 samples (uncovered 0, overlapping 0, gaps 0)
[ok] cone pairs meet in common faces
[ok] matches continued fraction [2, 4, 2] and hull
PASS
"""


@pytest.mark.parametrize("weights", ["1,7", "7,1"])
def test_verify_2d_resolves_once(monkeypatch, capsys, weights):
    calls = []
    real = fan_mod.build_resolution

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (fan_mod, verify_mod, cli_mod):
        if hasattr(mod, "build_resolution"):
            monkeypatch.setattr(mod, "build_resolution", counted)
    assert cli_mod.main(["verify", "-r", "12", "-w", weights]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == VERIFY_12_7.format(weights=weights)


class TestFamilies:
    def test_members(self):
        assert str(family_type("plus", 1)) == "1/7(1,3,1)"
        assert str(family_type("plus", 2)) == "1/13(1,3,7)"
        assert str(family_type("minus", 1)) == "1/5(1,3,1)"
        assert str(family_type("minus", 2)) == "1/11(1,3,4)"

    def test_euler_equals_order(self):
        for name in ("plus", "minus"):
            for k in range(1, 7):
                group = family_type(name, k)
                rec = measure_type(group)
                assert rec.euler == group.r
                assert rec.ok

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            family_type("plus", 0)
        with pytest.raises(ValueError):
            family_type("zero", 1)


class TestMeasure:
    def test_identities_golden(self):
        g = GroupType.from_weights(12, (1, 2, 7))
        fan = build_resolution(g)
        poly = expand(g.fraction)
        assert check_identities(fan, poly) == (True, True, True)

    def test_record_makes_no_expansion(self, monkeypatch):
        # a sweep record reads S and h from the fan it already built
        def no_expand(root):
            raise AssertionError(f"expand({root}) called")

        monkeypatch.setattr(fan_mod, "expand", no_expand)
        rec = measure_type(GroupType.from_weights(12, (1, 2, 7)))
        assert (rec.size, rec.height, rec.crepant_by_ages) == (8, -4, False)

    def test_record_golden(self):
        rec = measure_type(GroupType.from_weights(12, (1, 2, 7)))
        assert rec.r == 12
        assert rec.weights == (1, 2, 7)
        assert rec.size == 8
        assert rec.height == -4
        assert rec.euler == 8
        assert rec.smooth_all
        assert not rec.crepant
        assert not rec.gorenstein
        assert rec.ok
        assert rec.ms >= 0

    def test_reports_are_pure(self):
        # resolution_report reads no clock, so equal arguments give equal
        # reports; measure_type differs from it only in its own ms
        for r, weights in ((12, (1, 2, 7)), (101, (1, 2, 3, 95))):
            group = GroupType.from_weights(r, weights)
            for validate in (False, True):
                first = resolution_report(group, validate=validate)[0]
                assert resolution_report(group, validate=validate)[0] == first
            report = resolution_report(group, validate=False)[0]
            assert report.ms == 0.0
            assert _strip_ms(measure_type(group)) == _strip_ms(report)

    def test_gorenstein_crepant_record(self):
        rec = measure_type(GroupType.from_weights(12, (1, 4, 7)))
        assert rec.gorenstein
        assert rec.crepant
        assert rec.euler == 12


def _strip_ms(rec):
    data = asdict(rec)
    data.pop("ms")
    return data


class TestSweep:
    def test_deterministic_apart_from_timing(self):
        first = sweep(dim=2, r_max=9)
        second = sweep(dim=2, r_max=9)
        assert [_strip_ms(a) for a in first] == [_strip_ms(b) for b in second]

    def test_order_is_sorted(self):
        records = sweep(dim=2, r_max=7)
        keys = [(rec.r, rec.weights) for rec in records]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_import_loads_no_process_pool(self):
        # a sweep runs in the calling process; a fresh interpreter shows
        # what importing the package loads
        src = os.path.dirname(os.path.dirname(verify_mod.__file__))
        code = "import sys, fujiki_oka; print('multiprocessing' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_counts(self):
        # weight tuples containing a 1: r^2 - (r-1)^2 of them per order
        records = sweep(dim=2, r_max=10)
        assert len(records) == sum(2 * r - 1 for r in range(2, 11))

    def test_gorenstein_filter(self):
        records = sweep(dim=3, r_max=8, gorenstein_only=True)
        assert records
        assert all(sum(rec.weights) % rec.r == 0 for rec in records)
        everything = sweep(dim=3, r_max=8)
        assert len(records) == sum(1 for rec in everything if rec.gorenstein)

    def test_all_records_ok_in_small_range(self):
        records = sweep(dim=3, r_max=10)
        assert all(rec.ok for rec in records)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            sweep(dim=3, r_max=101)
        with pytest.raises(ValueError):
            sweep(dim=2, r_max=1)
        with pytest.raises(ValueError):
            sweep(dim=1, r_max=5)

    @pytest.mark.parametrize("dim", [20, 100_000, 100_000_000])
    def test_size_cap_decides_huge_dimensions_at_once(self, dim):
        # r_max >= 2, so 2**20 already exceeds the cap; the power is never
        # computed, and the message names it without writing its digits
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"3\*\*{dim} weight tuples.*allow_large"):
            sweep(dim=dim, r_max=3)
        assert time.perf_counter() - start < 1.0

    def test_summarize(self):
        records = sweep(dim=2, r_max=6)
        stats = summarize(records)
        assert stats["types"] == len(records)
        assert stats["all_ok"]
        assert stats["failures"] == []
        assert stats["crepant"] == sum(1 for rec in records if rec.crepant)


def _orbit_members(dim: int, r_max: int):
    """Every type with the given dimension and r <= r_max, each with the
    first type of its weight-permutation orbit in sweep order."""
    for r in range(2, r_max + 1):
        first = {}
        for frac in all_semi_unimodular(dim, r):
            weights = frac.numerators
            yield r, weights, first.setdefault(tuple(sorted(weights)), weights)


def _permuted_leaves(fan, weights):
    """The leaves of ``fan`` with coordinates moved to the slots that hold
    the same weights in ``weights``, as a set of generator sets."""
    slots = defaultdict(list)
    for j, w in enumerate(fan.group.weights):
        slots[w].append(j)
    perm = [slots[w].pop() for w in weights]
    return {
        frozenset(tuple(g[j] for j in perm) for g in cone.generators)
        for cone in fan.max_cones
    }


_ORBIT_RANGES = [(2, 30), (3, 12), (4, 6)]


class TestOrbits:
    """A sweep resolves the first type of each weight-permutation orbit and
    gives the others a copy of its record; these tests resolve every
    permuted type in full and compare."""

    @pytest.mark.parametrize("dim, r_max", _ORBIT_RANGES)
    def test_records_equal_full_resolves(self, dim, r_max):
        records = sweep(dim=dim, r_max=r_max)
        assert len(records) == sum(1 for _ in _orbit_members(dim, r_max))
        for rec in records:
            group = GroupType.from_weights(rec.r, rec.weights)
            full = fan_mod.resolution_report(group, validate=False)[0]
            assert _strip_ms(rec) == _strip_ms(full)

    @pytest.mark.parametrize("dim, r_max", _ORBIT_RANGES)
    def test_copies_carry_every_field_of_the_first_record(self, dim, r_max):
        records = sweep(dim=dim, r_max=r_max)
        members = list(_orbit_members(dim, r_max))
        assert len(records) == len(members)
        firsts = {}
        for rec, (r, weights, first) in zip(records, members):
            assert (rec.r, rec.weights) == (r, weights)
            if weights == first:
                firsts[r, first] = rec
            expected = replace(firsts[r, first], weights=weights, ms=rec.ms)
            for field in fields(ResolutionReport):
                assert getattr(rec, field.name) == getattr(expected, field.name), field.name

    def test_copies_are_frozen_reports(self):
        records = sweep(dim=3, r_max=7)
        assert any(rec.weights != tuple(sorted(rec.weights)) for rec in records)
        for rec in records:
            assert type(rec) is ResolutionReport
            with pytest.raises(FrozenInstanceError):
                rec.weights = (1, 1, 1)

    @pytest.mark.parametrize("dim, r_max", _ORBIT_RANGES)
    def test_sweep_types_equal_checked_ones(self, dim, r_max, monkeypatch):
        groups = []
        real = verify_mod.measure_type
        monkeypatch.setattr(verify_mod, "measure_type", lambda g: groups.append(g) or real(g))
        sweep(dim=dim, r_max=r_max)
        assert [(g.r, g.weights) for g in groups] == [
            (r, weights) for r, weights, _ in _orbit_members(dim, r_max)
        ]
        for g in groups:
            assert g == GroupType.from_weights(g.r, g.weights)
            assert type(g.r) is int
            assert all(type(w) is int for w in g.weights)

    @pytest.mark.parametrize("dim, r_max", _ORBIT_RANGES)
    def test_leaves_are_the_first_members_permuted(self, dim, r_max):
        fans = {}
        for r, weights, first in _orbit_members(dim, r_max):
            if (r, first) not in fans:
                fans[r, first] = build_resolution(GroupType.from_weights(r, first))
            own = build_resolution(GroupType.from_weights(r, weights))
            leaves = {frozenset(cone.generators) for cone in own.max_cones}
            assert leaves == _permuted_leaves(fans[r, first], weights)

    def test_only_first_members_pay_for_leaves(self, monkeypatch):
        calls = []
        real = fan_mod.det_int

        def counted(rows):
            calls.append(1)
            return real(rows)

        for mod in (fan_mod, verify_mod):
            if hasattr(mod, "det_int"):
                monkeypatch.setattr(mod, "det_int", counted)
        records = sweep(dim=3, r_min=9, r_max=9)
        firsts = [rec for rec in records if rec.weights == tuple(sorted(rec.weights))]
        assert len(records) > len(firsts)
        # one determinant per leaf of each orbit's first fan, none for a copy
        assert len(calls) == sum(rec.euler for rec in firsts)

    def test_standalone_measure_resolves_in_full(self, monkeypatch):
        builds = []
        real = fan_mod.build_resolution
        monkeypatch.setattr(fan_mod, "build_resolution", lambda g: builds.append(g) or real(g))
        assert len(sweep(dim=2, r_min=5, r_max=5)) == 9
        swept = len(builds)
        assert swept == 5  # one per orbit: (0, 1), (1, 1), (1, 2), (1, 3), (1, 4)
        # orbits never span two orders: r=5 again, and r=6 with (1, 5)
        assert len(sweep(dim=2, r_min=5, r_max=6)) == 9 + 11
        assert len(builds) == swept + 5 + 6
        swept = len(builds)
        measure_type(GroupType.from_weights(5, (1, 2)))
        measure_type(GroupType.from_weights(5, (2, 1)))
        assert len(builds) == swept + 2

    def test_failed_sweep_leaves_no_orbits_behind(self, monkeypatch):
        builds = []
        real = fan_mod.build_resolution

        def fails_on_the_fourth(group):
            builds.append(group)
            if len(builds) == 4:
                raise RuntimeError("build failed")
            return real(group)

        # builds (0, 1), (1, 1), (1, 2), then fails on (1, 3)
        monkeypatch.setattr(fan_mod, "build_resolution", fails_on_the_fourth)
        with pytest.raises(RuntimeError, match="build failed"):
            sweep(dim=2, r_min=7, r_max=7)
        assert [g.weights for g in builds] == [(0, 1), (1, 1), (1, 2), (1, 3)]
        assert verify_mod._orbit_memo is None
        # the sweep had the orbit of (1, 2); standalone, (2, 1) resolves anew
        monkeypatch.setattr(fan_mod, "build_resolution", lambda g: builds.append(g) or real(g))
        rec = measure_type(GroupType.from_weights(7, (2, 1)))
        assert [g.weights for g in builds[4:]] == [(2, 1)]
        assert rec.smooth_all


class TestCsv:
    def test_header_and_first_row(self):
        records = sweep(dim=2, r_max=3)
        buf = io.StringIO()
        write_sweep_csv(records, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "r,weights,S,h,chi,smooth_all,crepant,"
            "id_S_eq_h_plus_r,id_chi_eq_S,id_chi_eq_h_plus_r,ms"
        )
        assert len(lines) == len(records) + 1
        first = lines[1].split(",")
        assert first[:10] == [
            "2",
            "0 1",
            "1",
            "-1",
            "1",
            "true",
            "false",
            "true",
            "true",
            "true",
        ]
        float(first[10])
