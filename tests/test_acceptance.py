"""Acceptance criteria.

One test per criterion, each printing a single bracketed pass/fail line
(visible with ``pytest -s``).  Time limits are asserted with
``time.perf_counter`` on a warmed-up call, and the criteria that assert
one carry the ``wallclock`` marker; exact checks carry no tolerance at all,
everything is integer or Fraction arithmetic.
"""

import math
import time
from itertools import product

import pytest

from conftest import oracle_expand
from fujiki_oka import (
    DEFAULT_SEED,
    GroupType,
    ProperFraction,
    build_resolution,
    compare_2d,
    expand,
    family_type,
    fan_to_svg,
    measure_type,
    sweep,
    validate_fan,
)

GOLDEN = ProperFraction((1, 2, 7), 12)

GOLDEN_TERMS = {
    (): ((1, 2, 7), 12),
    (2,): ((1, 0, 1), 2),
    (3,): ((1, 2, 2), 7),
    (3, 2): ((1, 1, 0), 2),
    (3, 3): ((1, 0, 1), 2),
}


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num:02d}: {desc}" + (f" ({detail})" if detail else "")


def _best_of(fn, runs: int = 3) -> float:
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def sweep_records():
    t0 = time.perf_counter()
    records = (
        sweep(dim=2, r_max=40)
        + sweep(dim=3, r_max=40)
        + sweep(dim=4, r_max=15)
    )
    elapsed = time.perf_counter() - t0
    return records, elapsed


@pytest.mark.wallclock
def test_criterion_01_golden_expansion():
    expand(GOLDEN)  # warm-up
    poly = expand(GOLDEN)
    got = {w: (c.numerators, c.denominator) for w, c in zip(poly.words(), poly.coefficients)}
    exact = got == GOLDEN_TERMS and len(poly) == 5
    elapsed = _best_of(lambda: expand(GOLDEN))
    _report(
        1,
        f"five-term expansion of (1,2,7)/12 exact, {elapsed * 1e6:.0f} us < 1 ms",
        exact and elapsed < 1e-3,
        f"terms={got}",
    )


@pytest.mark.wallclock
def test_criterion_02_golden_resolution():
    group = GroupType(GOLDEN)
    fan = build_resolution(group)
    poly = expand(GOLDEN)
    exceptional = {ray.scaled for ray in fan.rays if ray.exceptional}
    smooth = all(c.local_type.denominator == 1 for c in fan.max_cones)
    height = poly.total_height()
    exact = (
        fan.euler == 8
        and smooth
        and exceptional == {(1, 2, 7), (2, 4, 2), (6, 0, 6), (7, 2, 1)}
        and height == -4
        and fan.euler == height + group.r
    )
    elapsed = _best_of(lambda: build_resolution(group))
    _report(
        2,
        f"1/12(1,2,7) resolves to 8 smooth cones over the expected rays, "
        f"{elapsed * 1e3:.2f} ms < 10 ms",
        exact and elapsed < 1e-2,
    )


def test_criterion_03_published_statistics():
    v = ProperFraction((1, 2, 5), 12)
    poly = expand(v)
    totals = poly.size() == 12 and poly.total_height() == 0 and poly.size() == poly.total_height() + 12
    both_match_oracle = all(
        {
            w: (c.numerators, c.denominator)
            for w, c in zip(expand(u).words(), expand(u).coefficients)
        }
        == oracle_expand(u.numerators, u.denominator)
        for u in (v, GOLDEN)
    )
    _report(
        3,
        "size 12 and height 0 for (1,2,5)/12; both worked examples match the "
        "brute-force oracle",
        totals and both_match_oracle,
    )


@pytest.mark.wallclock
def test_criterion_04_size_height_smoothness_sweep(sweep_records):
    records, elapsed = sweep_records
    bad = [
        rec
        for rec in records
        if not (rec.identity_size_height and rec.identity_euler_size and rec.smooth_all)
    ]
    _report(
        4,
        f"S = h + r, cone count = S, and multiplicity 1 across {len(records)} "
        f"types (n=2,3 r<=40; n=4 r<=15) in {elapsed:.0f} s < 300 s",
        not bad and elapsed < 300,
        f"first failures: {[f'1/{b.r}{b.weights}' for b in bad[:5]]}",
    )


def test_criterion_05_euler_triangle(sweep_records):
    records, _ = sweep_records
    bad = [
        rec
        for rec in records
        if not (rec.identity_size_height and rec.identity_euler_size and rec.identity_euler_height)
    ]
    _report(
        5,
        f"chi = S = h + r holds for all {len(records)} swept types",
        not bad,
        f"first failures: {[f'1/{b.r}{b.weights}' for b in bad[:5]]}",
    )


def test_criterion_06_crepancy(sweep_records):
    records, _ = sweep_records
    disagree = [rec for rec in records if rec.crepant_by_ages != rec.crepant_by_fan]
    gorenstein_3d = [
        rec for rec in records if len(rec.weights) == 3 and rec.gorenstein and rec.r <= 30
    ]
    not_crepant = [rec for rec in gorenstein_3d if not (rec.crepant and rec.euler == rec.r)]
    _report(
        6,
        f"age and discrepancy crepancy criteria agree on all {len(records)} types; "
        f"all {len(gorenstein_3d)} Gorenstein 3D types with r<=30 are crepant with chi = r",
        not disagree and len(gorenstein_3d) > 0 and not not_crepant,
        f"disagreements: {[f'1/{b.r}{b.weights}' for b in disagree[:5]]}, "
        f"non-crepant Gorenstein: {[f'1/{b.r}{b.weights}' for b in not_crepant[:5]]}",
    )


@pytest.mark.wallclock
def test_criterion_07_families():
    t0 = time.perf_counter()
    bad = []
    for name in ("plus", "minus"):
        for k in range(1, 16):
            group = family_type(name, k)
            rec = measure_type(group)
            if not (rec.euler == group.r and rec.ok):
                bad.append((name, k))
    elapsed = time.perf_counter() - t0
    _report(
        7,
        f"both families give chi = r for k = 1..15 in {elapsed:.2f} s < 1 s",
        not bad and elapsed < 1.0,
        f"failures: {bad}",
    )


@pytest.mark.wallclock
def test_criterion_08_surface_oracle():
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for r in range(2, 201):
        for a in range(1, r):
            if math.gcd(r, a) != 1:
                continue
            checked += 1
            fan = build_resolution(GroupType.from_weights(r, (1, a)))
            if not compare_2d(fan).ok:
                bad.append((r, a))
    elapsed = time.perf_counter() - t0
    _report(
        8,
        f"ray count, chi, and hull membership match the continued fraction for "
        f"all {checked} coprime types with r <= 200 in {elapsed:.0f} s < 30 s",
        not bad and elapsed < 30,
        f"failures: {bad[:5]}",
    )


def test_criterion_09_fan_validation():
    bad = []
    checked = 0
    for r in range(2, 21):
        for weights in product(range(r), repeat=3):
            if 1 not in weights:
                continue
            fan = build_resolution(GroupType.from_weights(r, weights))
            outcome = validate_fan(fan, samples=1000, seed=DEFAULT_SEED)
            checked += 1
            if not outcome.passed:
                bad.append((r, weights, outcome))
    fan = build_resolution(GroupType(GOLDEN))
    deterministic = validate_fan(fan, samples=1000, seed=DEFAULT_SEED) == validate_fan(
        fan, samples=1000, seed=DEFAULT_SEED
    )
    _report(
        9,
        f"coverage, uniqueness, and face compatibility pass on 1000 seeded "
        f"samples for all {checked} 3D types with r <= 20, deterministically",
        not bad and deterministic,
        f"failures: {bad[:3]}",
    )


def test_criterion_10_figure_reproduction():
    svg = fan_to_svg(build_resolution(GroupType(GOLDEN)))
    circles = svg.count("<circle")
    polygons = svg.count("<polygon")
    _report(
        10,
        f"cross-section drawing has {circles} ray vertices and {polygons} triangles "
        "(expected 7 and 8)",
        circles == 7 and polygons == 8,
    )
