"""Independent cross-checks tying the arithmetic to the geometry.

Three layers:

* per-type identity checks between a remainder polynomial and the fan it
  predicts (count of unit entries vs. Euler characteristic vs. height);
* the two-dimensional sanity anchor: continued fractions and convex hulls
  give the minimal resolution by completely different means, and both must
  agree with the subdivision construction;
* bulk sweeps over all semi-unimodular types up to a bound, with CSV
  output for eyeballing and regression pinning.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import IO, Iterable, Sequence

from .fan import (
    Fan,
    GroupType,
    ResolutionReport,
    ScaledPoint,
    resolution_report,
)
from .polynomial import RemainderPolynomial
from .propfrac import _trusted

# sweeping every type grows like r_max**dim; refuse silly requests unless
# the caller explicitly opts in
_SWEEP_CAP = 1_000_000

# While a sweep runs: (r, sorted weights) -> the report of the first type of
# that weight-permutation orbit it resolved.  None outside a sweep, where
# measure_type looks up in a fresh dict and so resolves in full.
_orbit_memo: dict[tuple[int, ...], ResolutionReport] | None = None


def check_identities(fan: Fan, poly: RemainderPolynomial) -> tuple[bool, bool, bool]:
    """The three numeric identities a resolved type must satisfy.

    Returns (size == height + r, euler == size, euler == height + r).
    """
    r = fan.group.r
    size = poly.size()
    height = poly.total_height()
    return (size == height + r, fan.euler == size, fan.euler == height + r)


# ---------------------------------------------------------------------------
# dimension two: continued fractions and hulls


def hj_expansion(r: int, a: int) -> list[int]:
    """Negative-regular continued fraction of r/a.

    Expands r/a = c1 - 1/(c2 - 1/(...)) with every entry at least 2;
    requires 0 < a < r and gcd(r, a) = 1.  The entries are the negated
    self-intersection numbers of the exceptional curves of the minimal
    resolution of the surface singularity 1/r(1, a), in chain order.
    """
    if not 0 < a < r:
        raise ValueError(f"need 0 < a < r, got a={a}, r={r}")
    if math.gcd(r, a) != 1:
        raise ValueError(f"need gcd(r, a) = 1, got r={r}, a={a}")
    out = []
    x, y = r, a
    while True:
        c = -(-x // y)
        out.append(c)
        rem = c * y - x
        if rem == 0:
            return out
        x, y = y, rem


def hj_evaluate(entries: Sequence[int]) -> Fraction:
    """Fold entries back into the rational they expand, for round-trips."""
    if not entries:
        raise ValueError("empty expansion")
    value = Fraction(entries[-1])
    for c in reversed(entries[:-1]):
        value = c - 1 / value
    return value


def _lower_hull(points: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    # monotone chain, exact arithmetic; input sorted by x with distinct x
    hull: list[tuple[int, int]] = []
    for p in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) <= (y1 - y0) * (p[0] - x0):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _on_polyline(point: tuple[int, int], hull: list[tuple[int, int]]) -> bool:
    x, y = point
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if x0 <= x <= x1 and (x1 - x0) * (y - y0) == (y1 - y0) * (x - x0):
            return True
    return False


@dataclass(frozen=True)
class Comparison2D:
    """Agreement report between the subdivision fan for 1/r(1, a) and the
    classical minimal resolution of the same surface singularity."""

    r: int
    a: int
    expansion: tuple[int, ...]
    exceptional_rays: tuple[ScaledPoint, ...]
    count_matches: bool
    euler_matches: bool
    rays_on_hull: bool
    round_trip: bool

    @property
    def ok(self) -> bool:
        return (
            self.count_matches
            and self.euler_matches
            and self.rays_on_hull
            and self.round_trip
        )


def compare_2d(fan: Fan) -> Comparison2D:
    """Compare the fan of 1/r(1, a) against continued fractions and hulls.

    Checks that the number of exceptional rays equals the expansion length,
    that the Euler characteristic exceeds it by one, that the exceptional
    rays are distinct lattice points (``group.contains``, in the fan's own
    coordinates) on the lower convex hull of the nonzero lattice points of
    the quadrant, and that the expansion folds back to r/a.  With the count
    matching, they are then exactly the lattice points on the hull's compact
    edges.  The fan may come from either weight order, 1/r(1, a) or
    1/r(a, 1); rays meet the hull in unit-first coordinates.  The r + 1
    hull candidates are streamed, so the time is O(r) and only the hull's
    vertices are kept.  Raises ``ValueError`` unless the fan is
    two-dimensional with 0 < a < r and gcd(r, a) = 1.
    """
    group = fan.group
    if group.n != 2:
        raise ValueError(f"need a two-dimensional type, got {group}")
    r = group.r
    first, second = group.weights
    unit_first = first == 1
    a = second if unit_first else first
    expansion = hj_expansion(r, a)
    exceptional = [ray.scaled for ray in fan.rays if ray.exceptional]
    rays = tuple(p if unit_first else p[::-1] for p in exceptional)

    candidates = chain([(0, r)], ((x, (a * x) % r) for x in range(1, r)), [(r, 0)])
    hull = _lower_hull(candidates)

    return Comparison2D(
        r=r,
        a=a,
        expansion=tuple(expansion),
        exceptional_rays=rays,
        count_matches=len(rays) == len(expansion),
        euler_matches=fan.euler == len(expansion) + 1,
        rays_on_hull=(
            len(set(rays)) == len(rays)
            and all(map(group.contains, exceptional))
            and all(_on_polyline(p, hull) for p in rays)
        ),
        round_trip=hj_evaluate(expansion) == Fraction(r, a),
    )


# ---------------------------------------------------------------------------
# families with Euler characteristic equal to the group order


def family_type(name: str, k: int) -> GroupType:
    """The k-th member of the two classical three-dimensional families.

    ``plus`` is 1/(6k+1)(1, 3, 6k-5) and ``minus`` is 1/(6k-1)(1, 3, 3k-2);
    every member resolves with Euler characteristic equal to its order.
    """
    if k < 1:
        raise ValueError(f"family index must be positive, got {k}")
    if name == "plus":
        r = 6 * k + 1
        weights = (1, 3, 6 * k - 5)
    elif name == "minus":
        r = 6 * k - 1
        weights = (1, 3, 3 * k - 2)
    else:
        raise ValueError(f"unknown family {name!r}; expected 'plus' or 'minus'")
    return GroupType.from_weights(r, weights)


# ---------------------------------------------------------------------------
# sweeps


def measure_type(group: GroupType) -> ResolutionReport:
    """Resolve one type without sampled validation: one sweep record.

    Inside a sweep, only the first type of each weight-permutation orbit of
    an order is resolved in full.  Permuting the weights conjugates the
    group by a permutation matrix, which permutes the coordinates of the
    whole construction: S, h, the Euler characteristic and both crepancy
    flags are unchanged, and every leaf matrix only has its columns
    permuted, so |det| and with it ``smooth_all`` are unchanged too.  Every
    other member therefore copies the first member's record under its own
    weights.  Outside a sweep the memo is a fresh dict, so every call
    resolves in full.  A hit is one dict lookup plus one record
    construction, a positional call over every field rather than
    ``dataclasses.replace``, which walks ``fields()`` and passes keywords.
    ``ms`` is the wall clock of this call: the whole resolution for a first
    member, only the lookup and the construction for the others.
    """
    t0 = time.perf_counter()
    memo = {} if _orbit_memo is None else _orbit_memo
    key = (group.r, *sorted(group.weights))
    first = memo.get(key)
    if first is None:
        memo[key] = first = resolution_report(group, validate=False)[0]
    return ResolutionReport(
        first.r,
        group.weights,
        first.size,
        first.height,
        first.euler,
        first.smooth_all,
        first.crepant_by_ages,
        first.crepant_by_fan,
        first.validation,
        (time.perf_counter() - t0) * 1000.0,
    )


def sweep(
    dim: int,
    r_max: int,
    r_min: int = 2,
    gorenstein_only: bool = False,
    allow_large: bool = False,
) -> list[ResolutionReport]:
    """Resolve every semi-unimodular type with the given dimension and order
    range, in deterministic (r, weights) order, in this process.

    Within each order, the first type of every weight-permutation orbit is
    resolved in full and the others copy its record under their own weights
    (see ``measure_type``); the memo of first records lives for this call
    only.  Every record is returned, so a caller that shows only some of
    them still judges the sweep on all.  Requests whose raw product-space
    size ``r_max ** dim`` exceeds a million are refused unless
    ``allow_large`` is set.

    Each type is built from a trusted fraction, skipping the checks of
    ``ProperFraction``: the weights come from ``product(range(r))`` with
    ``r >= 2`` and ``dim >= 2``, so they are at least two plain ints in
    ``[0, r - 1]`` over a positive int denominator already.
    ``GroupType`` still checks that the type is semi-unimodular.
    """
    global _orbit_memo
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if r_min < 2 or r_max < r_min:
        raise ValueError(f"need 2 <= r_min <= r_max, got [{r_min}, {r_max}]")
    # r_max >= 2, so from dimension 20 on the product space exceeds the cap
    # and r_max**dim, which can be too large to compute, is never formed
    if not allow_large and (dim >= 20 or r_max**dim > _SWEEP_CAP):
        raise ValueError(
            f"sweep spans r_max**dim = {r_max}**{dim} weight tuples, "
            f"more than {_SWEEP_CAP:,}; "
            "pass allow_large=True (--allow-large) if that is intentional"
        )
    _orbit_memo = {}
    try:
        records = [
            measure_type(GroupType(_trusted(w, r)))
            for r in range(r_min, r_max + 1)
            for w in product(range(r), repeat=dim)
            if 1 in w and not (gorenstein_only and sum(w) % r)
        ]
    finally:
        _orbit_memo = None
    return records


_CSV_COLUMNS = (
    "r",
    "weights",
    "S",
    "h",
    "chi",
    "smooth_all",
    "crepant",
    "id_S_eq_h_plus_r",
    "id_chi_eq_S",
    "id_chi_eq_h_plus_r",
    "ms",
)


def write_sweep_csv(records: Iterable[ResolutionReport], fh: IO[str]) -> None:
    """Write sweep records as CSV to the text stream ``fh``.

    Rows end in CRLF, so a file should be opened with ``newline=""``.
    All columns except ``ms`` are deterministic for a given sweep; ``ms``
    is wall-clock and varies run to run.
    """
    writer = csv.writer(fh)
    writer.writerow(_CSV_COLUMNS)
    for rec in records:
        writer.writerow(
            [
                rec.r,
                " ".join(str(w) for w in rec.weights),
                rec.size,
                rec.height,
                rec.euler,
                _flag(rec.smooth_all),
                _flag(rec.crepant),
                _flag(rec.identity_size_height),
                _flag(rec.identity_euler_size),
                _flag(rec.identity_euler_height),
                f"{rec.ms:.3f}",
            ]
        )


def _flag(value: bool) -> str:
    return "true" if value else "false"


def summarize(records: Sequence[ResolutionReport]) -> dict:
    """Aggregate counts for a sweep, plus the first few failing types."""
    failures = [rec for rec in records if not rec.ok]
    return {
        "types": len(records),
        "crepant": sum(1 for rec in records if rec.crepant),
        "gorenstein": sum(1 for rec in records if rec.gorenstein),
        "all_ok": not failures,
        "failures": [str(GroupType.from_weights(rec.r, rec.weights)) for rec in failures[:10]],
    }
