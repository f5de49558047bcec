"""Toric lattice geometry for cyclic quotient singularities.

The quotient ``C^n / G`` for ``G`` cyclic of order r with weights
``(a_1, ..., a_n)`` is the toric variety of the positive orthant cone in
the lattice ``N_G = Z^n + Z * (a/r)``.  To keep every computation in plain
integers, lattice points are stored scaled by r: the unit vector ``e_i``
becomes ``r * e_i`` and the group generator becomes ``(a_1, ..., a_n)``
itself.

The resolution algorithm repeatedly star-subdivides a cone at the point
named by its local type (a proper fraction recording the quotient geometry
the cone still carries) and hands each child the matching remainder image.
Denominators strictly decrease, so the process terminates with an
everywhere-smooth fan.

No floating point enters any geometric decision.  Validation settles
coverage and faces on the cofactor rows of the maximal cones: samples by
one numpy matmul (int64 while a magnitude guard says the products fit,
Python ints past it), faces by a linear-time pseudo-manifold certificate,
or, when it fails, by the pairwise check in integers, which names the
offending pairs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .polynomial import RemainderPolynomial, expand
from .propfrac import ProperFraction

#: Fixed default seed for reproducible validation sampling.
DEFAULT_SEED = 1729

#: Lattice point in coordinates scaled by the group order r.
ScaledPoint = tuple[int, ...]

# sample coordinates are drawn from [1, _SAMPLE_SPAN]
_SAMPLE_SPAN = 10**6


def det_int(rows: list[list[int]]) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division: Bareiss guarantees divisibility by prev
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _cofactor_rows(gens: tuple[ScaledPoint, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """Determinant and inward facet normals of a simplicial cone.

    Row i of the result pairs with generator i: ``u_i . g_j = |det| * delta_ij``,
    so the sign pattern of ``u_i . p`` over i gives the barycentric signs of p.
    Row i is the signed null direction of the other generators.
    """
    d = det_int([list(g) for g in gens])
    if d == 0:
        raise ValueError("generators are linearly dependent")
    n = len(gens)
    rows = []
    for i in range(n):
        sign = 1 if (d > 0) == (i % 2 == 0) else -1
        direction = _null_direction(gens[:i] + gens[i + 1 :], n)
        rows.append(tuple([sign * c for c in direction]))
    return abs(d), rows


def _divisors_desc(g: int) -> list[int]:
    small, large = [], []
    k = 1
    while k * k <= g:
        if g % k == 0:
            small.append(k)
            if k != g // k:
                large.append(g // k)
        k += 1
    return large[::-1] + small[::-1]


@dataclass(frozen=True)
class GroupType:
    """A cyclic quotient singularity type 1/r(a_1, ..., a_n).

    The defining fraction must be semi-unimodular (some weight equals 1, in
    any position); anything else is rejected outright.  Weights may repeat
    and may be zero; they are never reordered or normalised.
    """

    fraction: ProperFraction

    def __post_init__(self) -> None:
        if not self.fraction.is_semi_unimodular():
            raise ValueError(f"group type must be semi-unimodular, got {self.fraction}")

    @classmethod
    def from_weights(cls, r: int, weights: tuple[int, ...] | list[int]) -> "GroupType":
        return cls(ProperFraction(tuple(weights), r))

    @property
    def r(self) -> int:
        return self.fraction.denominator

    @property
    def n(self) -> int:
        return self.fraction.n

    @property
    def weights(self) -> tuple[int, ...]:
        return self.fraction.numerators

    def contains(self, point: ScaledPoint) -> bool:
        """Whether a scaled integer vector lies in ``Z^n + Z * (a/r)``.

        Membership means ``point = r*u + m*a`` for integers u and some m;
        the unit weight pins m, so one congruence test per coordinate does it.
        """
        if len(point) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(point)}")
        r = self.r
        a = self.weights
        m = point[a.index(1)] % r
        return all((p - m * w) % r == 0 for p, w in zip(point, a))

    def primitive(self, point: ScaledPoint) -> ScaledPoint:
        """Smallest lattice point on the ray through ``point``."""
        pt = tuple(point)
        if all(v == 0 for v in pt):
            raise ValueError("zero vector spans no ray")
        if not self.contains(pt):
            raise ValueError(f"{pt} is not a lattice point for {self.fraction}")
        g = math.gcd(*pt)
        for k in _divisors_desc(g):
            cand = tuple(v // k for v in pt)
            if self.contains(cand):
                return cand
        return pt

    def __str__(self) -> str:
        return f"1/{self.r}({','.join(str(w) for w in self.weights)})"


def discrepancy(point: ScaledPoint, group: GroupType) -> Fraction:
    """Discrepancy of the divisor on the ray through ``point``.

    Equals the height of the primitive generator divided by r, i.e. its age
    minus one.  Zero exactly for the crepant rays.
    """
    prim = group.primitive(point)
    return Fraction(sum(prim) - group.r, group.r)


@dataclass(frozen=True)
class Cone:
    """A simplicial cone tagged with the quotient data it still carries.

    ``generators`` are scaled lattice points in a fixed slot order; the
    local type's k-th numerator refers to slot k.  ``word`` is the path of
    subdivision indices that produced the cone (1-based, empty for the
    initial orthant).
    """

    generators: tuple[ScaledPoint, ...]
    local_type: ProperFraction
    word: tuple[int, ...]

    def is_smooth_type(self) -> bool:
        return self.local_type.denominator == 1


@dataclass(frozen=True)
class RayInfo:
    scaled: ScaledPoint
    exceptional: bool
    age: Fraction
    discrepancy: Fraction


@dataclass(frozen=True)
class Fan:
    """A (possibly partial) subdivision of the positive orthant.

    ``max_cones`` are the leaves in depth-first order; ``nodes`` is every
    cone ever produced, in the same order, so the subdivision tree can be
    reconstructed from words.  ``rays`` deduplicates the leaf generators in
    creation order (axes first, then subdivision points as they appeared).
    """

    group: GroupType
    max_cones: tuple[Cone, ...]
    rays: tuple[RayInfo, ...]
    nodes: tuple[Cone, ...]

    @property
    def euler(self) -> int:
        """Euler characteristic: one per maximal cone (torus fixed points)."""
        return len(self.max_cones)

    def is_crepant(self) -> bool:
        """True when every exceptional ray has discrepancy zero."""
        return all(ray.discrepancy == 0 for ray in self.rays if ray.exceptional)


def cone_multiplicity(cone: Cone, group: GroupType) -> int:
    """Index of the sublattice spanned by the generators, inside N_G.

    Computed as |det| of the scaled generator matrix divided by r^(n-1);
    the division must be exact, anything else means the generators were not
    lattice points.  Multiplicity 1 is the smoothness criterion.
    """
    d = det_int([list(g) for g in cone.generators])
    if d == 0:
        raise ValueError("degenerate cone has no multiplicity")
    q, rem = divmod(abs(d), group.r ** (group.n - 1))
    if rem:
        raise ValueError(
            f"determinant {d} not divisible by r^(n-1); generators outside the lattice"
        )
    return q


def star_subdivide(cone: Cone, group: GroupType) -> tuple[ScaledPoint, list[Cone]]:
    """Star-subdivide one cone at the point named by its local type.

    The point is ``sum_k b_k g_k / s`` for local type ``(b_1,...,b_n)/s``.
    Child k swaps generator k for that point, appends k to the word and
    carries the k-th remainder image as its local type; slots with
    ``b_k = 0`` would give a lower-dimensional cone and are omitted.
    Returns the point and the children.
    """
    b = cone.local_type
    s = b.denominator
    if s < 2:
        raise ValueError(f"cone {cone.word} is already smooth, nothing to subdivide")
    if not b.is_semi_unimodular():
        raise ValueError(f"local type {b} has no unit entry")
    n = b.n
    total = [0] * n
    for k, bk in enumerate(b.numerators):
        if bk:
            g = cone.generators[k]
            for j in range(n):
                total[j] += bk * g[j]
    w = []
    for v in total:
        q, rem = divmod(v, s)
        if rem:
            raise ArithmeticError(f"subdivision point of {cone.word} is not integral")
        w.append(q)
    point = tuple(w)
    if not group.contains(point):
        raise ArithmeticError(f"subdivision point {point} escapes the lattice")
    children = []
    for k, bk in enumerate(b.numerators):
        if bk == 0:
            continue
        gens = tuple(point if j == k else g for j, g in enumerate(cone.generators))
        image = b.remainder(k + 1)
        children.append(Cone(gens, image, cone.word + (k + 1,)))
    return point, children


def _is_full_axis(point: ScaledPoint, r: int) -> bool:
    nonzero = [v for v in point if v != 0]
    return len(nonzero) == 1 and nonzero[0] == r and all(v >= 0 for v in point)


def _ray_info(point: ScaledPoint, group: GroupType) -> RayInfo:
    return RayInfo(
        scaled=point,
        exceptional=not _is_full_axis(point, group.r),
        age=Fraction(sum(point), group.r),
        discrepancy=discrepancy(point, group),
    )


def build_resolution(group: GroupType, max_depth: int | None = None) -> Fan:
    """Iterate star subdivisions until every cone is smooth.

    ``max_depth`` caps the word length, leaving a partially subdivided fan
    whose leaves may still be singular; the default resolves completely.
    Iterative worklist, depth-first with children in index order, so the
    output ordering is reproducible.  A negative ``max_depth`` raises
    ``ValueError``.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be at least 0, got {max_depth}")
    r, n = group.r, group.n
    axes = tuple(tuple(r if j == i else 0 for j in range(n)) for i in range(n))
    creation: list[ScaledPoint] = list(axes)
    nodes: list[Cone] = []
    leaves: list[Cone] = []
    stack: list[Cone] = [Cone(axes, group.fraction, ())]
    while stack:
        cone = stack.pop()
        nodes.append(cone)
        stop = max_depth is not None and len(cone.word) >= max_depth
        if cone.is_smooth_type() or stop:
            leaves.append(cone)
            continue
        point, children = star_subdivide(cone, group)
        creation.append(point)
        stack.extend(reversed(children))
    present = {g for c in leaves for g in c.generators}
    seen: set[ScaledPoint] = set()
    ray_points = []
    for g in creation:
        if g in present and g not in seen:
            seen.add(g)
            ray_points.append(g)
    rays = tuple(_ray_info(g, group) for g in ray_points)
    return Fan(group, tuple(leaves), rays, tuple(nodes))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class FanValidation:
    """Outcome of the independent geometric checks on a fan.

    Failures are recorded, never raised, for maximal cones that are
    full-dimensional on lattice generators (``validate_fan`` raises
    ``ValueError`` on any other); ``passed`` folds them together.
    ``faces_certified`` says which path settled the face check: True when
    the linear-time facet certificate held, False when the pairwise check
    ran.
    """

    multiplicity_ok: bool
    bad_multiplicities: tuple[int, ...]
    rays_ok: bool
    bad_rays: tuple[ScaledPoint, ...]
    coverage_ok: bool
    uncovered: int
    overlapping: int
    boundary_gaps: int
    faces_ok: bool
    bad_pairs: tuple[tuple[int, int], ...]
    faces_certified: bool
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return self.multiplicity_ok and self.rays_ok and self.coverage_ok and self.faces_ok


def validate_fan(fan: Fan, samples: int = 1000, seed: int = DEFAULT_SEED) -> FanValidation:
    """Check a fan the hard way, independent of how it was built.

    1. every maximal cone has multiplicity 1 (exact determinants);
    2. every ray is a primitive lattice point;
    3. ``samples`` pseudo-random rational points strictly inside the
       positive orthant each land in exactly one cone, or on a face shared
       by the cones containing it;
    4. any two maximal cones intersect in a common face.  A linear-time
       facet certificate proves this for the whole fan at once; only when
       it fails does the pairwise check run, to name the bad pairs.

    The sample stream is drawn from a seeded generator, so results are
    reproducible; the same seed always tests the same points.  A maximal
    cone on linearly dependent generators (two equal ones, say), or whose
    determinant r^(n-1) does not divide (a generator outside the lattice),
    raises ``ValueError``.
    """
    group = fan.group

    mults = [cone_multiplicity(c, group) for c in fan.max_cones]
    bad_mults = tuple(sorted({m for m in mults if m != 1}))

    bad_rays = []
    for ray in fan.rays:
        try:
            ok = group.contains(ray.scaled) and group.primitive(ray.scaled) == ray.scaled
        except ValueError:
            ok = False
        if not ok:
            bad_rays.append(ray.scaled)

    normals = [_cofactor_rows(c.generators)[1] for c in fan.max_cones]

    uncovered, overlapping, gaps = _check_coverage(fan, normals, samples, seed)
    certified = _facets_certified(fan, normals)
    bad_pairs = [] if certified else _check_faces(fan, normals)

    return FanValidation(
        multiplicity_ok=not bad_mults,
        bad_multiplicities=bad_mults,
        rays_ok=not bad_rays,
        bad_rays=tuple(bad_rays),
        coverage_ok=uncovered == 0 and overlapping == 0 and gaps == 0,
        uncovered=uncovered,
        overlapping=overlapping,
        boundary_gaps=gaps,
        faces_ok=not bad_pairs,
        bad_pairs=tuple(bad_pairs),
        faces_certified=certified,
        samples=samples,
        seed=seed,
    )


def _check_coverage(
    fan: Fan, normals: list, samples: int, seed: int
) -> tuple[int, int, int]:
    if not fan.max_cones or samples <= 0:
        return (samples if samples > 0 else 0, 0, 0)
    n = fan.group.n
    rng = np.random.default_rng(seed)
    pts = rng.integers(1, _SAMPLE_SPAN + 1, size=(n, samples), dtype=np.int64)

    # int64 is exact while the products fit; past that, Python ints
    max_normal = max((abs(v) for rows in normals for u in rows for v in u), default=0)
    dtype = np.int64 if max_normal * _SAMPLE_SPAN * n < 2**62 else object
    mat = np.array(normals, dtype=dtype)  # (cones, n, n)
    lam = mat @ pts.astype(dtype)
    covered = (lam >= 0).all(axis=1)
    strict = (lam > 0).all(axis=1)
    cov = covered.sum(axis=0)
    stc = strict.sum(axis=0)
    uncovered = int((cov == 0).sum())
    overlapping = int(((cov >= 2) & (stc >= 1)).sum())
    gaps = int(((cov == 1) & (stc == 0)).sum())
    return uncovered, overlapping, gaps


def _facets_certified(fan: Fan, normals: list) -> bool:
    """Exact proof that the maximal cones triangulate the positive orthant.

    The pseudo-manifold characterization of triangulations (De Loera,
    Rambau, Santos, *Triangulations*, ch. 4), in cone form.  It holds when

    * every generator is nonnegative;
    * every facet, keyed by its set of generators, belongs to one cone or
      two;
    * a facet of one cone lies in a coordinate hyperplane;
    * the two cones of a shared facet lie on opposite sides of it: the
      cofactor row ``u`` opposite generator k of the first cone has
      ``u . g_k = |det| > 0``, so the second cone's opposite generator
      must give ``u . x < 0``;
    * the sum of cone 0's generators lies in no other closed cone.

    Nonnegative generators keep every cone in the orthant and the witness
    in its interior.  The number of cones whose interior holds a point is
    then the same on the whole open orthant (crossing a shared facet leaves
    one cone and enters the other; unshared facets lie on the orthant's
    boundary), the witness makes it 1, and any two cones meet in a common
    face.  False proves nothing; the pairwise check then decides.
    O(cones * n) hash lookups and exact dot products, reusing the cofactor
    rows.
    """
    cones = fan.max_cones
    if not cones:
        return False
    n = fan.group.n
    if any(v < 0 for cone in cones for g in cone.generators for v in g):
        return False

    owners: dict[frozenset, list[tuple[int, int]]] = {}
    for i, cone in enumerate(cones):
        gens = cone.generators
        for k in range(n):
            owners.setdefault(frozenset(gens[:k] + gens[k + 1 :]), []).append((i, k))
    for facet, held in owners.items():
        if len(held) == 1:
            if not any(all(g[c] == 0 for g in facet) for c in range(n)):
                return False
        elif len(held) == 2:
            (i, k), (j, m) = held
            if _dot(normals[i][k], cones[j].generators[m]) >= 0:
                return False
        else:
            return False

    witness = [sum(col) for col in zip(*cones[0].generators)]
    return not any(
        all(_dot(u, witness) >= 0 for u in rows) for rows in normals[1:]
    )


def _check_faces(fan: Fan, normals: list) -> list[tuple[int, int]]:
    cones = fan.max_cones
    n = fan.group.n
    gen_sets = [set(c.generators) for c in cones]
    bad = []
    for i, j in combinations(range(len(cones)), 2):
        shared = gen_sets[i] & gen_sets[j]
        gens_i, gens_j = cones[i].generators, cones[j].generators
        if not _pair_face_ok(gens_i, gens_j, normals[i], normals[j], shared, n):
            bad.append((i, j))
    return bad


def _pair_face_ok(gens_c, gens_d, normals_c, normals_d, shared, n) -> bool:
    # fast path: a facet normal of one cone that weakly separates the other
    # and pinches the intersection down to the shared generators.  The rows
    # must be cofactor rows, u_k . g_m = |det| * delta_km on their own cone:
    # row k is zero there exactly off g_k and positive on g_k, so only its
    # dots with the other cone need computing, and only one orientation can
    # separate.
    for own, other, rows in ((gens_c, gens_d, normals_c), (gens_d, gens_c, normals_d)):
        for k, u in enumerate(rows):
            dots = [_dot(u, g) for g in other]
            if any(v > 0 for v in dots):
                continue
            if set(own[:k] + own[k + 1 :]) == shared:
                return True
            if {g for g, v in zip(other, dots) if v == 0} == shared:
                return True
    return _pair_face_enumerate(gens_c, gens_d, normals_c, normals_d, shared, n)


def _pair_face_enumerate(gens_c, gens_d, normals_c, normals_d, shared, n) -> bool:
    # complete check: every extreme ray of the intersection cone must lie in
    # the cone on the shared generators.  Extreme rays of a pointed cone cut
    # from 2n halfspaces have n-1 independent active constraints, so
    # enumerating (n-1)-subsets of the rows finds them all.  A ray in C has
    # barycentric coordinates u_k . x >= 0 on C's generators, so it lies in
    # the shared face exactly when those of the unshared generators vanish.
    rows = list(normals_c) + list(normals_d)
    unshared = [u for u, g in zip(normals_c, gens_c) if g not in shared]
    for subset in combinations(range(len(rows)), n - 1):
        direction = _null_direction([rows[s] for s in subset], n)
        if direction is None:
            continue
        for cand in (direction, tuple(-v for v in direction)):
            if all(_dot(row, cand) >= 0 for row in rows):
                if any(_dot(u, cand) for u in unshared):
                    return False
    return True


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _null_direction(vs, n):
    """Integer spanning vector of the common kernel of n-1 row vectors (n >= 2)."""
    comps = []
    for k in range(n):
        minor = [[v[b] for b in range(n) if b != k] for v in vs]
        d = det_int(minor)
        comps.append(-d if k % 2 else d)
    return tuple(comps) if any(comps) else None


# ---------------------------------------------------------------------------
# summary report


@dataclass(frozen=True)
class ResolutionReport:
    """Everything the resolution of one group type establishes.

    Sweeps keep one record per type, so it holds only numbers and flags:
    no group, fan, polynomial or per-ray data.  ``validation`` is ``None``
    when the sampled validation was skipped; ``ms`` is wall clock.
    """

    r: int
    weights: tuple[int, ...]
    size: int
    height: int
    euler: int
    smooth_all: bool
    crepant_by_ages: bool
    crepant_by_fan: bool
    validation: FanValidation | None
    ms: float

    @property
    def identity_size_height(self) -> bool:
        return self.size == self.height + self.r

    @property
    def identity_euler_size(self) -> bool:
        return self.euler == self.size

    @property
    def identity_euler_height(self) -> bool:
        return self.euler == self.height + self.r

    @property
    def crepancy_agrees(self) -> bool:
        return self.crepant_by_ages == self.crepant_by_fan

    @property
    def crepant(self) -> bool:
        return self.crepant_by_ages and self.crepant_by_fan

    @property
    def gorenstein(self) -> bool:
        return sum(self.weights) % self.r == 0

    @property
    def ok(self) -> bool:
        return (
            self.smooth_all
            and self.identity_size_height
            and self.identity_euler_size
            and self.identity_euler_height
            and self.crepancy_agrees
            and (self.validation is None or self.validation.passed)
        )


def resolution_report(
    group: GroupType,
    samples: int = 1000,
    seed: int = DEFAULT_SEED,
    validate: bool = True,
) -> tuple[ResolutionReport, Fan, RemainderPolynomial]:
    """Resolve, expand, cross-check, and bundle the results.

    The Euler characteristic comes from counting cones of the geometric
    construction; the size and total height come from the purely arithmetic
    expansion.  Leaf multiplicities come from ``validate_fan`` when
    validating and are computed directly otherwise, never twice.
    """
    t0 = time.perf_counter()
    fan = build_resolution(group)
    poly = expand(group.fraction)
    if validate:
        validation = validate_fan(fan, samples=samples, seed=seed)
        smooth = validation.multiplicity_ok
    else:
        validation = None
        smooth = all(cone_multiplicity(c, group) == 1 for c in fan.max_cones)
    report = ResolutionReport(
        r=group.r,
        weights=group.weights,
        size=poly.size(),
        height=poly.total_height(),
        euler=fan.euler,
        smooth_all=smooth,
        crepant_by_ages=poly.all_ages_one(),
        crepant_by_fan=fan.is_crepant(),
        validation=validation,
        ms=(time.perf_counter() - t0) * 1000.0,
    )
    return report, fan, poly
