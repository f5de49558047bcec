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
everywhere-smooth fan, and the local types of the non-smooth nodes are the
remainder polynomial's coefficients (``Fan.interior_types``).

Every geometric decision is exact.  Validation settles coverage and faces
on the cofactor rows of the maximal cones: samples by numpy matmuls in one
loop over bounded tiles of samples x cones, faces by a linear-time
pseudo-manifold certificate, or, when it fails, by the pairwise check in
integers, which names the offending pairs.  Coverage needs the certificate as well as
clean samples, which alone can miss a thin cone.  The samples come from
the package's own SplitMix64 stream, so a seed tests the same points on
every numpy version.  Floating point enters only the sample products, and
only while every product and partial sum is an integer below 2^53, which
doubles hold exactly; past that they run on int64 below 2^62, then on
Python ints.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from operator import itemgetter, mul
from typing import Sequence

import numpy as np

from .polynomial import expand
from .propfrac import ProperFraction, _as_int

#: Fixed default seed for reproducible validation sampling.
DEFAULT_SEED = 1729

#: Lattice point in coordinates scaled by the group order r.
ScaledPoint = tuple[int, ...]

# sample coordinates are drawn from [1, _SAMPLE_SPAN]
_SAMPLE_SPAN = 10**6
# most entries of one coverage tile, the product of a chunk of cones' rows
# with a block of samples: 512 KB of float64, and at n <= 4 at most 2^18
# multiply-adds, a gemm numpy's bundled OpenBLAS 0.3.31 was measured to run
# on the calling thread alone (README, "Validation and reproducibility")
_COVERAGE_BUDGET = 2**16
# most entries of the (n, samples) int64 sample array: 256 MB
_SAMPLE_BUDGET = 2**25


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant of a square matrix.

    Closed forms for 1x1 through 4x4, which are every leaf determinant and
    cofactor minor of a type with at most four weights and every minor of
    one with five; Bareiss fraction-free elimination from 5x5 on; the empty
    matrix has the empty product, 1.  Raises ``ValueError`` unless every
    row is as long as the matrix is tall.
    """
    n = len(rows)
    if 1 <= n <= 4:
        try:
            if n == 3:
                (a, b, c), (d, e, f), (g, h, i) = rows
                return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
            if n == 2:
                (a, b), (c, d) = rows
                return a * d - b * c
            if n == 4:
                # Laplace expansion along the first two rows: each signed 2x2
                # minor of rows 0-1 times the minor of rows 2-3 on the other
                # two columns
                (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
                return (
                    (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
                    - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                    + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
                    + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                    - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
                    + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
                )
            ((a,),) = rows
            return a
        except ValueError:
            raise ValueError("matrix must be square") from None
    m = [list(r) for r in rows]
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
    return sign * m[n - 1][n - 1] if m else 1


@lru_cache(maxsize=None)
def _drop_one(n: int) -> tuple[itemgetter, ...]:
    """For each slot k < n, a getter of the other n - 1 slots of a tuple, as a tuple (n >= 2)."""
    if n == 2:
        # itemgetter with one index returns the bare item; a slice keeps the tuple
        return itemgetter(slice(1, 2)), itemgetter(slice(0, 1))
    return tuple(itemgetter(*(j for j in range(n) if j != k)) for k in range(n))


def _cofactor_rows(gens: tuple[ScaledPoint, ...]) -> list[tuple[int, ...]]:
    """Inward facet normals of a simplicial cone on independent generators.

    Row i of the result pairs with generator i: ``u_i . g_j = |det| * delta_ij``,
    so the sign pattern of ``u_i . p`` over i gives the barycentric signs of p.
    Entry k of row i is the signed minor without generator i and coordinate k.
    The minors are gathered once per cone by the getters of ``_drop_one``;
    the cone still costs ``1 + n^2`` calls of ``det_int``.
    """
    sign = 1 if det_int(gens) > 0 else -1
    drop = _drop_one(len(gens))
    # every generator with coordinate k cut out
    cut = [tuple(map(get, gens)) for get in drop]
    signs = (sign, -sign)
    return [
        tuple([signs[(i + k) & 1] * det_int(get(rows)) for k, rows in enumerate(cut)])
        for i, get in enumerate(drop)
    ]


def _divisors_desc(g: int) -> list[int]:
    small, large = [], []
    k = 1
    while k * k <= g:
        if g % k == 0:
            small.append(k)
            if k != g // k:
                large.append(g // k)
        k += 1
    return large + small[::-1]


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
        frac = self.fraction
        a = frac.numerators
        if len(point) != len(a):
            raise ValueError(f"expected {len(a)} coordinates, got {len(point)}")
        r = frac.denominator
        m = point[a.index(1)] % r
        for p, w in zip(point, a):
            if (p - m * w) % r:
                return False
        return True

    def primitive(self, point: ScaledPoint) -> ScaledPoint:
        """Smallest lattice point on the ray through ``point``."""
        pt = tuple(point)
        if not any(pt):
            raise ValueError("zero vector spans no ray")
        if not self.contains(pt):
            raise ValueError(f"{pt} is not a lattice point for {self.fraction}")
        # the divisors descend to 1, which pt itself passes
        for k in _divisors_desc(math.gcd(*pt)):
            cand = tuple([v // k for v in pt])
            if self.contains(cand):
                return cand

    def __str__(self) -> str:
        return f"1/{self.r}({','.join(str(w) for w in self.weights)})"


@dataclass(frozen=True)
class Cone:
    """A simplicial cone tagged with the quotient data it still carries.

    ``generators`` are scaled lattice points in a fixed slot order; the
    local type's k-th numerator refers to slot k.  Where the cone sits in
    the subdivision tree is the fan's to say (``Fan.words``).
    """

    generators: tuple[ScaledPoint, ...]
    local_type: ProperFraction

    def is_smooth_type(self) -> bool:
        return self.local_type.denominator == 1


@dataclass(frozen=True)
class RayInfo:
    """One ray of a fan, with its exact invariants kept as integers.

    ``scaled`` is the generator as the fan holds it, ``r`` the group order
    and ``height`` the sum of the primitive generator's coordinates minus r,
    so the ray is crepant exactly when ``height`` is 0.  ``age`` and
    ``discrepancy`` build their ``Fraction`` when read.
    """

    scaled: ScaledPoint
    exceptional: bool
    r: int
    height: int

    @property
    def age(self) -> Fraction:
        """Sum of the scaled coordinates divided by r."""
        return Fraction(sum(self.scaled), self.r)

    @property
    def discrepancy(self) -> Fraction:
        """Height of the primitive generator divided by r."""
        return Fraction(self.height, self.r)


@dataclass(frozen=True)
class Fan:
    """The resolution of a type: a smooth subdivision of the positive orthant.

    ``max_cones`` are the leaves in depth-first order; ``nodes`` is every
    cone ever produced, in preorder with children in index order, which
    records the subdivision tree once: a non-smooth node's children are its
    nonzero slots (``words``).  ``rays`` deduplicates the leaf generators in
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

    @property
    def interior_types(self) -> tuple[ProperFraction, ...]:
        """Local types of the non-smooth nodes, depth-first: the
        coefficients of the type's remainder polynomial."""
        return tuple(c.local_type for c in self.nodes if not c.is_smooth_type())

    def words(self) -> tuple[tuple[int, ...], ...]:
        """Each node's word, in ``nodes`` order: the 1-based slots of the
        subdivisions that produced it, empty for the orthant.

        One walk over the preorder, as ``build_resolution`` made it.
        """
        words = []
        stack = [()]
        for cone in self.nodes:
            word = stack.pop()
            words.append(word)
            if not cone.is_smooth_type():
                nums = cone.local_type.numerators
                stack.extend(word + (k,) for k in range(len(nums), 0, -1) if nums[k - 1])
        return tuple(words)

    def is_crepant(self) -> bool:
        """True when every exceptional ray has discrepancy zero."""
        return all(ray.height == 0 for ray in self.rays if ray.exceptional)


def cone_multiplicity(cone: Cone, group: GroupType) -> int:
    """Index of the sublattice spanned by the generators, inside N_G.

    Computed as |det| of the scaled generator matrix divided by r^(n-1);
    the division must be exact, anything else means the generators were not
    lattice points.  Multiplicity 1 is the smoothness criterion.
    """
    d = det_int(cone.generators)
    if d == 0:
        raise ValueError("degenerate cone has no multiplicity")
    frac = group.fraction
    q, rem = divmod(abs(d), frac.denominator ** (len(frac.numerators) - 1))
    if rem:
        raise ValueError(
            f"determinant {d} not divisible by r^(n-1); generators outside the lattice"
        )
    return q


def star_subdivide(cone: Cone, group: GroupType) -> tuple[ScaledPoint, list[Cone]]:
    """Star-subdivide one cone at the point named by its local type.

    The point is ``sum_k b_k g_k / s`` for local type ``(b_1,...,b_n)/s``.
    Child k swaps generator k for that point and carries the k-th remainder
    image as its local type; slots with ``b_k = 0`` would give a
    lower-dimensional cone and are omitted.
    Returns the point and the children.
    """
    b = cone.local_type
    s = b.denominator
    nums = b.numerators
    if 1 not in nums:
        raise ValueError(f"local type {b} has no unit entry")
    gens = cone.generators
    w = []
    for col in zip(*gens):
        q, rem = divmod(sum(map(mul, nums, col)), s)
        if rem:
            raise ArithmeticError(
                f"subdivision point of the cone on {gens} of type {b} is not integral"
            )
        w.append(q)
    point = tuple(w)
    if not group.contains(point):
        raise ArithmeticError(f"subdivision point {point} escapes the lattice")
    children = [
        Cone(gens[:k] + (point,) + gens[k + 1 :], b.remainder(k + 1))
        for k, bk in enumerate(nums)
        if bk
    ]
    return point, children


def _is_full_axis(point: ScaledPoint, r: int) -> bool:
    nonzero = [v for v in point if v != 0]
    return len(nonzero) == 1 and nonzero[0] == r


def _ray_info(point: ScaledPoint, group: GroupType) -> RayInfo:
    r = group.fraction.denominator
    return RayInfo(
        scaled=point,
        exceptional=not _is_full_axis(point, r),
        r=r,
        height=sum(group.primitive(point)) - r,
    )


def build_resolution(group: GroupType) -> Fan:
    """Iterate star subdivisions until every cone is smooth.

    Always resolves completely; ``star_subdivide`` is the one-step
    primitive.  Depth-first, children in index order: reproducible output.
    """
    r, n = group.r, group.n
    axes = tuple(tuple(r if j == i else 0 for j in range(n)) for i in range(n))
    creation: list[ScaledPoint] = list(axes)
    nodes: list[Cone] = []
    leaves: list[Cone] = []
    stack: list[Cone] = [Cone(axes, group.fraction)]
    while stack:
        cone = stack.pop()
        nodes.append(cone)
        if cone.is_smooth_type():
            leaves.append(cone)
            continue
        point, children = star_subdivide(cone, group)
        creation.append(point)
        stack.extend(reversed(children))
    present = {g for c in leaves for g in c.generators}
    rays = tuple(_ray_info(g, group) for g in dict.fromkeys(creation) if g in present)
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
    ran.  ``coverage_ok`` needs the certificate as well as clean samples.
    ``rays_ok`` needs the listed rays to be primitive lattice points
    (``bad_rays`` names those that are not) and to be, each once, exactly
    the maximal cones' generators: ``unmatched_rays`` names, sorted, the
    listed points in no maximal cone, the generators missing from
    ``fan.rays`` and the points listed more than once.
    """

    multiplicity_ok: bool
    bad_multiplicities: tuple[int, ...]
    rays_ok: bool
    bad_rays: tuple[ScaledPoint, ...]
    unmatched_rays: tuple[ScaledPoint, ...]
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
    2. every ray is a primitive lattice point, and ``fan.rays`` lists each
       generator of the maximal cones once and nothing else;
    3. ``samples`` pseudo-random integer points in ``[1, 10**6]^n``, strictly
       inside the positive orthant, each land in exactly one cone, or on a
       face shared by the cones containing it;
    4. any two maximal cones intersect in a common face.  A linear-time
       facet certificate proves this for the whole fan at once; only when
       it fails does the pairwise check run, to name the bad pairs.

    Coverage passes when no sample fails and the certificate holds: samples
    alone can miss a thin cone, and the certificate proves that the cones
    fill the orthant with nothing left over.  With ``samples=0`` the
    certificate alone decides; no samples are no evidence.

    The samples come from the package's SplitMix64 stream (``_samples``),
    so the same seed tests the same points on every numpy version, and one
    draw serves every call with the same dimension, count and seed.  One
    loop tests them on every fan, in tiles of a block of samples against a
    chunk of the cones' cofactor rows, whose product holds at most
    ``_COVERAGE_BUDGET`` entries, so scratch memory stays bounded however
    many cones and samples there are; a fan with no cones leaves every
    sample uncovered.  The products run on float64 (BLAS) while every
    product and partial sum is an integer below 2^53, on int64 below 2^62
    and on Python ints past that, so every sign is exact.  A maximal cone on linearly dependent
    generators (two equal ones, say), or whose determinant r^(n-1) does not
    divide (a generator outside the lattice), raises ``ValueError``, and so
    do a ``samples`` or ``seed`` that is not an integer (bools included) or
    is negative, and more than ``_SAMPLE_BUDGET`` sample coordinates.
    """
    group = fan.group
    samples, seed = _check_sampling(group.n, samples, seed)

    bad_mults = tuple(sorted({cone_multiplicity(c, group) for c in fan.max_cones} - {1}))

    bad_rays = []
    for ray in fan.rays:
        try:
            ok = group.contains(ray.scaled) and group.primitive(ray.scaled) == ray.scaled
        except ValueError:
            ok = False
        if not ok:
            bad_rays.append(ray.scaled)
    # the cones' generators and the listed rays must be one set, each ray
    # listed once; checked with sets alone, so no lattice helper is called
    listed = {ray.scaled for ray in fan.rays}
    unmatched = listed.symmetric_difference(
        chain.from_iterable([cone.generators for cone in fan.max_cones])
    )
    if len(listed) < len(fan.rays):
        counts = Counter(ray.scaled for ray in fan.rays)
        unmatched.update(p for p, k in counts.items() if k > 1)

    normals = [_cofactor_rows(c.generators) for c in fan.max_cones]

    uncovered, overlapping, gaps = _check_coverage(normals, group.n, samples, seed)
    certified = _facets_certified(fan, normals)
    bad_pairs = [] if certified else _check_faces(fan, normals)

    return FanValidation(
        multiplicity_ok=not bad_mults,
        bad_multiplicities=bad_mults,
        rays_ok=not bad_rays and not unmatched,
        bad_rays=tuple(bad_rays),
        unmatched_rays=tuple(sorted(unmatched)),
        coverage_ok=uncovered == overlapping == gaps == 0 and certified,
        uncovered=uncovered,
        overlapping=overlapping,
        boundary_gaps=gaps,
        faces_ok=not bad_pairs,
        bad_pairs=tuple(bad_pairs),
        faces_certified=certified,
        samples=samples,
        seed=seed,
    )


def _check_sampling(n: int, samples: int, seed: int) -> tuple[int, int]:
    """``samples`` and ``seed`` as plain ints, once they are checked."""
    samples = _as_int(samples, "sample count must be an integer")
    seed = _as_int(seed, "sampling seed must be an integer")
    if samples < 0:
        raise ValueError(f"sample count must be at least 0, got {samples}")
    if seed < 0:
        raise ValueError(f"sampling seed must be at least 0, got {seed}")
    if n * samples > _SAMPLE_BUDGET:
        raise ValueError(
            f"{samples} samples in dimension {n} exceed the bound of "
            f"{_SAMPLE_BUDGET:,} sample coordinates"
        )
    return samples, seed


def _check_coverage(normals: list, n: int, samples: int, seed: int) -> tuple[int, int, int]:
    """Uncovered, overlapping and boundary-gap sample counts.

    One loop for every fan: blocks of sample columns outside, chunks of
    cones inside, each tile's product at most ``_COVERAGE_BUDGET`` entries.
    A sample lies in a cone when its least barycentric sign there is >= 0,
    and inside it when > 0; a block's per-sample counts start at zero, sum
    over every chunk and are dropped once tallied.  So a fan with no cones
    leaves every sample uncovered, and no samples give no counts and draw
    none.  Both tile levels were measured to carry weight: cone chunks keep
    the blocks wide, and sample blocks bound the scratch in the sample count
    (README, "Validation and reproducibility").
    """
    dtype = _coverage_dtype(normals, n)
    mat = np.fromiter(_entries(normals), dtype).reshape(-1, n)
    # the widest block that one cone's n rows fit, then as many cones as fit it
    block = max(1, min(samples, _COVERAGE_BUDGET // n))
    rows = n * max(1, _COVERAGE_BUDGET // (n * block))
    uncovered = overlapping = gaps = 0
    for start in range(0, samples, block):
        cols = _samples(n, samples, seed)[:, start : start + block].astype(dtype)
        cov = np.zeros(cols.shape[1], np.int32)
        stc = np.zeros(cols.shape[1], np.int32)
        for lo in range(0, len(mat), rows):
            low = (mat[lo : lo + rows] @ cols).reshape(-1, n, cols.shape[1]).min(axis=1)
            cov += (low >= 0).sum(axis=0, dtype=np.int32)
            stc += (low > 0).sum(axis=0, dtype=np.int32)
        uncovered += int(np.count_nonzero(cov == 0))
        overlapping += int(np.count_nonzero((cov >= 2) & (stc >= 1)))
        gaps += int(np.count_nonzero((cov == 1) & (stc == 0)))
    return uncovered, overlapping, gaps


def _entries(normals: list):
    return chain.from_iterable(chain.from_iterable(normals))


def _coverage_dtype(normals: list, n: int):
    """The cheapest exact dtype for the products of ``normals`` with samples.

    Every product and partial sum of ``u . x`` is an integer of magnitude at
    most ``B = max|u| * _SAMPLE_SPAN * n``.  Doubles hold every such integer
    exactly while ``B < 2**53``, in any summation order and with fused
    multiply-adds, so BLAS gives the signs int64 would; int64 holds them
    while ``B < 2**62``; past that, Python ints.
    """
    biggest = max(map(abs, _entries(normals)), default=0)
    bound = biggest * _SAMPLE_SPAN * n
    if bound < 2**53:
        return np.float64
    if bound < 2**62:
        return np.int64
    return object


@lru_cache(maxsize=2)
def _samples(n: int, samples: int, seed: int) -> np.ndarray:
    """The (n, samples) coverage samples of ``seed``, drawn once per key.

    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) in uint64, mod 2^64: the
    state folds in the seed's 64-bit limbs, highest first, by ``mix(state ^
    limb)``; entry i, row-major, is ``mix(state + (i + 1) * gamma) % 10**6 + 1``.
    Read-only, since every caller with the same key shares the array.
    """
    state = np.zeros(1, np.uint64)
    for shift in reversed(range(0, max(seed.bit_length(), 1), 64)):
        state = _mix64(state ^ np.uint64(seed >> shift & 2**64 - 1))
    z = np.arange(1, n * samples + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += state
    _mix64(z)
    z %= np.uint64(_SAMPLE_SPAN)
    z += np.uint64(1)
    pts = z.view(np.int64).reshape(n, samples)
    pts.flags.writeable = False
    return pts


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix, in place on a uint64 array."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


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
    face.  False proves nothing: the pairwise check then decides the faces,
    and coverage fails.
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
    return _pair_face_enumerate(gens_c, normals_c, normals_d, shared, n)


def _pair_face_enumerate(gens_c, normals_c, normals_d, shared, n) -> bool:
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
    return sum(map(mul, u, v))


def _null_direction(vs, n):
    """Integer spanning vector of the common kernel of n-1 row vectors (n >= 2)."""
    comps = tuple(
        [(-1 if k % 2 else 1) * det_int(tuple(map(get, vs))) for k, get in enumerate(_drop_one(n))]
    )
    return comps if any(comps) else None


# ---------------------------------------------------------------------------
# summary report


@dataclass(frozen=True)
class ResolutionReport:
    """Everything the resolution of one group type establishes.

    Sweeps keep one record per type, so it holds only numbers and flags:
    no group, fan, polynomial or per-ray data.  ``validation`` is ``None``
    when the sampled validation was skipped.  ``resolution_report`` leaves
    ``ms`` at 0.0, so equal arguments give equal reports; ``measure_type``
    sets it to the wall clock of its own call, the sweep CSV's ``ms``.
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
    ms: float = 0.0

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
) -> tuple[ResolutionReport, Fan]:
    """Resolve, cross-check, and bundle the results.

    The Euler characteristic comes from counting cones of the geometric
    construction.  The size, total height and age-one test are read from
    the remainder polynomial's coefficients: when validating, from a
    separate ``expand``; otherwise from ``fan.interior_types``, the same
    fractions, so the subdivision tree is walked once.  Leaf multiplicities
    come from ``validate_fan`` when validating and are computed directly
    otherwise, never twice.  When validating, ``samples`` and ``seed`` are
    checked before anything is built, so bad ones fail at once.
    """
    if validate:
        _check_sampling(group.n, samples, seed)
    fan = build_resolution(group)
    if validate:
        coefficients = expand(group.fraction).coefficients
        validation = validate_fan(fan, samples=samples, seed=seed)
        smooth = validation.multiplicity_ok
    else:
        coefficients = fan.interior_types
        validation = None
        smooth = all(cone_multiplicity(c, group) == 1 for c in fan.max_cones)
    report = ResolutionReport(
        r=group.r,
        weights=group.weights,
        size=sum(c.ones() for c in coefficients),
        height=sum(c.height() for c in coefficients),
        euler=fan.euler,
        smooth_all=smooth,
        crepant_by_ages=all(c.height() == 0 for c in coefficients),
        crepant_by_fan=fan.is_crepant(),
        validation=validation,
    )
    return report, fan
