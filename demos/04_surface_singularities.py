"""
Surfaces are the sanity anchor: for 1/r(1,a) the minimal resolution has
been understood for a century via negative-regular continued fractions.

r/a = c1 - 1/(c2 - 1/(...)) with all c_i >= 2 gives the chain of
exceptional curves; curve j has self-intersection -c_j.  The subdivision
construction must reproduce exactly that chain: its exceptional rays must
be distinct lattice points on the boundary of the convex hull of the
nonzero lattice points of the quadrant, as many as the chain has curves,
so they are exactly the lattice points on the hull's compact edges.
"""

import math

from fujiki_oka import GroupType, build_resolution, compare_2d, hj_evaluate, hj_expansion


def surface(r, a):
    """The subdivision fan of 1/r(1,a), compared against the classical chain."""
    return compare_2d(build_resolution(GroupType.from_weights(r, (1, a))))


for r, a in ((5, 2), (12, 7), (7, 6), (30, 11)):
    entries = hj_expansion(r, a)
    back = hj_evaluate(entries)
    print(f"{r}/{a} = {entries}  (folds back to {back})")
print()

# compare for one type in detail
result = surface(12, 7)
print(f"type 1/{result.r}(1,{result.a})")
print(f"continued fraction: {list(result.expansion)}")
print(f"exceptional rays:   {list(result.exceptional_rays)}")
print(f"ray count matches expansion length: {result.count_matches}")
print(f"euler = length + 1: {result.euler_matches}")
print(f"rays on the hull boundary: {result.rays_on_hull}")
print()

# the A-series: a = r-1 gives the longest chain, all (-2)-curves
for r in (4, 8):
    result = surface(r, r - 1)
    print(f"1/{r}(1,{r - 1}): {len(result.exceptional_rays)} curves, "
          f"expansion {list(result.expansion)}, ok={result.ok}")
print()

# and in bulk
bad = 0
checked = 0
for r in range(2, 101):
    for a in range(1, r):
        if math.gcd(r, a) != 1:
            continue
        checked += 1
        if not surface(r, a).ok:
            bad += 1
print(f"checked {checked} coprime types with r <= 100: {bad} disagreements")
