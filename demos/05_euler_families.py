"""
Two infinite families of 3D types whose resolutions have Euler
characteristic equal to the group order: 1/(6k+1)(1,3,6k-5) and
1/(6k-1)(1,3,3k-2).

chi = r is automatic for Gorenstein types (weights summing to a multiple
of r), but these families are mostly non-Gorenstein, which is what makes
them interesting.

Each row is one ResolutionReport: the identities, both crepancy criteria
and the independent validation of the fan, folded into ``ok``.
"""

from fujiki_oka import family_type, measure_type, resolution_report

print(f"{'family':<8}{'k':>3}{'type':>18}{'chi':>6}{'r':>5}  gorenstein  ok")
for name in ("plus", "minus"):
    for k in range(1, 9):
        group = family_type(name, k)
        rec, _ = resolution_report(group)
        mark = "yes" if rec.gorenstein else "no"
        ok = "yes" if rec.ok else "no"
        row = f"{name:<8}{k:>3}{str(group):>18}{rec.euler:>6}{group.r:>5}"
        print(f"{row}  {mark:<10}  {ok}")
print()

# k = 1 of the minus family is Gorenstein and crepant, the rest are not
rec = measure_type(family_type("minus", 1))
print(f"1/5(1,3,1): crepant={rec.crepant}, gorenstein={rec.gorenstein}")
rec = measure_type(family_type("plus", 4))
print(f"{family_type('plus', 4)}: crepant={rec.crepant}, gorenstein={rec.gorenstein}")
