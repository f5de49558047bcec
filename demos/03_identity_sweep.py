"""
Sweep every semi-unimodular 3D type up to a modest order and confirm the
three identities numerically: S = h + r, chi = S, chi = h + r.

Also writes the full table to sweep_3d.csv for inspection.  The ms column
is wall clock per type: the full resolution for the first type of each
weight-permutation orbit, only the lookup of that record for the others.
Everything else is deterministic.
"""

import pathlib
from collections import Counter

from fujiki_oka import summarize, sweep, write_sweep_csv

R_MAX = 15

records = sweep(dim=3, r_max=R_MAX)
stats = summarize(records)
print(f"swept {stats['types']} types with r <= {R_MAX}")
print(f"identities hold everywhere: {stats['all_ok']}")
print(f"crepant types: {stats['crepant']}")
print(f"Gorenstein types: {stats['gorenstein']}")
print()

# all crepant types here are Gorenstein and vice versa; list the small ones
print("crepant types with r <= 5:")
for rec in records:
    if rec.crepant and rec.r <= 5:
        weights = ",".join(str(w) for w in rec.weights)
        print(f"  1/{rec.r}({weights})  chi = {rec.euler}")
print()

# how large do the resolutions get?
sizes = Counter(rec.euler for rec in records)
biggest = max(sizes)
print(f"largest Euler characteristic seen: {biggest}")
print(f"most common: {sizes.most_common(3)}")

here = pathlib.Path(__file__).resolve().parent
out = here / "sweep_3d.csv"
with open(out, "w", newline="") as fh:
    write_sweep_csv(records, fh)
print(f"wrote {out}")
