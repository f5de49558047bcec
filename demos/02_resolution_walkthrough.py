"""
Resolve 1/12(1,2,7) step by step and watch the multiplicities fall.

The positive orthant in the scaled lattice starts with multiplicity 12.
Star subdivision at the point named by the local type splits a cone into
children whose multiplicities are that type's nonzero numerators, so every
step strictly shrinks the defect until all cones are smooth.

Writes fan.json, fan.svg and tree.dot next to this script when run.
"""

import pathlib

from fujiki_oka import (
    GroupType,
    build_resolution,
    cone_multiplicity,
    expand,
    fan_json_text,
    fan_to_svg,
    star_subdivide,
    validate_fan,
    subdivision_tree_dot,
)

group = GroupType.from_weights(12, (1, 2, 7))
fan = build_resolution(group)
root = fan.nodes[0]

print(f"resolving {group}")
print(f"root cone multiplicity: {cone_multiplicity(root, group)}")
point, _ = star_subdivide(root, group)
print(f"first subdivision point: {point}")
print()

# every cone the subdivision produced, depth-first with children in index order
for cone in fan.nodes:
    mult = cone_multiplicity(cone, group)
    pad = "  " * len(cone.word)
    print(f"{pad}cone {cone.word or '()'}: type {cone.local_type}, multiplicity {mult}")
print()

# the smooth leaves are the maximal cones; the fan indexes their rays
print(f"maximal cones: {fan.euler}")
for ray in fan.rays:
    kind = "exceptional" if ray.exceptional else "axis"
    print(f"  ray {ray.scaled} [{kind}]  age {ray.age}  discrepancy {ray.discrepancy}")

poly = expand(group.fraction)
print(f"arithmetic cross-check: size {poly.size()} = euler {fan.euler}")

check = validate_fan(fan)
print(f"independent validation: {'pass' if check.passed else 'FAIL'}")
print()

here = pathlib.Path(__file__).resolve().parent
(here / "fan.json").write_text(fan_json_text(fan))
(here / "fan.svg").write_text(fan_to_svg(fan))
(here / "tree.dot").write_text(subdivision_tree_dot(fan))
print(f"wrote fan.json, fan.svg, tree.dot to {here}")
