"""Every artifact format: fan JSON, SVG cross-sections, DOT subdivision
trees and the remainder polynomial's JSON.

Each renderer is a pure function of one fan or one polynomial, with fixed
key order and fixed numeric formatting, so identical inputs produce
byte-identical output.  Exact rationals are emitted as strings ("-1/6",
"0", "1") rather than floats.
"""

from __future__ import annotations

import json
import math

from .fan import Fan, GroupType, cone_multiplicity
from .polynomial import RemainderPolynomial


def fan_json_text(fan: Fan) -> str:
    """JSON summary of a fan and its arithmetic cross-checks.

    Cones reference rays by index into the ``rays`` array (``ValueError``
    naming a generator that ``rays`` lacks), each cone's word is the leaf
    word in the same position (``ValueError`` when the counts differ), and
    each cone's multiplicity is its leaf determinant; the size and total
    height are summed over the fan's ``interior_types``.
    """
    index = {ray.scaled: i for i, ray in enumerate(fan.rays)}
    for cone in fan.max_cones:
        for g in cone.generators:
            if g not in index:
                raise ValueError(f"cone generator {g} is not among the fan's rays")
    types = fan.interior_types
    leaf_words = [w for c, w in zip(fan.nodes, fan.words()) if c.is_smooth_type()]
    # json writes a tuple as an array, so the fan's tuples go in unconverted
    data = {
        "group": {"r": fan.group.r, "weights": fan.group.weights},
        "rays": [
            {
                "scaled": ray.scaled,
                "exceptional": ray.exceptional,
                "age": str(ray.age),
                "discrepancy": str(ray.discrepancy),
            }
            for ray in fan.rays
        ],
        "max_cones": [
            {
                "ray_indices": [index[g] for g in cone.generators],
                "word": word,
                "multiplicity": cone_multiplicity(cone, fan.group),
            }
            for cone, word in zip(fan.max_cones, leaf_words, strict=True)
        ],
        "euler": fan.euler,
        "height_total": sum(t.height() for t in types),
        "size": sum(t.ones() for t in types),
        "crepant": fan.is_crepant(),
    }
    return json.dumps(data, indent=2) + "\n"


def polynomial_json_text(poly: RemainderPolynomial) -> str:
    """JSON list of ``{word, numerators, denominator}`` objects, one per
    coefficient in canonical order; ``ValueError`` when the coefficients
    and ``poly.words()`` differ in count."""
    terms = [
        {"word": word, "numerators": coef.numerators, "denominator": coef.denominator}
        for word, coef in zip(poly.words(), poly.coefficients, strict=True)
    ]
    return json.dumps(terms, indent=2) + "\n"


# triangle cross-section layout for three-dimensional fans
_SVG_SIZE = 420.0
_SVG_PAD = 30.0
_SIDE = _SVG_SIZE - 2 * _SVG_PAD
_BASE_Y = _SVG_PAD + _SIDE * math.sqrt(3) / 2
# the top, bottom-left and bottom-right corners, one per weight
_CORNERS = ((_SVG_PAD + _SIDE / 2, _SVG_PAD), (_SVG_PAD, _BASE_Y), (_SVG_PAD + _SIDE, _BASE_Y))


def _project(point: tuple[int, ...]) -> tuple[float, float]:
    total = sum(point)
    x = y = 0.0
    for v, (cx, cy) in zip(point, _CORNERS):
        x += v * cx / total
        y += v * cy / total
    return x, y


def require_cross_section(group: GroupType) -> None:
    """Raise ValueError unless ``group`` has three weights, the only case
    with the triangle cross-section ``fan_to_svg`` draws."""
    if group.n != 3:
        raise ValueError(f"cross-section drawing needs 3 weights, got {group.n}")


def fan_to_svg(fan: Fan) -> str:
    """Triangle cross-section of a three-dimensional fan.

    Each maximal cone becomes one filled triangle, each ray one dot with
    its scaled coordinates as label.  Only ``n == 3`` has this picture;
    other dimensions raise ValueError (see ``require_cross_section``).
    """
    require_cross_section(fan.group)
    size = int(_SVG_SIZE)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"  <title>{fan.group}</title>",
    ]
    for cone in fan.max_cones:
        pts = " ".join(
            f"{x:.2f},{y:.2f}" for x, y in (_project(g) for g in cone.generators)
        )
        lines.append(
            f'  <polygon points="{pts}" fill="#dce9f5" stroke="#34495e" stroke-width="1"/>'
        )
    for ray in fan.rays:
        x, y = _project(ray.scaled)
        fill = "#c0392b" if ray.exceptional else "#2c3e50"
        lines.append(f'  <circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{fill}"/>')
    for ray in fan.rays:
        x, y = _project(ray.scaled)
        label = "(" + ",".join(str(v) for v in ray.scaled) + ")"
        lines.append(
            f'  <text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="11" '
            f'font-family="monospace">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _node_name(word: tuple[int, ...]) -> str:
    return "n" + "".join(f"_{k}" for k in word)


def subdivision_tree_dot(fan: Fan) -> str:
    """GraphViz rendering of the subdivision tree.

    One node per cone ever created, labelled by its word and local type;
    edges drop the last letter of the word.
    """
    lines = [
        "digraph subdivision {",
        '  node [shape=box, fontname="monospace"];',
    ]
    words = fan.words()
    for cone, word in zip(fan.nodes, words):
        label = "(" + ",".join(str(k) for k in word) + f") {cone.local_type}"
        lines.append(f'  {_node_name(word)} [label="{label}"];')
    for word in words[1:]:
        lines.append(f"  {_node_name(word[:-1])} -> {_node_name(word)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
