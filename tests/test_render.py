"""Unit tests for JSON / SVG / DOT output."""

import json
from dataclasses import replace

import pytest

from conftest import all_semi_unimodular
from fujiki_oka import (
    GroupType,
    build_resolution,
    expand,
    fan_json_text,
    fan_to_svg,
    polynomial_json_text,
    subdivision_tree_dot,
)


GOLDEN = GroupType.from_weights(12, (1, 2, 7))


def golden_fan():
    return build_resolution(GOLDEN)


class TestJson:
    def test_top_level_key_order(self):
        data = json.loads(fan_json_text(golden_fan()))
        assert list(data) == [
            "group",
            "rays",
            "max_cones",
            "euler",
            "height_total",
            "size",
            "crepant",
        ]
        assert list(data["rays"][0]) == ["scaled", "exceptional", "age", "discrepancy"]
        assert list(data["max_cones"][0]) == ["ray_indices", "word", "multiplicity"]

    def test_golden_content(self):
        data = json.loads(fan_json_text(golden_fan()))
        assert data["group"] == {"r": 12, "weights": [1, 2, 7]}
        assert data["euler"] == 8
        assert data["height_total"] == -4
        assert data["size"] == 8
        assert data["crepant"] is False
        assert data["rays"][3] == {
            "scaled": [1, 2, 7],
            "exceptional": True,
            "age": "5/6",
            "discrepancy": "-1/6",
        }
        first = data["max_cones"][0]
        assert first == {"ray_indices": [3, 1, 2], "word": [1], "multiplicity": 1}
        assert all(c["multiplicity"] == 1 for c in data["max_cones"])

    def test_indices_reference_rays(self):
        fan = golden_fan()
        data = json.loads(fan_json_text(fan))
        for cone, entry in zip(fan.max_cones, data["max_cones"]):
            resolved = [tuple(data["rays"][i]["scaled"]) for i in entry["ray_indices"]]
            assert resolved == list(cone.generators)

    def test_multiplicity_is_the_leaf_determinant(self):
        # a leaf on the axes of 1/5(1,2) is the whole orthant again, of
        # index 5, whatever local type the builder tagged it with
        fan = build_resolution(GroupType.from_weights(5, (1, 2)))
        first = fan.max_cones[0]
        axes = replace(first, generators=((5, 0), (0, 5)))
        data = json.loads(fan_json_text(replace(fan, max_cones=(axes,) + fan.max_cones[1:])))
        assert first.local_type.denominator == 1
        assert data["max_cones"][0]["ray_indices"] == [0, 1]
        assert data["max_cones"][0]["multiplicity"] == 5
        assert [c["multiplicity"] for c in data["max_cones"][1:]] == [1, 1]

    def test_cone_count_must_match_the_leaves(self):
        # words pair with the leaves by position, so a fan with a cone
        # dropped cannot print its words shifted onto the wrong cones
        fan = golden_fan()
        with pytest.raises(ValueError, match="zip"):
            json.loads(fan_json_text(replace(fan, max_cones=fan.max_cones[1:])))

    def test_size_and_height_are_the_expansion(self):
        # the fan's interior local types are the polynomial's coefficients
        for dim, r_max in ((2, 20), (3, 8), (4, 4)):
            for r in range(2, r_max + 1):
                for frac in all_semi_unimodular(dim, r):
                    data = json.loads(fan_json_text(build_resolution(GroupType(frac))))
                    poly = expand(frac)
                    assert data["size"] == poly.size(), frac
                    assert data["height_total"] == poly.total_height(), frac

    def test_text_is_reproducible(self):
        a = fan_json_text(golden_fan())
        b = fan_json_text(golden_fan())
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a)["euler"] == 8

    def test_polynomial_json(self):
        poly = expand(GroupType.from_weights(5, (1, 2)).fraction)
        data = json.loads(polynomial_json_text(poly))
        assert data == [
            {"word": [], "numerators": [1, 2], "denominator": 5},
            {"word": [2], "numerators": [1, 1], "denominator": 2},
        ]


class TestSvg:
    def test_structure_counts(self):
        svg = fan_to_svg(golden_fan())
        assert svg.count("<polygon") == 8
        assert svg.count("<circle") == 7
        assert svg.count("<text") == 7
        assert svg.strip().startswith("<svg")
        assert svg.strip().endswith("</svg>")
        assert "1/12(1,2,7)" in svg

    def test_reproducible(self):
        assert fan_to_svg(golden_fan()) == fan_to_svg(golden_fan())

    def test_labels_present(self):
        svg = fan_to_svg(golden_fan())
        for label in ("(1,2,7)", "(6,0,6)", "(2,4,2)", "(7,2,1)", "(12,0,0)"):
            assert label in svg

    def test_rejects_other_dimensions(self):
        fan = build_resolution(GroupType.from_weights(5, (1, 2)))
        with pytest.raises(ValueError):
            fan_to_svg(fan)


class TestDot:
    def test_tree_shape(self):
        dot = subdivision_tree_dot(golden_fan())
        lines = dot.splitlines()
        assert lines[0] == "digraph subdivision {"
        assert lines[-1] == "}"
        assert dot.count("[label=") == 13
        assert dot.count("->") == 12

    def test_specific_nodes_and_edges(self):
        dot = subdivision_tree_dot(golden_fan())
        assert '  n [label="() (1,2,7)/12"];' in dot
        assert '  n_3_2 [label="(3,2) (1,1,0)/2"];' in dot
        assert "  n_3 -> n_3_2;" in dot
        assert "  n -> n_1;" in dot

    def test_reproducible(self):
        assert subdivision_tree_dot(golden_fan()) == subdivision_tree_dot(golden_fan())
