"""The package's public surface: every exported name, and nothing more."""

import fujiki_oka

PUBLIC = [
    "Comparison2D",
    "Cone",
    "DEFAULT_SEED",
    "Fan",
    "FanValidation",
    "GroupType",
    "ProperFraction",
    "RayInfo",
    "RemainderPolynomial",
    "ResolutionReport",
    "build_resolution",
    "check_identities",
    "compare_2d",
    "cone_multiplicity",
    "det_int",
    "expand",
    "family_type",
    "fan_json_text",
    "fan_to_svg",
    "hj_evaluate",
    "hj_expansion",
    "measure_type",
    "polynomial_json_text",
    "resolution_report",
    "star_subdivide",
    "subdivision_tree_dot",
    "summarize",
    "sweep",
    "validate_fan",
    "write_sweep_csv",
]


def test_exports_are_pinned():
    assert sorted(fujiki_oka.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(fujiki_oka, name) is not None, name


def test_duplicate_invariants_are_gone():
    # each invariant has one owner: RayInfo.discrepancy and .age, and
    # ResolutionReport.crepant_by_ages; a zero fraction has denominator 1
    assert not hasattr(fujiki_oka, "discrepancy")
    assert not hasattr(fujiki_oka.fan, "discrepancy")
    assert not hasattr(fujiki_oka.ProperFraction, "age")
    assert not hasattr(fujiki_oka.ProperFraction, "is_zero")
    assert not hasattr(fujiki_oka.RemainderPolynomial, "all_ages_one")
    assert "__str__" not in vars(fujiki_oka.RemainderPolynomial)
