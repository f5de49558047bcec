"""Exact toric resolutions of cyclic quotient singularities.

The package resolves the quotient of affine n-space by a cyclic group
acting with weights (a_1, ..., a_n), some weight equal to 1, by iterated
star subdivision of the positive orthant, and cross-checks the geometry
against a purely arithmetic expansion of the same data into a polynomial
of remainders.  All core arithmetic is exact.
"""

from .fan import (
    DEFAULT_SEED,
    Cone,
    Fan,
    FanValidation,
    GroupType,
    RayInfo,
    ResolutionReport,
    build_resolution,
    cone_multiplicity,
    det_int,
    resolution_report,
    star_subdivide,
    validate_fan,
)
from .polynomial import RemainderPolynomial, expand
from .propfrac import ProperFraction
from .render import (
    fan_json_text,
    fan_to_svg,
    polynomial_json_text,
    subdivision_tree_dot,
)
from .verify import (
    Comparison2D,
    check_identities,
    compare_2d,
    family_type,
    hj_evaluate,
    hj_expansion,
    measure_type,
    summarize,
    sweep,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "Comparison2D",
    "Cone",
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
