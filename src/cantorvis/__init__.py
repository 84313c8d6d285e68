"""Exact-arithmetic toolkit for visibility and slicing of Cantor-set squares.

The package computes, over arbitrary-precision rationals: regime
classification of the contraction ratio, the scaled-core structure of the
quotient set with certified visibility queries, finite-rank quotient covers
with box-counting dimension estimates, and the projection slice dynamics
(overlap orbits, graph-directed extraction, spectral dimension).
"""

from . import errors
from .cantor import (CantorParams, Coding, IfsMap, Membership,
                     MembershipResult, basic_intervals, depth_budget,
                     endpoint_rank, membership, refine_tilde, window_gn)
from .exact import (Interval, IntervalSet, Rational, affine_image,
                    as_rational, format_rational, interval_quotient,
                    parse_rational)
from .gds import (Edge, GraphDirectedSystem, Separation, SpectralRadius,
                  build_gds, gds_dimension, gds_from_dynamics,
                  spectral_radius, univoque_dimension_estimate)
from .slices import (EndpointReport, OrbitClosure, OrbitStatus, OverlapRegion,
                     OverlapRegions, Prop1Report, Prop2Report, ProjectionIfs,
                     Verdict, admissible_branches, build_projection_ifs,
                     coding_count, orbit_search, overlap_regions, prop1_check,
                     prop2_check, slice_count_2d, survivor_cover)
from .visibility import (BoxDimEstimate, Key2Parts, RatioSetStructure, Regime,
                         RegimeTag, Visibility, VisibilityAnswer, VisibleSet,
                         box_count, box_dim_estimate, exact_core, key2_check,
                         key2_scan, key2_subintervals, quotient_core_cover,
                         ratio_set_structure, regime_classify,
                         thickness_condition, visible_query, visible_set,
                         window_pieces)

__version__ = "0.1.0"

__all__ = [
    "errors", "__version__",
    # exact core
    "Rational", "Interval", "IntervalSet", "as_rational", "parse_rational",
    "format_rational", "interval_quotient", "affine_image",
    # cantor system
    "CantorParams", "IfsMap", "Coding", "basic_intervals", "refine_tilde",
    "window_gn", "membership", "Membership", "MembershipResult",
    "endpoint_rank", "depth_budget",
    # visibility
    "Regime", "RegimeTag", "regime_classify", "Key2Parts", "key2_subintervals",
    "key2_check", "key2_scan", "window_pieces", "quotient_core_cover",
    "exact_core", "RatioSetStructure", "ratio_set_structure", "Visibility",
    "VisibilityAnswer", "visible_query", "VisibleSet", "visible_set",
    "thickness_condition", "box_count", "BoxDimEstimate", "box_dim_estimate",
    # slice dynamics
    "ProjectionIfs", "build_projection_ifs", "OverlapRegion", "OverlapRegions",
    "overlap_regions", "admissible_branches", "OrbitClosure", "OrbitStatus",
    "orbit_search", "EndpointReport", "Verdict", "Prop1Report", "Prop2Report",
    "prop1_check", "prop2_check", "coding_count", "slice_count_2d",
    "survivor_cover",
    # graph-directed systems
    "Edge", "Separation", "GraphDirectedSystem", "build_gds",
    "gds_from_dynamics", "SpectralRadius", "spectral_radius", "gds_dimension",
    "univoque_dimension_estimate",
]
