"""Quadratic stochastic operators on the probability simplex.

A quadratic stochastic operator maps a probability vector to the offspring
distribution produced by random pairwise interaction: x'_k is the quadratic
form sum_ij P[i,j,k] x_i x_j of a heredity tensor P. This package provides
the simplex primitives, a 36-member parametric operator catalog on the
2-simplex with its structural and conjugacy classification, and closed-form
plus numeric analysis of the limit behavior of four selected operators.
"""

from .simplex import (
    SimplexPoint,
    equivalent,
    l1_distance,
    sample,
    singular,
    support,
    vertex,
)
from .permutations import Permutation
from .operators import (
    EllVolterraStructure,
    HeredityTensor,
    TensorValidation,
    VolterraCoefficients,
    apply,
    apply_array,
    ell_volterra_structure,
    is_volterra,
    permuted_ell_volterra,
    relabel_outputs,
    structure_label,
    validate,
    volterra_coefficients,
)
from .catalog import (
    CATALOG_PARTITION,
    OperatorSpec,
    PairPartition,
    REFERENCE_CLASSES,
    StructureReport,
    are_conjugate,
    build_operator,
    classes_fixed_parameter,
    classify_catalog,
    coefficient_distance,
    conjugate,
    matches_reference,
    operator_tensor,
    pair_partitions,
    partition_stabilizer,
    partition_structure_check,
    polynomial_text,
)
from .dynamics import (
    ANALYZED_OPS,
    CYCLE_PARAM_SUP,
    CurveFamily,
    LimitPrediction,
    PointSet,
    RegionTag,
    TrajectoryReport,
    VerificationReport,
    edge_fixed_height,
    fixed_points_exact,
    fixed_points_numeric,
    iterate,
    limit_prediction,
    omega_limit,
    periodic2_exact,
    region_classify,
    regime,
    scalar_map,
    scalar_map_report,
    slice_cycle_heights,
    slice_fixed_height,
    trajectory_csv,
    verify_predictions,
)

__version__ = "0.1.0"

__all__ = [
    "SimplexPoint", "vertex", "support", "equivalent", "singular", "l1_distance", "sample",
    "Permutation",
    "HeredityTensor", "apply", "apply_array", "validate", "TensorValidation",
    "is_volterra", "VolterraCoefficients", "volterra_coefficients",
    "EllVolterraStructure", "ell_volterra_structure", "relabel_outputs",
    "permuted_ell_volterra", "structure_label",
    "OperatorSpec", "build_operator", "operator_tensor", "PairPartition",
    "pair_partitions", "CATALOG_PARTITION", "partition_structure_check", "StructureReport",
    "conjugate", "are_conjugate", "coefficient_distance", "classify_catalog",
    "classes_fixed_parameter", "REFERENCE_CLASSES", "matches_reference",
    "partition_stabilizer", "polynomial_text",
    "ANALYZED_OPS", "CYCLE_PARAM_SUP", "regime", "scalar_map", "scalar_map_report",
    "iterate", "omega_limit", "TrajectoryReport", "trajectory_csv",
    "slice_fixed_height", "slice_cycle_heights", "edge_fixed_height",
    "PointSet", "CurveFamily", "fixed_points_exact", "periodic2_exact",
    "fixed_points_numeric", "RegionTag", "region_classify",
    "LimitPrediction", "limit_prediction", "VerificationReport", "verify_predictions",
]
