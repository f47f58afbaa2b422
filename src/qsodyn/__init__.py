"""Quadratic stochastic operators on the probability simplex.

A quadratic stochastic operator maps a probability vector to the offspring
distribution produced by random pairwise interaction: x'_k is the quadratic
form sum_ij P[i,j,k] x_i x_j of a heredity tensor P. This package provides
the simplex primitives, a 36-member parametric operator catalog on the
2-simplex with its structural and conjugacy classification, and closed-form
plus numeric analysis of the limit behavior of four selected operators.
"""

import importlib.util
import sys


def _lazy(name: str):
    """Register submodule `name` in sys.modules without running it; its first
    attribute access runs it. The numpy layers load this way, so `catalog`,
    `classify` and `tensor` never import numpy, while anything that snapshots
    sys.modules after `import qsodyn.cli` still finds every qsodyn module."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


simplex = _lazy("simplex")
dynamics = _lazy("dynamics")

from .permutations import Permutation  # noqa: E402  (after the lazy modules, which these import)
from .operators import (  # noqa: E402
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
from .catalog import (  # noqa: E402
    ANALYZED_OPS,
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


def __getattr__(name: str):
    """A public name of `simplex` or `dynamics`, read from its module, which runs then (PEP 562)."""
    for module in (simplex, dynamics) if name in __all__ else ():
        if hasattr(module, name):
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "iterate", "omega_limit", "omega_limits", "TrajectoryReport", "trajectory_csv",
    "slice_fixed_height", "slice_cycle_heights", "edge_fixed_height",
    "PointSet", "CurveFamily", "fixed_points_exact", "periodic2_exact",
    "fixed_points_numeric", "RegionTag", "region_classify",
    "LimitPrediction", "limit_prediction", "VerificationReport", "verify_predictions",
]
