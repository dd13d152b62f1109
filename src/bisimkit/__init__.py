"""Functor-generic partition refinement with auditable Hopcroft-style runs."""

from .coalgebra import Coalgebra, PredIndex, SignatureEvaluator, build_pred_index
from .engine import (
    Partition,
    RefinementTree,
    RefineResult,
    RunStats,
    refine_hopcroft,
    refine_naive,
)
from .functors import FunctorExpr, parse_functor, render_functor
from .gen import GenSpec, SplitMix64, generate
from .oracle import bisim_bruteforce, partitions_equal
from .values import validate_value
from .wtree import (
    AuditReport,
    WeightedTree,
    audit_tree,
    choose_heavy,
    hopcroft_bound_check,
    light_child_sum,
    lpath_weighted_leaf_sum,
    tighten,
    validate_weight,
)

__version__ = "0.1.0"

__all__ = [
    "Coalgebra",
    "PredIndex",
    "SignatureEvaluator",
    "build_pred_index",
    "Partition",
    "RefinementTree",
    "RefineResult",
    "RunStats",
    "refine_hopcroft",
    "refine_naive",
    "FunctorExpr",
    "parse_functor",
    "render_functor",
    "GenSpec",
    "SplitMix64",
    "generate",
    "bisim_bruteforce",
    "partitions_equal",
    "validate_value",
    "WeightedTree",
    "AuditReport",
    "audit_tree",
    "choose_heavy",
    "hopcroft_bound_check",
    "light_child_sum",
    "lpath_weighted_leaf_sum",
    "tighten",
    "validate_weight",
]
