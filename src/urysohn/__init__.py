"""Exact-arithmetic construction engine for enriched rational Urysohn
approximations.

Three kinds of enrichment are supported over finite rational metric spaces:
indexed n-ary 1-Lipschitz predicate tables, closed-subset profiles over a
compact presentation, and L-Lipschitz labels into a Polish presentation.
Each comes with validation, joint embedding and amalgamation; a lazy limit
oracle realizes one-point extensions on demand and hands out certified
Cauchy approximants of limit points.
"""

from .cauchy import (
    CauchyPoint,
    PartialIso,
    SandwichInfeasible,
    SandwichSolution,
    SolverError,
    embed_structure,
    extend_one_point,
    extend_partial_iso,
    extend_singleton,
    required_depth,
    solve_sandwich,
    validate_witness,
    verify_cauchy,
)
from .certificates import Check, emit_certificate, verify_certificate
from .engine import (
    Amalgam,
    GrowthResult,
    LimitOracle,
    OracleGrowthError,
    RelExtension,
    amalgamate_k,
    joint_embed_k,
)
from .lipschitz import (
    StructureL,
    amalgamate_l,
    eval_limit_function,
    extend_one_point_l,
    joint_embed_l,
    snapshot_lipschitz,
    validate_l,
)
from .metric import (
    FinMetric,
    MetricTableError,
    OnePointSpec,
    WitnessError,
    fin_metric,
    jep_gap_metric,
    one_point_feasible,
    path_amalgam_metric,
    validate_metric,
)
from .product import (
    StructureC,
    amalgamate_c,
    embed_point_c,
    extend_one_point_c,
    joint_embed_c,
    membership_c,
    realize_zero_witness,
    snapshot_product,
    validate_c,
)
from .relational import (
    EmbeddingWitness,
    FixedArityConfig,
    FixedArityStructure,
    IndexedStructure,
    canonical_extend,
    check_embedding_k,
    find_isomorphism,
    find_isomorphism_fixed,
    indexed_structure,
    validate_fixed,
    validate_k,
)
from .spaces import (
    CompactPresentation,
    PolishPresentation,
    SuitableFn,
    build_suitable,
    eval_suitable,
    suitable,
    suitable_from_values,
    validate_suitable,
)

__all__ = [name for name in dir() if not name.startswith("_")]
