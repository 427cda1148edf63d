"""Core package: the paper's kRSP bifactor approximation algorithm.

Public surface re-exported here; the usual entry point is
:func:`repro.core.solve_krsp`.
"""

from repro.core.instance import KRSPInstance, PathSet
from repro.core.residual import (
    ResidualGraph,
    apply_residual_cycles,
    build_residual,
    residual_weight_of,
)
from repro.core.cycle_decompose import decompose_into_cycles, split_closed_walk
from repro.core.bicameral import (
    CandidateCycle,
    CycleType,
    classify,
    select_candidate,
)
from repro.core.auxgraph import AuxGraph, build_aux_paper, build_aux_shifted
from repro.core.auxlp import (
    candidates_from_circulation,
    candidates_from_cycles,
    min_ratio_cycles,
    peel_fractional_cycles,
)
from repro.core.search import (
    SearchStats,
    find_bicameral_candidates,
    find_bicameral_candidates_paper,
    find_bicameral_cycle,
    reversed_edge_anchors,
)
from repro.core.phase1 import (
    PROVIDERS,
    Phase1Result,
    flow_lp_bound,
    phase1_lagrangian,
    phase1_lagrangian_lemma5,
    phase1_lp_rounding,
    phase1_minsum,
)
from repro.core.cancellation import (
    CancellationResult,
    IterationRecord,
    cancel_to_feasibility,
)
from repro.core.scaling import ScaledInstance, mapped_back_delay_bound, scale_instance
from repro.core.krsp import KRSPSolution, solve_krsp
from repro.core.verify import VerificationReport, verify_solution
from repro.core.repair import RepairResult, repair_solution
from repro.core.kbcp import KBCPSolution, solve_kbcp
from repro.core.special_cases import (
    LengthBoundedResult,
    LengthBoundedStatus,
    MinMaxResult,
    length_bounded_paths,
    min_max_disjoint_paths,
)

__all__ = [
    "KRSPInstance",
    "PathSet",
    "ResidualGraph",
    "apply_residual_cycles",
    "build_residual",
    "residual_weight_of",
    "decompose_into_cycles",
    "split_closed_walk",
    "CandidateCycle",
    "CycleType",
    "classify",
    "select_candidate",
    "AuxGraph",
    "build_aux_paper",
    "build_aux_shifted",
    "candidates_from_circulation",
    "candidates_from_cycles",
    "min_ratio_cycles",
    "peel_fractional_cycles",
    "SearchStats",
    "find_bicameral_candidates",
    "find_bicameral_cycle",
    "find_bicameral_candidates_paper",
    "reversed_edge_anchors",
    "PROVIDERS",
    "Phase1Result",
    "flow_lp_bound",
    "phase1_lagrangian",
    "phase1_lagrangian_lemma5",
    "phase1_lp_rounding",
    "phase1_minsum",
    "CancellationResult",
    "IterationRecord",
    "cancel_to_feasibility",
    "ScaledInstance",
    "mapped_back_delay_bound",
    "scale_instance",
    "KRSPSolution",
    "solve_krsp",
    "VerificationReport",
    "verify_solution",
    "RepairResult",
    "repair_solution",
    "KBCPSolution",
    "solve_kbcp",
    "LengthBoundedResult",
    "LengthBoundedStatus",
    "MinMaxResult",
    "length_bounded_paths",
    "min_max_disjoint_paths",
]
