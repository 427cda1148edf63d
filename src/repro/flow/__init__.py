"""Flow substrate: max-flow feasibility, min-cost k-flow, Suurballe paths,
flow decomposition."""

from repro.flow.maxflow import has_k_disjoint_paths, max_disjoint_paths, max_flow_value
from repro.flow.mincost import MinCostFlowResult, lexicographic_weights, min_cost_k_flow
from repro.flow.suurballe import suurballe_k_paths
from repro.flow.decompose import decompose_flow, flow_from_paths, strip_improving_cycles
from repro.flow.preflow import preflow_max_flow

__all__ = [
    "has_k_disjoint_paths",
    "max_disjoint_paths",
    "max_flow_value",
    "MinCostFlowResult",
    "lexicographic_weights",
    "min_cost_k_flow",
    "suurballe_k_paths",
    "decompose_flow",
    "flow_from_paths",
    "strip_improving_cycles",
    "preflow_max_flow",
]
