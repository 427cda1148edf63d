"""LP substrate: the HiGHS engine, delay-budgeted flow LP,
score-monotone rounding, exact MILP."""

from repro.lp.engine import (
    LPEngine,
    LPResult,
    get_engine,
)
from repro.lp.flow_lp import FlowLpResult, incidence_matrix, solve_flow_lp
from repro.lp.basis import round_flow_score_monotone
from repro.lp.milp import ExactSolution, solve_krsp_milp

__all__ = [
    "LPEngine",
    "LPResult",
    "get_engine",
    "FlowLpResult",
    "incidence_matrix",
    "solve_flow_lp",
    "round_flow_score_monotone",
    "ExactSolution",
    "solve_krsp_milp",
]
