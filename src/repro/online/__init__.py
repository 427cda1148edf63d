"""Online kRSP: warm-start re-solving under instance churn.

Entry points::

    from repro.online import start_online, resolve, InstanceDelta, EdgeReweight

    state = start_online(g, s, t, k, D)
    sol = resolve(state, InstanceDelta(ops=(EdgeReweight(3, cost=7, delay=2),)))

:func:`resolve` patches the instance graph in place and cancels only the newly
exposed delay-violating cycles; deltas that break the warm-start
preconditions fall back to a cold :func:`repro.core.solve_krsp` with a
counted ``online.fallback.<reason>``. Every ``status == "ok"`` result —
warm or cold — is held to the registered bifactor ``(1, 2)`` guarantee.
See docs/ONLINE.md for the delta wire format, precondition and fallback
taxonomy, and counter reference.
"""

from repro.online.deltas import (
    DELTA_SCHEMA,
    DeltaOp,
    DemandMove,
    EdgeAddition,
    EdgeRemoval,
    EdgeReweight,
    InstanceDelta,
    apply_delta,
    delta_from_dict,
    delta_to_dict,
    graphs_equivalent,
    invert_delta,
    load_delta,
    save_delta,
)
from repro.online.engine import (
    FALLBACK_BUDGET_TIGHTENED,
    FALLBACK_DEMAND_MOVED,
    FALLBACK_GUARANTEE,
    FALLBACK_NO_PRIOR,
    FALLBACK_REASONS,
    FALLBACK_REMOVED_SOLUTION_EDGE,
    FALLBACK_WARM_INFEASIBLE,
    FALLBACK_WARM_STALLED,
    STATE_SCHEMA,
    WARM_PROVIDER,
    OnlineState,
    ResolveInfo,
    load_state,
    resolve,
    save_state,
    start_online,
    state_from_dict,
    state_to_dict,
)

__all__ = [
    "DELTA_SCHEMA",
    "STATE_SCHEMA",
    "WARM_PROVIDER",
    "DeltaOp",
    "DemandMove",
    "EdgeAddition",
    "EdgeRemoval",
    "EdgeReweight",
    "InstanceDelta",
    "OnlineState",
    "ResolveInfo",
    "FALLBACK_BUDGET_TIGHTENED",
    "FALLBACK_DEMAND_MOVED",
    "FALLBACK_GUARANTEE",
    "FALLBACK_NO_PRIOR",
    "FALLBACK_REASONS",
    "FALLBACK_REMOVED_SOLUTION_EDGE",
    "FALLBACK_WARM_INFEASIBLE",
    "FALLBACK_WARM_STALLED",
    "apply_delta",
    "delta_from_dict",
    "delta_to_dict",
    "graphs_equivalent",
    "invert_delta",
    "load_delta",
    "load_state",
    "resolve",
    "save_delta",
    "save_state",
    "start_online",
    "state_from_dict",
    "state_to_dict",
]
