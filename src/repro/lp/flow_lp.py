"""The delay-budgeted fractional k-flow LP (phase-1 relaxation).

    minimize    sum_e c(e) x_e
    subject to  sum_{e out of v} x_e - sum_{e into v} x_e = b_v   for all v
                sum_e d(e) x_e <= D
                0 <= x_e <= 1

with ``b_s = k``, ``b_t = -k``, ``b_v = 0`` otherwise. Its optimum is a lower
bound on the kRSP optimum ``C_OPT`` (every integral solution is feasible for
it), which the evaluation harness uses to normalize costs when the MILP
oracle is too slow, and whose basic optimal solutions feed the LP-rounding
phase-1 provider (Lemma 5 via [9]).

Solved with scipy's HiGHS dual simplex so the returned point is a vertex of
the polytope (the rounding layer exploits the resulting sparsity of the
fractional support but does not depend on it for correctness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.errors import BudgetExhaustedError, SolverError
from repro.graph.digraph import DiGraph
from repro.robustness.budget import checkpoint, current_meter


def lp_time_limit_options() -> tuple[dict, bool]:
    """HiGHS options capping one LP solve at the ambient budget's headroom.

    An LP solve is the largest indivisible unit of work in the pipeline;
    cooperative checkpoints can refuse to *start* one, but without this cap
    a single big solve started just under the deadline would overshoot it
    by its full runtime. Returns ``(options, capped)`` — ``capped`` tells
    the caller whether a HiGHS status 1 means "budget deadline hit" (raise
    :class:`~repro.errors.BudgetExhaustedError`) rather than a genuine
    iteration-limit failure. The small floor keeps a nearly-spent budget
    from turning every solve into an instant, useless timeout.
    """
    meter = current_meter()
    remaining = meter.remaining_seconds() if meter is not None else None
    if remaining is None:
        return {}, False
    return {"time_limit": max(remaining, 0.05)}, True


@dataclass
class FlowLpResult:
    """Solution of the delay-budgeted flow LP.

    Attributes
    ----------
    x:
        Optimal fractional edge flows, shape ``(m,)``.
    cost:
        Optimal objective value (float; exact up to solver tolerance).
    delay:
        Total fractional delay ``d . x`` at the optimum.
    dual_delay:
        Dual multiplier of the delay budget row (>= 0; the marginal cost of
        tightening the budget). ``None`` when the solver exposes no duals.
    """

    x: np.ndarray
    cost: float
    delay: float
    dual_delay: float | None


def incidence_matrix(g: DiGraph) -> sp.csr_matrix:
    """Sparse vertex-edge incidence matrix: +1 at tails, -1 at heads.

    Row ``v`` dotted with a flow vector gives v's net outflow.
    """
    rows = np.concatenate([g.tail, g.head])
    cols = np.concatenate([np.arange(g.m), np.arange(g.m)])
    vals = np.concatenate([np.ones(g.m), -np.ones(g.m)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(g.n, g.m))


def solve_flow_lp(
    g: DiGraph,
    s: int,
    t: int,
    k: int,
    delay_bound: int,
) -> FlowLpResult | None:
    """Solve the relaxation; ``None`` when it is infeasible.

    Infeasibility of the relaxation certifies infeasibility of kRSP itself
    (the relaxation only removes constraints).
    """
    if g.m == 0:
        return None
    # Cooperative budget gate: an LP solve is the largest indivisible unit
    # of work in the pipeline, so refuse to start one on a spent budget
    # (no-op unless a meter is armed; see repro.robustness.budget).
    checkpoint("lp.flow_lp")
    from repro.lp.engine import get_engine  # late: engine imports this module

    options, deadline_capped = lp_time_limit_options()
    res = get_engine().solve_flow(g, s, t, k, delay_bound, options=options)
    obs.inc("lp.flow_lp.solves")
    if res.status == 2:  # infeasible
        obs.inc("lp.flow_lp.infeasible")
        return None
    if res.status == 1 and deadline_capped:
        raise BudgetExhaustedError("deadline", "lp.flow_lp")
    if not res.success:
        raise SolverError(f"flow LP failed: status={res.status} {res.message}")
    x = np.clip(res.x, 0.0, 1.0)
    dual = None
    if res.ineq_marginals is not None and len(res.ineq_marginals):
        # HiGHS reports <=-row marginals as nonpositive; negate to the
        # conventional shadow price.
        dual = float(-res.ineq_marginals[0])
    return FlowLpResult(
        x=x,
        cost=float(res.fun),
        delay=float(np.dot(g.delay, x)),
        dual_delay=dual,
    )
