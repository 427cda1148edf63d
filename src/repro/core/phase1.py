"""Phase-1 providers: initial k disjoint paths for Algorithm 1.

The cancellation phase (phase 2) starts from *some* k disjoint paths and
repairs the delay overshoot. The paper's Algorithm 1 step 1 uses the
LP-rounding algorithm of [9] (Lemma 5); this module offers that plus two
alternatives with different invariants, selectable by name:

``"lp_rounding"`` (default, the paper's choice)
    Solve the delay-budgeted flow LP, round score-monotonically
    (:mod:`repro.lp.basis`). Guarantee: ``delay/D + cost/C_LP <= 2``
    — exactly Lemma 5's ``(alpha, 2 - alpha)`` trade-off. Also certifies
    fractional infeasibility and yields the ``C_LP`` lower bound reused by
    the bicameral rate tests.

``"lagrangian"``
    LARAC lifted to k-flows: binary-search the multiplier ``lambda`` over
    exact min-cost k-flows under the blended weight ``c + lambda*d``.
    Returns the *cheap-but-slow* crossing flow, which satisfies
    ``cost <= C_OPT`` outright (the invariant Lemma 11's induction wants),
    or the feasible optimum when one of the extremes already fits.

``"minsum"``
    Suurballe by cost, ignoring delay entirely: ``cost <= C_OPT``
    trivially; the delay overshoot can be anything. The baseline starting
    point that stresses phase 2 hardest.

All providers raise :class:`InfeasibleInstanceError` when fewer than ``k``
disjoint paths exist, and return a :class:`Phase1Result`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro import obs
from repro.core.instance import KRSPInstance, PathSet
from repro.errors import InfeasibleInstanceError, SolverError
from repro.flow.decompose import decompose_flow, strip_improving_cycles
from repro.flow.mincost import min_cost_k_flow
from repro.graph.digraph import DiGraph
from repro.lp.basis import round_flow_score_monotone
from repro.lp.flow_lp import FlowLpResult, solve_flow_lp
from repro.robustness.budget import checkpoint


@dataclass
class Phase1Result:
    """Initial solution plus the bounds phase 1 learned along the way.

    Attributes
    ----------
    solution:
        The starting k disjoint paths.
    cost_lower_bound:
        Certified lower bound on ``C_OPT`` (exact Fraction; from the flow
        LP or the Lagrangian dual). ``None`` when the provider has none.
    provider:
        Name of the provider that produced this result.
    flow_lp:
        The delay-budgeted flow LP's solution when the provider solved it
        (``lp_rounding``), so the caller's lower-bound step reuses it.
    """

    solution: PathSet
    cost_lower_bound: Fraction | None
    provider: str
    flow_lp: FlowLpResult | None = None


def _paths_from_mask(inst: KRSPInstance, mask: np.ndarray) -> PathSet:
    g = inst.graph
    paths, cycles = decompose_flow(g, np.nonzero(mask)[0], inst.s, inst.t)
    strip_improving_cycles(g, paths, cycles)
    return inst.path_set(paths)


@obs.span("phase1.minsum")
def phase1_minsum(inst: KRSPInstance) -> Phase1Result:
    """Min-cost k disjoint paths, delay-oblivious (cost <= C_OPT)."""
    res = min_cost_k_flow(inst.graph, inst.s, inst.t, inst.k, weight=inst.graph.cost)
    if res is None:
        raise InfeasibleInstanceError(
            f"fewer than k={inst.k} edge-disjoint s-t paths exist"
        )
    sol = _paths_from_mask(inst, res.used)
    # The delay-oblivious minimum is itself a certified C_OPT lower bound.
    return Phase1Result(
        solution=sol, cost_lower_bound=Fraction(sol.cost), provider="minsum"
    )


@obs.span("phase1.lp_rounding")
def phase1_lp_rounding(inst: KRSPInstance) -> Phase1Result:
    """The paper's phase 1 ([9], Lemma 5): LP + score-monotone rounding."""
    g = inst.graph
    lp = solve_flow_lp(g, inst.s, inst.t, inst.k, inst.delay_bound)
    if lp is None:
        raise InfeasibleInstanceError(
            "delay-budgeted flow LP infeasible — no fractional k-flow fits "
            f"the delay bound {inst.delay_bound}"
        )
    cost_norm = max(lp.cost, 0.0)
    mask = round_flow_score_monotone(g, lp.x, cost_norm, float(inst.delay_bound))
    sol = _paths_from_mask(inst, mask)
    # C_LP as an exact-ish Fraction (float from HiGHS; round to 1e-9 grid —
    # used only as a lower-bound estimate, never for feasibility logic).
    lb = Fraction(lp.cost).limit_denominator(10**9)
    return Phase1Result(
        solution=sol, cost_lower_bound=lb, provider="lp_rounding", flow_lp=lp
    )


@obs.span("phase1.lagrangian")
def phase1_lagrangian(inst: KRSPInstance, max_iterations: int = 60) -> Phase1Result:
    """LARAC over k-flows: returns the cheap crossing flow (cost <= C_OPT).

    If the min-cost extreme is already delay-feasible it is optimal and
    returned directly; if even the min-delay extreme violates the budget,
    phase 2 still gets the best available starting point (the min-delay
    flow) — Algorithm 1 will then hunt for bicameral cycles or certify
    infeasibility.
    """
    g, s, t, k, D = inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
    by_cost = min_cost_k_flow(g, s, t, k, weight=g.cost)
    if by_cost is None:
        raise InfeasibleInstanceError(
            f"fewer than k={inst.k} edge-disjoint s-t paths exist"
        )
    sol_c = _paths_from_mask(inst, by_cost.used)
    if sol_c.delay <= D:
        return Phase1Result(
            solution=sol_c, cost_lower_bound=Fraction(sol_c.cost), provider="lagrangian"
        )

    # Min-delay extreme with cost tie-break.
    big = g.total_cost() + 1
    by_delay = min_cost_k_flow(g, s, t, k, weight=g.delay * big + g.cost)
    sol_d = _paths_from_mask(inst, by_delay.used)

    cheap = sol_c  # infeasible delay, cost <= C_OPT
    fast = sol_d  # smallest possible delay
    best_bound = Fraction(sol_c.cost)
    lam = Fraction(0)
    for _ in range(max_iterations):
        # Each step is a full min-cost-flow solve; honor an ambient solve
        # budget between steps (no-op unless a meter is armed).
        checkpoint("phase1.lagrangian")
        if cheap.delay == fast.delay:
            break
        lam = Fraction(fast.cost - cheap.cost, cheap.delay - fast.delay)
        if lam <= 0:
            break
        w = lam.denominator * g.cost + lam.numerator * g.delay
        mid = min_cost_k_flow(g, s, t, k, weight=w)
        if mid is None:  # cannot happen once by_cost succeeded
            raise SolverError("k-flow vanished during Lagrangian search")
        sol_m = _paths_from_mask(inst, mid.used)
        blended = lam.denominator * sol_m.cost + lam.numerator * sol_m.delay
        best_bound = max(best_bound, Fraction(blended, lam.denominator) - lam * D)
        blended_cheap = lam.denominator * cheap.cost + lam.numerator * cheap.delay
        if blended == blended_cheap:
            break  # multiplier converged
        if sol_m.delay <= D:
            fast = sol_m
        else:
            cheap = sol_m

    # Return the cheap crossing flow: its `cost <= C_OPT` invariant is what
    # Lemma 11's induction leans on; phase 2 repairs the delay overshoot.
    # Both `best_bound` (Lagrangian dual values) and `cheap.cost` (a
    # delay-infeasible flow's cost never exceeds the feasible optimum's)
    # lower-bound C_OPT; keep the tighter.
    return Phase1Result(
        solution=cheap,
        cost_lower_bound=max(best_bound, Fraction(cheap.cost)),
        provider="lagrangian",
    )


PROVIDERS = {
    "lp_rounding": phase1_lp_rounding,
    "lagrangian": phase1_lagrangian,
    "minsum": phase1_minsum,
}
"""Name registry used by :func:`repro.core.krsp.solve_krsp`."""
