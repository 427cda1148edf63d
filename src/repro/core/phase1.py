"""Phase-1 providers: initial k disjoint paths for Algorithm 1.

The cancellation phase (phase 2) starts from *some* k disjoint paths and
repairs the delay overshoot. The paper's Algorithm 1 step 1 uses the
LP-rounding algorithm of [9] (Lemma 5); this module offers that guarantee
two ways, plus two alternatives with different invariants, selectable by
name:

``"lagrangian_lemma5"`` (default)
    Lemma 5 from integer flows: the flow LP has one side constraint over
    an integral polytope, so LARAC over exact min-cost k-flows reaches its
    optimum. The two flows at the optimal multiplier bracket ``D``, and
    the one with the smaller ``delay/D + cost/C_LP`` scores at most 2.
    Its bound is the exact dual value, equal to ``C_LP``; no LP is solved.

``"lp_rounding"`` (the paper's reference)
    Solve the delay-budgeted flow LP in HiGHS, round score-monotonically
    (:mod:`repro.lp.basis`). Guarantee: ``delay/D + cost/C_LP <= 2``
    — exactly Lemma 5's ``(alpha, 2 - alpha)`` trade-off. Also certifies
    fractional infeasibility and yields the (float) ``C_LP`` lower bound,
    which the solver replaces with :func:`flow_lp_bound`'s exact one.

``"lagrangian"``
    The same LARAC walk, returning the *cheap-but-slow* crossing flow,
    which satisfies ``cost <= C_OPT`` outright (the invariant Lemma 11's
    induction wants), or the feasible optimum when the min-cost flow
    already fits.

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
from repro.flow.mincost import lexicographic_weights, min_cost_k_flow
from repro.lp.basis import round_flow_score_monotone
from repro.lp.flow_lp import solve_flow_lp
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
    bound_is_lp_optimum:
        ``cost_lower_bound`` is exactly the flow-LP optimum (a min-cost
        flow that meets ``D``, or a converged Lagrangian dual), so the
        caller needs no :func:`flow_lp_bound` call for its lower bound.
    multiplier:
        The Lagrangian multiplier the Lemma 5 walk ended on (``0`` when
        the min-cost flow meets ``D``), as :func:`flow_lp_bound` returns
        it; ``None`` from providers without that walk.
    """

    solution: PathSet
    cost_lower_bound: Fraction | None
    provider: str
    bound_is_lp_optimum: bool = False
    multiplier: Fraction | None = None


def _paths_from_mask(inst: KRSPInstance, mask: np.ndarray) -> PathSet:
    g = inst.graph
    paths, cycles = decompose_flow(g, np.nonzero(mask)[0], inst.s, inst.t)
    strip_improving_cycles(g, paths, cycles)
    return inst.path_set(paths)


@obs.span("phase1.minsum")
def phase1_minsum(inst: KRSPInstance, fastest: KFlow | None = None) -> Phase1Result:
    """Min-cost k disjoint paths, delay-oblivious (cost <= C_OPT)."""
    cheap = _cheapest(inst, inst.graph.cost)
    # The delay-oblivious minimum is itself a certified C_OPT lower bound.
    return Phase1Result(
        solution=cheap.solution, cost_lower_bound=Fraction(cheap.cost), provider="minsum"
    )


@obs.span("phase1.lp_rounding")
def phase1_lp_rounding(inst: KRSPInstance, fastest: KFlow | None = None) -> Phase1Result:
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
    # an estimate only: the solver takes its bound from flow_lp_bound).
    lb = Fraction(lp.cost).limit_denominator(10**9)
    return Phase1Result(solution=sol, cost_lower_bound=lb, provider="lp_rounding")


#: Multiplier steps a Lagrangian provider takes before giving up on
#: reaching the dual optimum (LARAC usually needs fewer than ten).
LARAC_MAX_STEPS = 60


@dataclass
class KFlow:
    """An integral k-flow: its edge mask, exact totals and, once built, paths."""

    used: np.ndarray
    cost: int
    delay: int
    solution: PathSet | None = None


def _flow(used: np.ndarray, costs: list[int], delays: list[int]) -> KFlow:
    eids = np.flatnonzero(used).tolist()
    return KFlow(used, sum(costs[e] for e in eids), sum(delays[e] for e in eids))


def _solution(inst: KRSPInstance, f: KFlow) -> PathSet:
    return f.solution if f.solution is not None else _paths_from_mask(inst, f.used)


def _cheapest(inst: KRSPInstance, weight) -> KFlow:
    """The k-flow minimizing ``weight`` (a cost order), decomposed into paths."""
    res = min_cost_k_flow(inst.graph, inst.s, inst.t, inst.k, weight=weight)
    if res is None:
        raise InfeasibleInstanceError(
            f"fewer than k={inst.k} edge-disjoint s-t paths exist"
        )
    sol = _paths_from_mask(inst, res.used)
    return KFlow(res.used, sol.cost, sol.delay, sol)


def _lex_flow(
    inst: KRSPInstance, primary, secondary
) -> tuple[np.ndarray, int, int]:
    """The k-flow minimizing ``primary``, ties broken by least ``secondary``:
    its edge mask and both exact totals (no path decomposition)."""
    weight, big = lexicographic_weights(primary, secondary)
    res = min_cost_k_flow(inst.graph, inst.s, inst.t, inst.k, weight=weight)
    if res is None:
        raise InfeasibleInstanceError(
            f"fewer than k={inst.k} edge-disjoint s-t paths exist"
        )
    return (res.used, *divmod(res.weight, big))


def fastest_flow(inst: KRSPInstance) -> KFlow:
    """The min-delay k-flow, cost tie-broken: one lexicographic
    ``(delay, cost)`` flow.

    Its delay is the instance's minimum (the feasibility gate of
    :func:`repro.core.krsp.solve_krsp`), among min-delay flows it is the
    cheapest (the solver's cost cap), and it is the Lagrangian walk's far
    endpoint, so a caller that has it passes it to the provider.
    """
    used, delay, cost = _lex_flow(inst, inst.graph.delay, inst.graph.cost)
    return KFlow(used, cost, delay)


def _cheapest_flow(inst: KRSPInstance) -> KFlow:
    """The min-cost k-flow of least delay: the Lemma 5 walk's near endpoint,
    decomposed only if it becomes the start."""
    used, cost, delay = _lex_flow(inst, inst.graph.cost, inst.graph.delay)
    return KFlow(used, cost, delay)


def _larac(
    inst: KRSPInstance,
    cheap: KFlow,
    fast: KFlow,
    costs: list[int],
    delays: list[int],
) -> tuple[KFlow, KFlow, Fraction, bool]:
    """LARAC over exact min-cost k-flows, from ``cheap`` (a min-cost flow,
    delay above ``D``) and ``fast`` (the min-delay flow).

    Each step takes ``lambda`` as the slope between the two endpoints and
    solves the k-flow minimizing the integral blend ``den*c + num*d``
    (built as Python ints, so no size of cost or delay can overflow). A
    flow strictly below both endpoints replaces the one on its side of
    ``D``; a flow that only ties them proves ``lambda`` optimal. The walk
    gives up after :data:`LARAC_MAX_STEPS` flows.

    Returns ``(cheap, fast, bound, converged)``. ``bound`` is the best
    Lagrangian dual value ``L(lambda) = min_F c(F) + lambda (d(F) - D)``
    seen (``L(0)`` is ``cheap.cost``), a certified lower bound on the flow
    LP and hence on ``C_OPT``. ``converged`` says both endpoints are
    optimal at the final ``lambda*``. With ``fast.delay <= D <
    cheap.delay`` the mixture of the two that meets ``D`` exactly is then
    a flow-LP solution of cost ``L(lambda*)``, so ``bound`` *equals* the
    flow-LP optimum (one side constraint over an integral polytope).
    """
    g, s, t, k, D = inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
    bound = Fraction(cheap.cost)
    converged = False
    steps = 0
    try:
        for _ in range(LARAC_MAX_STEPS):
            # Each step is a full min-cost-flow solve; honor an ambient
            # solve budget between steps (no-op unless a meter is armed).
            checkpoint("phase1.larac")
            if cheap.delay == fast.delay:
                break
            lam = Fraction(fast.cost - cheap.cost, cheap.delay - fast.delay)
            if lam <= 0:
                # Equal costs: both endpoints are min-cost flows, optimal
                # at lambda = 0 (a flow below the envelope never makes
                # the slope negative).
                converged = True
                break
            num, den = lam.numerator, lam.denominator
            res = min_cost_k_flow(
                g, s, t, k, weight=[den * c + num * d for c, d in zip(costs, delays)]
            )
            steps += 1
            if res is None:  # cannot happen once the endpoints exist
                raise SolverError("k-flow vanished during Lagrangian search")
            bound = max(bound, Fraction(res.weight, den) - lam * D)
            if res.weight == den * cheap.cost + num * cheap.delay:
                converged = True
                break
            mid = _flow(res.used, costs, delays)
            if mid.delay <= D:
                fast = mid
            else:
                cheap = mid
    finally:
        obs.add("phase1.larac.steps", steps)
    return cheap, fast, bound, converged


@obs.span("phase1.lagrangian")
def phase1_lagrangian(
    inst: KRSPInstance, fastest: KFlow | None = None
) -> Phase1Result:
    """LARAC over k-flows: returns the cheap crossing flow (cost <= C_OPT).

    If the min-cost extreme is already delay-feasible it is optimal and
    returned directly. If even the min-delay extreme violates the budget
    (an infeasible instance, which :func:`repro.core.krsp.solve_krsp`
    rejects before phase 1), the walk still returns its last crossing
    flow and phase 2 certifies infeasibility. ``fastest`` is the
    instance's :func:`fastest_flow` when the caller already solved it.
    """
    g, D = inst.graph, inst.delay_bound
    cheap = _cheapest(inst, g.cost)
    if cheap.delay <= D:
        return Phase1Result(
            solution=cheap.solution,
            cost_lower_bound=Fraction(cheap.cost),
            provider="lagrangian",
            bound_is_lp_optimum=True,
        )
    costs, delays = g.cost.tolist(), g.delay.tolist()
    cheap, fast, bound, converged = _larac(
        inst, cheap, fastest or fastest_flow(inst), costs, delays
    )
    # Return the cheap crossing flow: its `cost <= C_OPT` invariant is what
    # Lemma 11's induction leans on; phase 2 repairs the delay overshoot.
    # Both `bound` (Lagrangian dual values) and `cheap.cost` (a
    # delay-infeasible flow's cost never exceeds the feasible optimum's)
    # lower-bound C_OPT; keep the tighter.
    return Phase1Result(
        solution=_solution(inst, cheap),
        cost_lower_bound=max(bound, Fraction(cheap.cost)),
        provider="lagrangian",
        bound_is_lp_optimum=converged and fast.delay <= D,
    )


def lemma5_score(cost: int, delay: int, cost_norm: Fraction, delay_norm: int) -> Fraction:
    """Lemma 5's score ``delay/D + cost/C_LP`` as an exact Fraction.

    A zero normalizer drops its criterion out of the score, as in
    :func:`repro.lp.basis.round_flow_score_monotone`.
    """
    score = Fraction(0)
    if delay_norm > 0:
        score += Fraction(delay, delay_norm)
    if cost_norm > 0:
        score += cost / cost_norm
    return score


@obs.span("phase1.lagrangian_lemma5")
def phase1_lagrangian_lemma5(
    inst: KRSPInstance, fastest: KFlow | None = None
) -> Phase1Result:
    """Lemma 5's start and the exact flow-LP bound, from integer flows only.

    The cheap extreme is the min-cost k-flow of least delay (lexicographic
    ``(cost, delay)`` weights). If it meets ``D`` it is returned as is:
    its cost is the flow-LP optimum. Otherwise LARAC runs to the optimal
    multiplier, where the two endpoint flows bracket ``D`` and a mixture
    of them is an optimal flow-LP solution. The score ``d/D + c/C_LP`` is
    linear and the mixture scores exactly 2, so the better endpoint
    scores at most 2 — Lemma 5's ``(alpha, 2 - alpha)`` guarantee, checked
    here as a Fraction. The bound is the exact dual value
    ``L(lambda*) = C_LP``. ``fastest`` is the instance's
    :func:`fastest_flow` when the caller already solved it.
    """
    D = inst.delay_bound
    # A zero deadline must trip before the first flow, as it does before
    # the LP in lp_rounding.
    checkpoint("phase1.lagrangian_lemma5")
    cheap, fast, bound, converged = _cold_walk(inst, fastest)
    if fast is None:
        return Phase1Result(
            solution=_solution(inst, cheap),
            cost_lower_bound=bound,
            provider="lagrangian_lemma5",
            bound_is_lp_optimum=True,
            multiplier=Fraction(0),
        )

    # Ties go to the delay-feasible endpoint, which needs no cancellation.
    start = min(
        (fast, cheap), key=lambda f: lemma5_score(f.cost, f.delay, bound, D)
    )
    if converged:
        score = lemma5_score(start.cost, start.delay, bound, D)
        if score > 2:
            raise SolverError(f"Lemma 5 endpoint scores {score} > 2")
    return Phase1Result(
        solution=_solution(inst, start),
        cost_lower_bound=bound,
        provider="lagrangian_lemma5",
        bound_is_lp_optimum=converged,
        multiplier=_slope(cheap, fast),
    )


def _bracket(
    inst: KRSPInstance, cheap: KFlow, fast: KFlow
) -> tuple[KFlow, KFlow, Fraction, bool]:
    """:func:`_larac` from ``cheap`` (delay above ``D``) and ``fast`` (the
    min-delay flow or, warm, a flow optimal at a multiplier above
    ``lambda*``), once ``fast`` is shown to meet ``D``. A walk cut off by
    :data:`LARAC_MAX_STEPS` counts ``phase1.larac.unconverged``."""
    if fast.delay > inst.delay_bound:
        raise InfeasibleInstanceError(
            f"minimum achievable total delay {fast.delay} exceeds the "
            f"budget {inst.delay_bound} — no fractional k-flow fits it either"
        )
    g = inst.graph
    cheap, fast, bound, converged = _larac(
        inst, cheap, fast, g.cost.tolist(), g.delay.tolist()
    )
    if not converged:
        obs.inc("phase1.larac.unconverged")
    return cheap, fast, bound, converged


def _cold_walk(
    inst: KRSPInstance, fast: KFlow | None = None
) -> tuple[KFlow, KFlow | None, Fraction, bool]:
    """The Lemma 5 walk from the least-delay min-cost flow to ``fast``, as
    :func:`_bracket` returns it. When that flow meets ``D`` its cost is
    the flow-LP optimum and the walk never starts: the returned ``fast``
    is ``None``. ``fast`` defaults to the instance's :func:`fastest_flow`.
    """
    cheap = _cheapest_flow(inst)
    if cheap.delay <= inst.delay_bound:
        return cheap, None, Fraction(cheap.cost), True
    return _bracket(inst, cheap, fast or fastest_flow(inst))


def flow_lp_bound(
    inst: KRSPInstance,
    multiplier: Fraction | None = None,
    fastest: KFlow | None = None,
) -> tuple[Fraction, Fraction]:
    """Exact flow-LP optimum and an optimal multiplier, warm-started.

    Returns ``(C_LP, lambda*)``, both exact Fractions. With no hint (or
    ``0``) this is the walk of :func:`phase1_lagrangian_lemma5`. A hint
    ``lambda = p/q > 0`` is tested first with two lexicographic min-cost
    k-flows under the blend ``q*c + p*d``: the least-delay and the
    least-cost flow of the face of blend-minimal flows (on that face
    least cost is most delay). The subgradients of the dual ``L`` at
    ``lambda`` run from the first's delay minus ``D`` to the second's, so
    when the two delays bracket ``D``, ``lambda`` is still optimal and
    ``L(lambda) = C_LP`` exactly. Otherwise the walk resumes from the
    flow on the near side of ``D`` and the missing endpoint: the
    min-delay flow when ``lambda`` is too small, the least-delay min-cost
    flow when it is too large. Any hint gives the same bound; only the
    number of flows differs. ``fastest`` is the instance's
    :func:`fastest_flow` when the caller already solved it; a walk that
    needs the min-delay flow takes it instead of solving it again.

    Only edge masks and exact totals are used: no flow is decomposed into
    paths. Raises :class:`InfeasibleInstanceError` when fewer than ``k``
    edge-disjoint paths exist or the min-delay flow misses ``D``, the
    verdict of an infeasible flow LP. A walk cut off by
    :data:`LARAC_MAX_STEPS` returns its best dual value, still a certified
    lower bound, and counts ``phase1.larac.unconverged``.
    """
    D = inst.delay_bound
    checkpoint("phase1.flow_lp_bound")
    if multiplier:
        costs, delays = inst.graph.cost.tolist(), inst.graph.delay.tolist()
        p, q = multiplier.numerator, multiplier.denominator
        blend = [q * c + p * d for c, d in zip(costs, delays)]
        used, w, delay = _lex_flow(inst, blend, delays)
        low = KFlow(used, (w - p * delay) // q, delay)
        if low.delay > D:
            # lambda < lambda*: the whole face overshoots D.
            walk = _bracket(inst, low, fastest or fastest_flow(inst))
        else:
            used, w, cost = _lex_flow(inst, blend, costs)
            high = KFlow(used, cost, (w - q * cost) // p)
            if high.delay >= D:
                return Fraction(w - p * D, q), multiplier
            # lambda > lambda*: the whole face undershoots D.
            walk = _cold_walk(inst, high)
    else:
        walk = _cold_walk(inst, fastest)
    cheap, fast, bound, _ = walk
    return bound, Fraction(0) if fast is None else _slope(cheap, fast)


def _slope(cheap: KFlow, fast: KFlow) -> Fraction:
    """The multiplier at which the walk's two endpoints tie."""
    return Fraction(fast.cost - cheap.cost, cheap.delay - fast.delay)


#: Provider every solve entry point uses unless told otherwise.
DEFAULT_PROVIDER = "lagrangian_lemma5"

PROVIDERS = {
    "lagrangian_lemma5": phase1_lagrangian_lemma5,
    "lp_rounding": phase1_lp_rounding,
    "lagrangian": phase1_lagrangian,
    "minsum": phase1_minsum,
}
"""Name registry used by :func:`repro.core.krsp.solve_krsp`.

Every provider is called as ``provider(inst, fastest)``. ``fastest`` is the
instance's :func:`fastest_flow` when the caller already solved it (or
``None``); the Lagrangian providers take it as their far endpoint instead
of solving it again, the others have no use for it.
"""
