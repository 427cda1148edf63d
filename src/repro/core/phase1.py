"""Phase 1 of Algorithm 1: Lemma 5's walk and the start a provider picks.

Algorithm 1 step 1 takes two things from Lemma 5: ``k`` disjoint paths to
start the cancellation phase from, and the flow-LP optimum ``C_LP``, the
certified lower bound on ``C_OPT``. Both come from one walk,
:func:`lemma5_walk`. The flow LP has one side constraint over an integral
polytope, so LARAC over exact min-cost k-flows reaches its optimum: the
two flows at the optimal multiplier bracket ``D``, a mixture of them is an
optimal flow-LP solution, and the exact dual value there equals ``C_LP``.
No LP is solved. :func:`feasibility_gate` solves the walk's two endpoints
and rejects an instance no k-flow can serve.

:func:`repro.core.krsp.solve_krsp` runs the walk once per solve and hands
it to a provider, which only picks the start. Providers by name:

``"lagrangian_lemma5"`` (default)
    The walk endpoint with the smaller ``delay/D + cost/C_LP``. The
    mixture that meets ``D`` scores exactly 2 and the score is linear, so
    the better endpoint scores at most 2 — Lemma 5's ``(alpha, 2 -
    alpha)`` guarantee, checked here as a Fraction.

``"lp_rounding"`` (the paper's reference)
    Solve the delay-budgeted flow LP in HiGHS, round score-monotonically
    (:mod:`repro.lp.basis`). Guarantee: ``delay/D + cost/C_LP <= 2``. Its
    float ``C_LP`` normalises the rounding only; the solve's bound is the
    walk's.

``"lagrangian"``
    The walk's cheap endpoint: the cheap-but-slow crossing flow, which
    satisfies ``cost <= C_OPT`` outright (the invariant Lemma 11's
    induction wants), or the feasible optimum when the min-cost flow
    already fits.

``"minsum"``
    Suurballe by cost, ignoring delay entirely: ``cost <= C_OPT``
    trivially; the delay overshoot can be anything. The baseline starting
    point that stresses phase 2 hardest.

Every provider is called as ``provider(inst, walk=None)`` and returns a
:class:`Phase1Result`; called without a walk, the Lagrangian providers
run :func:`lemma5_walk` themselves. All providers raise
:class:`InfeasibleInstanceError` when fewer than ``k`` disjoint paths
exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro import obs
from repro.core.instance import KRSPInstance, PathSet
from repro.errors import InfeasibleInstanceError, SolverError
from repro.flow.decompose import decompose_flow, strip_improving_cycles
from repro.flow.mincost import (
    MinCostFlowResult,
    lexicographic_weights,
    min_cost_k_flow,
)
from repro.lp.basis import round_flow_score_monotone
from repro.lp.flow_lp import solve_flow_lp
from repro.robustness.budget import checkpoint


@dataclass
class Phase1Result:
    """A provider's start and the lower bound on ``C_OPT`` it knows.

    Attributes
    ----------
    solution:
        The starting k disjoint paths.
    cost_lower_bound:
        The walk's exact bound (the Lagrangian providers), the min-cost
        flow's cost (``minsum``) or HiGHS's ``C_LP`` as a Fraction
        (``lp_rounding``, an estimate). The solver reports the walk's.
    provider:
        Name of the provider that produced this result.
    """

    solution: PathSet
    cost_lower_bound: Fraction | None
    provider: str


def _paths_from_mask(inst: KRSPInstance, mask: np.ndarray) -> PathSet:
    g = inst.graph
    paths, cycles = decompose_flow(g, np.nonzero(mask)[0], inst.s, inst.t)
    strip_improving_cycles(g, paths, cycles)
    return inst.path_set(paths)


@obs.span("phase1.minsum")
def phase1_minsum(inst: KRSPInstance, walk: Walk | None = None) -> Phase1Result:
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
def phase1_lp_rounding(
    inst: KRSPInstance, walk: Walk | None = None
) -> Phase1Result:
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
    # an estimate only: the solver takes its bound from the walk).
    lb = Fraction(lp.cost).limit_denominator(10**9)
    return Phase1Result(solution=sol, cost_lower_bound=lb, provider="lp_rounding")


#: Multiplier steps a Lagrangian walk takes before giving up on reaching
#: the dual optimum (LARAC usually needs fewer than ten).
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


def _lex_flow(
    inst: KRSPInstance, primary, secondary, headroom: int = 1
) -> tuple[MinCostFlowResult, int, int, int]:
    """The k-flow minimizing ``primary``, ties broken by least ``secondary``
    (at scale ``headroom * sum(secondary) + 1``): the flow, both exact
    totals and the scale (no path decomposition)."""
    weight, big = lexicographic_weights(primary, secondary, headroom)
    res = min_cost_k_flow(inst.graph, inst.s, inst.t, inst.k, weight=weight)
    if res is None:
        raise InfeasibleInstanceError(
            f"fewer than k={inst.k} edge-disjoint s-t paths exist"
        )
    return (res, *divmod(res.weight, big), big)


def fastest_flow(inst: KRSPInstance) -> KFlow:
    """The min-delay k-flow, cost tie-broken: one lexicographic
    ``(delay, cost)`` flow.

    It is solved only when :func:`cheapest_flow` misses ``D``, as the far
    endpoint of :func:`lemma5_walk`. Its delay is the instance's minimum,
    so when it misses ``D`` too no k-flow, integral or fractional, fits
    and it raises :class:`InfeasibleInstanceError`. Among min-delay flows
    it is the cheapest (the solver's cost cap).
    """
    res, delay, cost, _ = _lex_flow(inst, inst.graph.delay, inst.graph.cost)
    if delay > inst.delay_bound:
        raise InfeasibleInstanceError(
            f"minimum achievable total delay {delay} "
            f"exceeds the budget {inst.delay_bound}"
        )
    return KFlow(res.used, cost, delay)


def cheapest_flow(inst: KRSPInstance) -> KFlow:
    """The min-cost k-flow of least delay: one lexicographic ``(cost,
    delay)`` flow, decomposed only if it becomes the start.

    Solving it rejects fewer than ``k`` paths. When it meets ``D`` it is
    optimal; otherwise it is :func:`lemma5_walk`'s near endpoint.
    """
    res, cost, delay, _ = _lex_flow(inst, inst.graph.cost, inst.graph.delay)
    return KFlow(res.used, cost, delay)


def feasibility_gate(inst: KRSPInstance) -> tuple[KFlow, KFlow | None]:
    """Exact feasibility: ``(cheapest, fastest)``.

    ``cheapest`` is :func:`cheapest_flow`, which raises
    :class:`InfeasibleInstanceError` when fewer than ``k`` edge-disjoint
    paths exist. When it meets ``D`` it is optimal and ``fastest`` is
    ``None``. Otherwise ``fastest`` is :func:`fastest_flow`, which raises
    when no solution meets ``D``. The delay-feasible flow the gate holds,
    ``fastest`` when solved and else ``cheapest``, costs at least
    ``C_OPT`` (exactly ``C_OPT`` when it is ``cheapest``). Both are
    :func:`lemma5_walk`'s endpoints.
    """
    cheapest = cheapest_flow(inst)
    if cheapest.delay <= inst.delay_bound:
        return cheapest, None
    return cheapest, fastest_flow(inst)


@dataclass
class Walk:
    """Lemma 5's walk over one instance, as :func:`lemma5_walk` ends it.

    Attributes
    ----------
    cheap:
        The near endpoint: a flow of delay above ``D``, optimal at
        :attr:`multiplier`; or the least-delay min-cost flow when it meets
        ``D`` and the walk never started.
    fast:
        The far endpoint, of delay at most ``D``; ``None`` when the walk
        never started.
    bound:
        The best Lagrangian dual value seen, a certified lower bound on
        ``C_OPT``; exactly ``C_LP`` when ``converged``.
    converged:
        Both endpoints are optimal at :attr:`multiplier`. ``False`` only
        for a walk :data:`LARAC_MAX_STEPS` cut off.
    """

    cheap: KFlow
    fast: KFlow | None
    bound: Fraction
    converged: bool

    @property
    def multiplier(self) -> Fraction:
        """The multiplier at which the two endpoints tie (``0`` when the
        walk never started)."""
        if self.fast is None:
            return Fraction(0)
        return Fraction(
            self.fast.cost - self.cheap.cost, self.cheap.delay - self.fast.delay
        )


def lemma5_walk(
    inst: KRSPInstance, cheap: KFlow | None = None, fast: KFlow | None = None
) -> Walk:
    """LARAC over exact min-cost k-flows, from ``cheap`` to ``fast``.

    ``cheap`` defaults to :func:`cheapest_flow`; when it meets ``D`` its
    cost is the flow-LP optimum and the walk never starts. Otherwise
    ``fast`` (default :func:`fastest_flow`, which raises
    :class:`InfeasibleInstanceError` when it misses ``D``) is a flow of
    delay at most ``D`` optimal at a multiplier at or above ``lambda*``.
    A caller that solved either flow passes it, so no flow is solved
    twice. A budget checkpoint comes first, so a zero deadline trips
    before any flow.

    Each step takes ``lambda`` as the slope between the two endpoints and
    solves the k-flow minimizing the integral blend ``den*c + num*d``
    (built as Python ints, so no size of cost or delay can overflow). A
    flow strictly below both endpoints replaces the one on its side of
    ``D``; a flow that only ties them proves ``lambda`` optimal. The walk
    gives up after :data:`LARAC_MAX_STEPS` flows and counts
    ``phase1.larac.unconverged``.

    The bound is the best Lagrangian dual value ``L(lambda) = min_F c(F)
    + lambda (d(F) - D)`` seen (``L(0)`` is ``cheap.cost``), a certified
    lower bound on the flow LP and hence on ``C_OPT``. Once both endpoints
    are optimal at ``lambda*``, the mixture of the two that meets ``D``
    exactly is a flow-LP solution of cost ``L(lambda*)``, so the bound
    *equals* the flow-LP optimum (one side constraint over an integral
    polytope).
    """
    checkpoint("phase1.lemma5_walk")
    g, s, t, k, D = inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
    cheap = cheap or cheapest_flow(inst)
    if cheap.delay <= D:
        return Walk(cheap, None, Fraction(cheap.cost), True)
    fast = fast or fastest_flow(inst)
    costs, delays = g.cost.tolist(), g.delay.tolist()
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
    if not converged:
        obs.inc("phase1.larac.unconverged")
    return Walk(cheap, fast, bound, converged)


@obs.span("phase1.lagrangian")
def phase1_lagrangian(
    inst: KRSPInstance, walk: Walk | None = None
) -> Phase1Result:
    """The walk's cheap endpoint (cost <= C_OPT).

    It is the min-cost flow when that meets ``D``, and otherwise the cheap
    crossing flow: its ``cost <= C_OPT`` invariant is what Lemma 11's
    induction leans on, and phase 2 repairs the delay overshoot. Without
    ``walk`` it runs :func:`lemma5_walk`.
    """
    walk = walk or lemma5_walk(inst)
    return Phase1Result(
        solution=_solution(inst, walk.cheap),
        cost_lower_bound=walk.bound,
        provider="lagrangian",
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
    inst: KRSPInstance, walk: Walk | None = None
) -> Phase1Result:
    """Lemma 5's start: the walk endpoint of least ``d/D + c/C_LP``.

    A walk that never started has one endpoint, the min-cost flow that
    meets ``D``. Otherwise the endpoints bracket ``D``; once the walk has
    converged the mixture that meets ``D`` scores exactly 2, so the better
    endpoint scores at most 2 — Lemma 5's ``(alpha, 2 - alpha)``
    guarantee, checked here as a Fraction. Without ``walk`` it runs
    :func:`lemma5_walk`.
    """
    walk = walk or lemma5_walk(inst)
    D = inst.delay_bound
    start = walk.cheap
    if walk.fast is not None:
        # Ties go to the delay-feasible endpoint, which needs no cancellation.
        start = min(
            (walk.fast, walk.cheap),
            key=lambda f: lemma5_score(f.cost, f.delay, walk.bound, D),
        )
        score = lemma5_score(start.cost, start.delay, walk.bound, D)
        if walk.converged and score > 2:
            raise SolverError(f"Lemma 5 endpoint scores {score} > 2")
    return Phase1Result(
        solution=_solution(inst, start),
        cost_lower_bound=walk.bound,
        provider="lagrangian_lemma5",
    )


def flow_lp_bound(
    inst: KRSPInstance, multiplier: Fraction | None = None
) -> tuple[Fraction, Fraction]:
    """Exact flow-LP optimum and an optimal multiplier, warm-started.

    Returns ``(C_LP, lambda*)``, both exact Fractions. With no hint (or
    ``0``) this is :func:`lemma5_walk` from scratch. A hint
    ``lambda = p/q > 0`` is tested first with two lexicographic min-cost
    k-flows under the blend ``b = q*c + p*d``: the least-delay and the
    least-cost flow of the face of blend-minimal flows (on that face
    least cost is most delay). The subgradients of the dual ``L`` at
    ``lambda`` run from the first's delay minus ``D`` to the second's, so
    when the two delays bracket ``D``, ``lambda`` is still optimal and
    ``L(lambda) = (b* - p*D)/q = C_LP`` exactly, ``b*`` the least blend
    total. Otherwise the walk resumes from the flow on the near side of
    ``D`` and the missing endpoint: the min-delay flow when ``lambda`` is
    too small, the least-delay min-cost flow when it is too large. Any
    hint gives the same bound; only the number of flows differs.

    Only edge masks and exact totals are used: no flow is decomposed into
    paths. Raises :class:`InfeasibleInstanceError` when fewer than ``k``
    edge-disjoint paths exist or the min-delay flow misses ``D``, the
    verdict of an infeasible flow LP. A walk cut off by
    :data:`LARAC_MAX_STEPS` returns its best dual value, still a certified
    lower bound, and counts ``phase1.larac.unconverged``.

    The two face flows are kept, with their certificate, by
    :func:`flow_lp_face`, so a caller that edits the instance can re-read
    this answer from them (:meth:`LambdaFace.bound`) while they stay
    optimal. Why that answer is exact:

    * *Complementary slackness for lexicographic weights.* Each face flow
      minimizes the single integer weight ``W = b*S + r`` (``r`` the
      secondary, delay or cost), and its final successive-shortest-path
      potentials ``pi`` prove it: the reduced weight ``W(e) + pi(tail) -
      pi(head)`` is ``>= 0`` on every unused edge and ``<= 0`` on every
      used one, so every residual cycle weighs ``>= 0`` and no k-flow
      weighs less. An edit that keeps those signs on the edge it touches
      keeps the proof for the edited instance.
    * *Why ``W``-optimal is lexicographically optimal.* If every k-flow's
      secondary total is below ``S`` (true while the instance's whole
      secondary total is), a flow of smaller blend total weighs at least
      ``S`` less in ``b*S`` and at most ``S - 1`` more in ``r``, so the
      ``W``-optimum minimizes ``b`` first and ``r`` second. Its totals
      ``(b, r)`` are then those of every lexicographic optimum, whatever
      ``S`` they were computed at.
    * *Why the scale headroom changes no total.* The face flows are built
      at ``S = 2 * sum(r) + 1``, not ``sum(r) + 1``, so the instance's
      secondary total may grow to twice its size before the proof lapses.
      Both scales exceed every flow's secondary total, so both give
      lexicographic optima, with the same ``(b, r)``; only those totals
      are read, so the bound and the multiplier are those of the smaller
      scale.
    """
    bound, lam, _face = flow_lp_face(inst, multiplier)
    return bound, lam


@dataclass
class FaceFlow:
    """One lexicographic k-flow of a :class:`LambdaFace` with its proof.

    It minimizes the integer weight ``blend(e) * scale + secondary(e)``,
    where ``secondary`` is delay for the least-delay flow and cost for the
    least-cost one. ``blend`` and ``secondary`` are its exact totals,
    ``potentials`` its final successive-shortest-path potentials and
    ``secondary_sum`` the instance's total of ``secondary`` over all edges
    (the flow is lexicographically optimal while it stays below
    ``scale``).
    """

    used: np.ndarray
    blend: int
    secondary: int
    scale: int
    potentials: list[int]
    secondary_sum: int

    def admits(
        self, used: bool, tail: int, head: int, blend: int, secondary: int
    ) -> bool:
        """Whether an edge ``tail -> head`` of these weights keeps the
        flow's complementary slackness: reduced weight ``<= 0`` if the flow
        uses it, ``>= 0`` if not."""
        reduced = (
            blend * self.scale
            + secondary
            + self.potentials[tail]
            - self.potentials[head]
        )
        return reduced <= 0 if used else reduced >= 0


@dataclass
class LambdaFace:
    """The two lexicographic flows with which :func:`flow_lp_bound`
    confirmed ``multiplier = p/q``, kept so an edited instance can be
    re-certified without a flow.

    ``low`` minimizes the blend ``q*c + p*d``, then delay; ``high`` the
    blend, then cost. :meth:`reweight`, :meth:`remove` and :meth:`add`
    patch both with an edit *before* it is applied to the graph. They
    return ``False`` when the edit removes an edge a flow uses or leaves
    an edge without complementary slackness: the face is then stale and
    must be dropped. They are O(1) apart from the edge-mask copy of a
    removal or addition. A moved ``s``, ``t`` or
    ``k`` voids the face; a moved ``D`` does not.
    """

    multiplier: Fraction
    low: FaceFlow
    high: FaceFlow

    @property
    def high_delay(self) -> int:
        """The least-cost flow's delay, the face's largest."""
        p, q = self.multiplier.numerator, self.multiplier.denominator
        return (self.high.blend - q * self.high.secondary) // p

    def bound(self, inst: KRSPInstance) -> Fraction | None:
        """``flow_lp_bound(inst, self.multiplier)[0]`` with no flow, or
        ``None`` when the face cannot answer.

        Both flows must still be lexicographically optimal (each secondary
        total of the instance below its scale), and their delays must
        bracket ``D``: then the flows :func:`flow_lp_bound` would solve
        have these flows' totals, so its answer is ``(b* - p*D)/q`` and
        ``multiplier``. Takes :func:`flow_lp_bound`'s budget checkpoint.
        """
        low, high = self.low, self.high
        if low.secondary_sum >= low.scale or high.secondary_sum >= high.scale:
            return None
        D = inst.delay_bound
        if not low.secondary <= D <= self.high_delay:
            return None
        checkpoint("phase1.flow_lp_bound")
        p, q = self.multiplier.numerator, self.multiplier.denominator
        return Fraction(high.blend - p * D, q)

    def reweight(self, g, e: int, cost: int, delay: int) -> bool:
        """Patch edge ``e`` of ``g`` to ``(cost, delay)``; a used edge
        shifts its flow's totals."""
        p, q = self.multiplier.numerator, self.multiplier.denominator
        tail, head = int(g.tail[e]), int(g.head[e])
        old_cost, old_delay = int(g.cost[e]), int(g.delay[e])
        shift = q * (cost - old_cost) + p * (delay - old_delay)
        for f, old, new in (
            (self.low, old_delay, delay),
            (self.high, old_cost, cost),
        ):
            used = bool(f.used[e])
            if not f.admits(used, tail, head, q * cost + p * delay, new):
                return False
            f.secondary_sum += new - old
            if used:
                f.blend += shift
                f.secondary += new - old
        return True

    def remove(self, g, e: int) -> bool:
        """Delete edge ``e`` of ``g``; only an edge neither flow uses."""
        if self.low.used[e] or self.high.used[e]:
            return False
        for f, old in ((self.low, int(g.delay[e])), (self.high, int(g.cost[e]))):
            f.used = np.delete(f.used, e)
            f.secondary_sum -= old
        return True

    def add(self, tail: int, head: int, cost: int, delay: int) -> bool:
        """Append an edge; both flows leave it unused."""
        p, q = self.multiplier.numerator, self.multiplier.denominator
        blend = q * cost + p * delay
        for f, new in ((self.low, delay), (self.high, cost)):
            if not f.admits(False, tail, head, blend, new):
                return False
        for f, new in ((self.low, delay), (self.high, cost)):
            f.used = np.append(f.used, False)
            f.secondary_sum += new
        return True


def _face_flow(
    inst: KRSPInstance, blend: list[int], secondary: list[int]
) -> FaceFlow:
    """The k-flow of least ``blend`` total, ties broken by least
    ``secondary``, at twice the usual scale headroom."""
    res, b, r, scale = _lex_flow(inst, blend, secondary, headroom=2)
    return FaceFlow(res.used, b, r, scale, res.potentials, sum(secondary))


def flow_lp_face(
    inst: KRSPInstance, multiplier: Fraction | None = None
) -> tuple[Fraction, Fraction, LambdaFace | None]:
    """:func:`flow_lp_bound`, plus its two face flows when they confirmed
    the hint (else ``None``): ``(C_LP, lambda*, face)``."""
    D = inst.delay_bound
    checkpoint("phase1.flow_lp_bound")
    if not multiplier:
        walk = lemma5_walk(inst)
    else:
        costs, delays = inst.graph.cost.tolist(), inst.graph.delay.tolist()
        p, q = multiplier.numerator, multiplier.denominator
        blend = [q * c + p * d for c, d in zip(costs, delays)]
        low = _face_flow(inst, blend, delays)
        if low.secondary > D:
            # lambda < lambda*: the whole face overshoots D.
            walk = lemma5_walk(
                inst,
                KFlow(low.used, (low.blend - p * low.secondary) // q, low.secondary),
            )
        else:
            face = LambdaFace(multiplier, low, _face_flow(inst, blend, costs))
            high = face.high
            if face.high_delay >= D:
                return Fraction(high.blend - p * D, q), multiplier, face
            # lambda > lambda*: the whole face undershoots D.
            walk = lemma5_walk(
                inst, fast=KFlow(high.used, high.secondary, face.high_delay)
            )
    return walk.bound, walk.multiplier, None


#: Provider every solve entry point uses unless told otherwise.
DEFAULT_PROVIDER = "lagrangian_lemma5"

PROVIDERS = {
    "lagrangian_lemma5": phase1_lagrangian_lemma5,
    "lp_rounding": phase1_lp_rounding,
    "lagrangian": phase1_lagrangian,
    "minsum": phase1_minsum,
}
"""Name registry used by :func:`repro.core.krsp.solve_krsp`.

Every provider is called as ``provider(inst, walk=None)``, ``walk`` the
instance's :func:`lemma5_walk` when the caller already ran it. The
Lagrangian providers pick their start from it (running it themselves
without one); the others have no use for it. ``PROVIDERS[name](inst)``
solves what it needs.
"""
