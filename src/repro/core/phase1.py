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
def phase1_minsum(
    inst: KRSPInstance, cheapest: KFlow | None = None, fastest: KFlow | None = None
) -> Phase1Result:
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
    inst: KRSPInstance, cheapest: KFlow | None = None, fastest: KFlow | None = None
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

    :func:`repro.core.krsp.solve_krsp` solves it only when
    :func:`cheapest_flow` misses ``D``. Its delay is then the instance's
    minimum (the feasibility gate), among min-delay flows it is the
    cheapest (the solver's cost cap), and it is the Lagrangian walk's far
    endpoint, so a caller that has it passes it to the provider.
    """
    res, delay, cost, _ = _lex_flow(inst, inst.graph.delay, inst.graph.cost)
    return KFlow(res.used, cost, delay)


def cheapest_flow(inst: KRSPInstance) -> KFlow:
    """The min-cost k-flow of least delay: one lexicographic ``(cost,
    delay)`` flow, decomposed only if it becomes the start.

    It is the first flow of :func:`repro.core.krsp.solve_krsp`, which
    rejects fewer than ``k`` paths through it. When it meets ``D`` it is
    optimal; otherwise it is the Lagrangian walk's near endpoint.
    """
    res, cost, delay, _ = _lex_flow(inst, inst.graph.cost, inst.graph.delay)
    return KFlow(res.used, cost, delay)


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
    inst: KRSPInstance, cheapest: KFlow | None = None, fastest: KFlow | None = None
) -> Phase1Result:
    """LARAC over k-flows: returns the cheap crossing flow (cost <= C_OPT).

    If the min-cost extreme (:func:`cheapest_flow`) is already
    delay-feasible it is optimal and returned directly. If even the
    min-delay extreme violates the budget (an infeasible instance, which
    :func:`repro.core.krsp.solve_krsp` rejects before phase 1), the walk
    still returns its last crossing flow and phase 2 certifies
    infeasibility. ``cheapest`` and ``fastest`` are the instance's
    extremes when the caller already solved them.
    """
    g, D = inst.graph, inst.delay_bound
    cheap = cheapest or cheapest_flow(inst)
    if cheap.delay <= D:
        return Phase1Result(
            solution=_solution(inst, cheap),
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
    inst: KRSPInstance, cheapest: KFlow | None = None, fastest: KFlow | None = None
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
    ``L(lambda*) = C_LP``. ``cheapest`` and ``fastest`` are the
    instance's :func:`cheapest_flow` and :func:`fastest_flow` when the
    caller already solved them.
    """
    D = inst.delay_bound
    # A zero deadline must trip before the first flow, as it does before
    # the LP in lp_rounding.
    checkpoint("phase1.lagrangian_lemma5")
    cheap, fast, bound, converged = _cold_walk(inst, fastest, cheapest)
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
    inst: KRSPInstance, fast: KFlow | None = None, cheap: KFlow | None = None
) -> tuple[KFlow, KFlow | None, Fraction, bool]:
    """The Lemma 5 walk from ``cheap`` to ``fast``, as :func:`_bracket`
    returns it. When ``cheap`` meets ``D`` its cost is the flow-LP optimum
    and the walk never starts: the returned ``fast`` is ``None``. They
    default to the instance's :func:`cheapest_flow` and
    :func:`fastest_flow`.
    """
    cheap = cheap or cheapest_flow(inst)
    if cheap.delay <= inst.delay_bound:
        return cheap, None, Fraction(cheap.cost), True
    return _bracket(inst, cheap, fast or fastest_flow(inst))


def flow_lp_bound(
    inst: KRSPInstance,
    multiplier: Fraction | None = None,
    fastest: KFlow | None = None,
    cheapest: KFlow | None = None,
) -> tuple[Fraction, Fraction]:
    """Exact flow-LP optimum and an optimal multiplier, warm-started.

    Returns ``(C_LP, lambda*)``, both exact Fractions. With no hint (or
    ``0``) this is the walk of :func:`phase1_lagrangian_lemma5`. A hint
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
    ``fastest`` and ``cheapest`` are the instance's :func:`fastest_flow`
    and :func:`cheapest_flow` when the caller already solved them; a walk
    that needs one takes it instead of solving it again.

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
    bound, lam, _face = flow_lp_face(inst, multiplier, fastest, cheapest)
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
    inst: KRSPInstance,
    multiplier: Fraction | None = None,
    fastest: KFlow | None = None,
    cheapest: KFlow | None = None,
) -> tuple[Fraction, Fraction, LambdaFace | None]:
    """:func:`flow_lp_bound`, plus its two face flows when they confirmed
    the hint (else ``None``): ``(C_LP, lambda*, face)``."""
    D = inst.delay_bound
    checkpoint("phase1.flow_lp_bound")
    if multiplier:
        costs, delays = inst.graph.cost.tolist(), inst.graph.delay.tolist()
        p, q = multiplier.numerator, multiplier.denominator
        blend = [q * c + p * d for c, d in zip(costs, delays)]
        low = _face_flow(inst, blend, delays)
        if low.secondary > D:
            # lambda < lambda*: the whole face overshoots D.
            walk = _bracket(
                inst,
                KFlow(low.used, (low.blend - p * low.secondary) // q, low.secondary),
                fastest or fastest_flow(inst),
            )
        else:
            face = LambdaFace(multiplier, low, _face_flow(inst, blend, costs))
            high = face.high
            if face.high_delay >= D:
                return Fraction(high.blend - p * D, q), multiplier, face
            # lambda > lambda*: the whole face undershoots D.
            walk = _cold_walk(
                inst, KFlow(high.used, high.secondary, face.high_delay), cheapest
            )
    else:
        walk = _cold_walk(inst, fastest, cheapest)
    cheap, fast, bound, _ = walk
    return bound, Fraction(0) if fast is None else _slope(cheap, fast), None


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

Every provider is called as ``provider(inst, cheapest=None, fastest=None)``.
``cheapest`` and ``fastest`` are the instance's :func:`cheapest_flow` and
:func:`fastest_flow` when the caller already solved them (``fastest`` is
solved only when ``cheapest`` misses ``D``); the Lagrangian providers take
them as their walk's endpoints instead of solving them again, the others
have no use for them. ``PROVIDERS[name](inst)`` solves what it needs.
"""
