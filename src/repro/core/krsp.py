"""Top-level kRSP solver facade.

:func:`solve_krsp` wires the whole pipeline together:

1. exact feasibility: the min-delay ``k``-flow, which is absent when fewer
   than ``k`` disjoint paths exist and misses ``D`` when no solution does;
2. optional Theorem-4 epsilon-scaling (polynomial mode), its cost grid set
   by the exact flow-LP optimum ``C_LP``;
3. a phase-1 provider (Lemma 5 from exact Lagrangian k-flows by default —
   the paper's Algorithm 1 step 1, without an LP);
4. the bicameral cycle-cancellation loop (Algorithm 1 step 2).

The returned :class:`KRSPSolution` carries the paths, exact totals, the
certified cost lower bound, and full per-iteration instrumentation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro import obs
from repro._util.timer import Timer
from repro.core.cancellation import (
    DEFAULT_MAX_ITERATIONS,
    CancellationResult,
    IterationRecord,
    cancel_to_feasibility,
)
from repro.core.instance import KRSPInstance, PathSet
from repro.core.phase1 import (
    DEFAULT_PROVIDER,
    PROVIDERS,
    KFlow,
    Phase1Result,
    fastest_flow,
    flow_lp_bound,
)
from repro.core.scaling import scale_instance
from repro.errors import (
    BudgetExhaustedError,
    GraphError,
    InfeasibleInstanceError,
    InputError,
)
# Bound here for layer tracers (perfbench/tracer.py) that wrap this
# module's flow calls. The solve calls neither: min_cost_k_flow is reached
# through phase 1's fastest_flow, which also rejects fewer than k paths.
from repro.flow.maxflow import has_k_disjoint_paths  # noqa: F401
from repro.flow.mincost import min_cost_k_flow  # noqa: F401
from repro.flow.decompose import decompose_flow, strip_improving_cycles
from repro.graph.digraph import DiGraph
from repro.robustness.anytime import (
    STATUS_BUDGET_EXHAUSTED,
    STATUS_DEGRADED,
    STATUS_OK,
    Certificate,
    make_certificate,
)
from repro.robustness.budget import BudgetMeter, SolveBudget, metered


@dataclass
class KRSPSolution:
    """Everything :func:`solve_krsp` learned.

    Attributes
    ----------
    paths:
        ``k`` edge-disjoint s-t paths (edge-id lists, valid in the original
        graph even when epsilon-scaling ran).
    cost, delay:
        Exact totals in *original* units.
    delay_bound:
        The instance's budget ``D`` (for convenience).
    delay_feasible:
        ``delay <= D``. Always true without scaling; with scaling the
        guarantee is ``delay <= (1 + eps1) * D``.
    cost_lower_bound:
        Certified ``<= C_OPT``: the flow-LP optimum ``C_LP``, exact
        (:func:`repro.core.phase1.flow_lp_bound`). After scaling it is
        the original instance's ``C_LP``. ``None`` only when a budget trip
        came first.
    iterations:
        Cancellation steps taken.
    records:
        Per-iteration audit trail (Lemma 12 instrumentation).
    provider:
        Phase-1 provider name.
    scaled:
        Whether Theorem-4 scaling was applied.
    timings:
        Wall-clock seconds per phase.
    counters:
        Telemetry counter snapshot for this solve (Dijkstra pops, LP
        solves, cancellation iterations, ... — see docs/OBSERVABILITY.md).
        Populated only when a :func:`repro.obs.session` is active; empty
        otherwise (the disabled fast path records nothing).
    status:
        ``"ok"`` — the full pipeline finished (bit-identical to an
        unbudgeted solve); ``"budget_exhausted"`` — a
        :class:`~repro.robustness.SolveBudget` tripped and ``paths`` is
        the best valid solution seen; ``"degraded"`` — the cancellation
        loop stalled (state repetition under estimated bounds) while
        holding a valid solution. See docs/ROBUSTNESS.md.
    certificate:
        Machine-checkable quality residue (delay slack, cost-bound gap,
        budget odometer). Always populated; most useful when
        ``status != "ok"``.
    multiplier:
        Phase 1's Lagrangian multiplier
        (:attr:`repro.core.phase1.Phase1Result.multiplier`), the warm
        start of an online session's bound refreshes. ``None`` when the
        provider has none or scaling ran. Not serialised.
    """

    paths: list[list[int]]
    cost: int
    delay: int
    delay_bound: int
    delay_feasible: bool
    cost_lower_bound: Fraction | None
    iterations: int
    records: list[IterationRecord] = field(default_factory=list)
    provider: str = ""
    scaled: bool = False
    timings: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    status: str = STATUS_OK
    certificate: Certificate | None = None
    multiplier: Fraction | None = None


def _cost_cap_upper_bound(
    inst: KRSPInstance, fastest: KFlow
) -> tuple[int, list[list[int]]] | None:
    """Cheapest delay-feasible flow: a certified C_OPT upper bound.

    ``fastest`` is the instance's min-delay flow (cost tie-broken); if even
    that flow misses the budget the instance is infeasible and the caller
    will discover it, so return ``None`` (cap disabled). Returns
    ``(cost, paths)`` — the witnessing paths double as the anytime layer's
    preferred degraded answer (delay-feasible by construction).
    """
    g = inst.graph
    eids = np.nonzero(fastest.used)[0]
    paths, _ = decompose_flow(g, eids, inst.s, inst.t)
    flat = [e for p in paths for e in p]
    if g.delay_of(flat) > inst.delay_bound:
        return None
    return g.cost_of(flat), paths


def solve_krsp(
    g: DiGraph,
    s: int,
    t: int,
    k: int,
    delay_bound: int,
    phase1: str = DEFAULT_PROVIDER,
    eps: tuple[float, float] | float | None = None,
    b_max: int | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    opt_cost: int | None = None,
    strict_monitor: bool = False,
    finder: str = "production",
    budget: SolveBudget | None = None,
    checkpoint_hook=None,
) -> KRSPSolution:
    """Solve kRSP with the paper's bifactor algorithm.

    Parameters
    ----------
    g, s, t, k, delay_bound:
        The instance (Definition 2).
    phase1:
        Provider name (:data:`repro.core.phase1.PROVIDERS`):
        ``"lagrangian_lemma5"`` (default; Lemma 5 and the exact flow-LP
        bound from integer flows), ``"lp_rounding"`` (the paper's LP
        rounding), ``"lagrangian"`` or ``"minsum"``.
    eps:
        ``None`` runs the pseudo-polynomial Lemma-3 algorithm (bifactor
        ``(1, 2)``); a float or ``(eps1, eps2)`` pair runs the Theorem-4
        polynomial variant (bifactor ``(1 + eps1, 2 + eps2)``).
    b_max, max_iterations:
        Search radius / iteration caps (see
        :mod:`repro.core.cancellation`).
    opt_cost, strict_monitor, finder:
        Instrumentation / fidelity knobs — see
        :func:`cancel_to_feasibility`. Either finder builds each
        iteration's residual from its current solution.
    budget:
        Cooperative :class:`repro.robustness.SolveBudget` enabling
        **anytime** semantics: on exhaustion (wall-clock deadline,
        iteration cap, search-node cap — even a zero deadline) the solver
        returns the best valid ``k``-disjoint-paths solution it holds,
        with ``status != "ok"`` and a quality :class:`Certificate`,
        instead of raising. Structural/budget infeasibility still raises
        (there is no valid answer to degrade to). The feasibility gate is
        mandatory work, so a budgeted solve always has at least the
        minimum-delay flow to fall back on.
    checkpoint_hook:
        Crash-safety seam
        (:class:`repro.robustness.checkpointing.CheckpointHook`): writes
        the write-ahead journal prelude after phase 1 and the bound steps
        and hands the per-iteration/snapshot hooks to the cancellation
        loop. Use
        :func:`repro.robustness.checkpointing.solve_checkpointed` rather
        than constructing one by hand.

    Raises
    ------
    InfeasibleInstanceError
        When no ``k`` disjoint delay-feasible paths exist. The first step
        decides this exactly with one min-delay ``k``-flow: the flow is
        absent when fewer than ``k`` edge-disjoint paths exist, and its
        delay exceeds ``delay_bound`` when no solution meets the budget.
    InputError
        When ``phase1`` names no provider.
    """
    if phase1 not in PROVIDERS:
        raise InputError(
            f"unknown phase-1 provider {phase1!r} "
            f"(known: {', '.join(PROVIDERS)})"
        )
    # Arm the deadline clock before any work so "deadline" means
    # end-to-end wall clock, not just the cancellation phase.
    meter = budget.start() if budget is not None else None
    if obs.enabled():
        # Nest a per-solve session under whatever is tracing (CLI trace,
        # fuzz run, eval harness) so each solution carries its own counter
        # snapshot while outer sessions still see the aggregate.
        start = time.perf_counter()
        with obs.session(label="solve_krsp") as tel:
            sol = _solve_krsp_impl(
                g, s, t, k, delay_bound, phase1, eps, b_max,
                max_iterations, opt_cost, strict_monitor, finder, meter,
                checkpoint_hook,
            )
        # End-to-end solve latency, observed into every enclosing session's
        # "krsp.solve" histogram (the nested per-solve session just closed,
        # so only aggregating outer sessions record it).
        obs.observe("krsp.solve", time.perf_counter() - start)
        sol.counters = dict(tel.counters)
        return sol
    return _solve_krsp_impl(
        g, s, t, k, delay_bound, phase1, eps, b_max,
        max_iterations, opt_cost, strict_monitor, finder, meter,
        checkpoint_hook,
    )


def _solve_krsp_impl(
    g: DiGraph,
    s: int,
    t: int,
    k: int,
    delay_bound: int,
    phase1: str,
    eps: tuple[float, float] | float | None,
    b_max: int | None,
    max_iterations: int,
    opt_cost: int | None,
    strict_monitor: bool,
    finder: str,
    meter: BudgetMeter | None = None,
    checkpoint_hook=None,
) -> KRSPSolution:
    """The pipeline body of :func:`solve_krsp` (telemetry-agnostic)."""
    timer = Timer(span_prefix="krsp")
    inst = KRSPInstance(graph=g, s=s, t=t, k=k, delay_bound=delay_bound)

    with timer.section("feasibility"):
        # Exact feasibility oracle: the minimum total delay over k disjoint
        # paths is a plain min-cost-flow problem under the delay weight. The
        # flow raises when fewer than k edge-disjoint paths exist; if its
        # delay exceeds D, no solution exists and the cancellation loop
        # must never start. The flow is cost tie-broken, so the cost cap and
        # the Lagrangian phase 1 reuse it.
        min_delay_flow = fastest_flow(inst)
        if min_delay_flow.delay > delay_bound:
            raise InfeasibleInstanceError(
                f"minimum achievable total delay {min_delay_flow.delay} "
                f"exceeds the budget {delay_bound}"
            )

    work_inst = inst
    work_fastest = min_delay_flow
    scaled = False
    lower_bound: Fraction | None = None
    c_lp: Fraction | None = None
    p1: Phase1Result | None = None
    cap_paths: list[list[int]] | None = None
    result: CancellationResult | None = None
    exhausted: str | None = None

    # Everything past the feasibility gate runs under the (possibly absent)
    # budget meter; a trip anywhere degrades to the best valid solution held
    # at that point instead of surfacing the control-flow exception.
    with metered(meter):
        try:
            if eps is not None:
                eps1, eps2 = (eps, eps) if isinstance(eps, (int, float)) else eps
                with timer.section("scaling"):
                    # The original instance's C_LP is Theorem 4's certified
                    # C_OPT lower bound twice over: the solve reports it, and
                    # since C_OPT is an integer, ceil(C_LP) <= C_OPT is the
                    # cost-grid estimate C_hat.
                    c_lp = flow_lp_bound(inst, fastest=min_delay_flow)[0]
                    c_hat = max(1, math.ceil(c_lp))
                    theta = scale_instance(inst, eps1, eps2, c_hat)
                    work_inst = theta.instance
                    scaled = True
                    # Phase 1 and the cost cap need the scaled instance's
                    # own min-delay flow.
                    work_fastest = fastest_flow(work_inst)

            with timer.section("phase1"):
                provider = PROVIDERS[phase1]
                p1 = provider(work_inst, work_fastest)

            with timer.section("lower_bound"):
                # The flow-LP optimum is the tightest certified lower bound
                # phase 1 can offer; the tighter the bound, the earlier the
                # bicameral sweep can stop (rate tests certify sooner). The
                # Lagrangian providers usually end on it exactly; otherwise
                # the exact walk finds it, from the provider's multiplier.
                lower_bound = p1.cost_lower_bound
                if not p1.bound_is_lp_optimum:
                    lower_bound = flow_lp_bound(
                        work_inst, p1.multiplier, fastest=work_fastest
                    )[0]

            with timer.section("cost_cap"):
                cap_res = _cost_cap_upper_bound(work_inst, work_fastest)
                cap = cap_paths = None
                if cap_res is not None:
                    cap, cap_paths = cap_res
                if opt_cost is not None and not scaled:
                    # Lemma 3 caps |c(O)| at C_OPT itself; the min-delay
                    # flow's cost only bounds C_OPT from above.
                    cap = opt_cost if cap is None else min(cap, opt_cost)

            if checkpoint_hook is not None:
                # Durable prelude: everything the loop needs that phase 1
                # and the bound steps computed, so a resume never re-runs them.
                checkpoint_hook.write_prelude(
                    provider=p1.provider,
                    p1_solution=p1.solution,
                    lower_bound=lower_bound,
                    cost_cap=cap,
                    cap_paths=cap_paths,
                    min_delay=min_delay_flow.delay,
                )

            with timer.section("cancel"):
                result = cancel_to_feasibility(
                    work_inst,
                    p1.solution,
                    cost_lower_bound=lower_bound,
                    opt_cost=opt_cost if not scaled else None,
                    cost_cap=cap,
                    b_max=b_max,
                    max_iterations=max_iterations,
                    strict_monitor=strict_monitor and not scaled,
                    finder=finder,
                    journal=checkpoint_hook,
                )
            exhausted = result.exhausted
        except BudgetExhaustedError as exc:
            exhausted = exc.reason

    if exhausted is None:
        assert result is not None
        final_paths = [list(p) for p in result.solution.paths]
    else:
        final_paths = _best_degraded_paths(
            g, s, t, delay_bound, min_delay_flow, p1, cap_paths, result
        )

    return assemble_solution(
        g,
        delay_bound,
        final_paths=final_paths,
        result=result,
        exhausted=exhausted,
        lower_bound=c_lp if scaled else lower_bound,
        provider_name=p1.provider if p1 is not None else "",
        scaled=scaled,
        timings=timer.as_dict(),
        meter=meter,
        multiplier=p1.multiplier if p1 is not None and not scaled else None,
    )


def assemble_solution(
    g: DiGraph,
    delay_bound: int,
    *,
    final_paths: list[list[int]],
    result: CancellationResult | None,
    exhausted: str | None,
    lower_bound: Fraction | None,
    provider_name: str,
    scaled: bool,
    timings: dict[str, float],
    meter: BudgetMeter | None,
    multiplier: Fraction | None = None,
) -> KRSPSolution:
    """Assemble the :class:`KRSPSolution` (status, certificate, telemetry).

    Shared between the live pipeline and
    :func:`repro.robustness.checkpointing.resume_krsp`, so a resumed solve
    reports through exactly the same taxonomy and emits the same terminal
    events as an uninterrupted one.
    """
    flat = [e for p in final_paths for e in p]
    cost = g.cost_of(flat)
    delay = g.delay_of(flat)

    if exhausted is None:
        status = STATUS_OK
    elif exhausted == "stalled":
        status = STATUS_DEGRADED
    else:
        status = STATUS_BUDGET_EXHAUSTED
    certificate = make_certificate(
        cost,
        delay,
        delay_bound,
        lower_bound,
        exhausted_reason=exhausted,
        usage=meter.usage() if meter is not None else None,
    )

    iterations = result.iterations if result is not None else 0
    records = result.records if result is not None else []

    obs.inc("krsp.solves")
    obs.gauge("krsp.cost", cost)
    obs.gauge("krsp.delay", delay)
    if exhausted is not None:
        obs.inc("budget.exhausted")
        obs.emit(
            "budget.exhausted",
            reason=exhausted,
            status=status,
            elapsed_seconds=meter.elapsed_seconds() if meter is not None else None,
            iterations_used=meter.iterations_used if meter is not None else iterations,
            search_nodes_used=meter.search_nodes_used if meter is not None else 0,
        )
    obs.emit(
        "solve.result",
        cost=cost,
        delay=delay,
        delay_bound=delay_bound,
        feasible=delay <= delay_bound,
        iterations=iterations,
        provider=provider_name,
        scaled=scaled,
        status=status,
    )
    return KRSPSolution(
        paths=final_paths,
        cost=cost,
        delay=delay,
        delay_bound=delay_bound,
        delay_feasible=delay <= delay_bound,
        cost_lower_bound=lower_bound,
        iterations=iterations,
        records=records,
        provider=provider_name,
        scaled=scaled,
        timings=timings,
        status=status,
        certificate=certificate,
        multiplier=multiplier,
    )


def _best_degraded_paths(
    g: DiGraph,
    s: int,
    t: int,
    delay_bound: int,
    min_delay_flow,
    p1: Phase1Result | None,
    cap_paths: list[list[int]] | None,
    result: CancellationResult | None,
) -> list[list[int]]:
    """Pick the best valid solution available when the budget ran out.

    Candidates, all ``k`` edge-disjoint ``s``-``t`` path sets over the
    original graph: the cancellation loop's best-so-far, phase 1's start,
    the cheapest delay-feasible flow (cost-cap witness), and — always
    available because the feasibility gate is mandatory work — the
    minimum-delay flow. Ranked by least delay overshoot first (a feasible
    answer beats any infeasible one), then cost, then delay.
    """
    pool: list[list[list[int]]] = []
    if result is not None:
        pool.append([list(p) for p in result.solution.paths])
    elif p1 is not None:
        pool.append([list(p) for p in p1.solution.paths])
    if cap_paths is not None:
        pool.append(cap_paths)
    else:
        # The min-delay flow is delay-feasible (the feasibility gate checked
        # exactly that) — the floor every budgeted solve can stand on.
        eids = np.nonzero(min_delay_flow.used)[0]
        paths, cycles = decompose_flow(g, eids, s, t)
        strip_improving_cycles(g, paths, cycles)
        pool.append(paths)

    def rank(paths: list[list[int]]) -> tuple[int, int, int]:
        flat = [e for p in paths for e in p]
        c, d = g.cost_of(flat), g.delay_of(flat)
        return (max(0, d - delay_bound), c, d)

    return min(pool, key=rank)
