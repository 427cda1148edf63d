"""Top-level kRSP solver facade.

:func:`solve_krsp` wires the whole pipeline together:

1. exact feasibility (:func:`repro.core.phase1.feasibility_gate`): the
   least-delay min-cost ``k``-flow, which is absent when fewer than ``k``
   disjoint paths exist and is optimal when it meets ``D``; only when it
   misses ``D`` the min-delay ``k``-flow, which misses ``D`` too when no
   solution exists;
2. optional Theorem-4 epsilon-scaling (polynomial mode), its cost grid set
   by the original instance's exact flow-LP optimum ``C_LP``;
3. Lemma 5's walk (:func:`repro.core.phase1.lemma5_walk`), once, from the
   flows step 1 solved: the certified lower bound ``C_LP`` and the
   Lagrangian multiplier;
4. a phase-1 provider, which picks the start from the walk (Lemma 5's
   endpoint by default — the paper's Algorithm 1 step 1, without an LP);
5. the bicameral cycle-cancellation loop (Algorithm 1 step 2), its cost
   cap the cost of the delay-feasible flow step 1 holds.

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
    Walk,
    feasibility_gate,
    flow_lp_bound,
    lemma5_walk,
)
from repro.core.scaling import scale_instance
from repro.errors import BudgetExhaustedError, InputError
# Bound here for layer tracers (perfbench/tracer.py) that wrap this
# module's flow calls. The solve calls neither: min_cost_k_flow is reached
# through phase 1's feasibility_gate, which also rejects fewer than k
# paths, and lemma5_walk.
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
from repro.robustness.budget import (
    BudgetMeter,
    SolveBudget,
    current_meter,
    metered,
)


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
        Certified ``<= C_OPT``: the flow-LP optimum ``C_LP``, exact, from
        the Lemma 5 walk (:func:`repro.core.phase1.lemma5_walk`). After
        scaling it is the original instance's ``C_LP``. ``None`` only when
        a budget trip came first.
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
        The Lagrangian multiplier the Lemma 5 walk ended on
        (:attr:`repro.core.phase1.Walk.multiplier`), whatever the
        provider: the warm start of an online session's bound refreshes.
        ``None`` when scaling ran or a budget trip came before the walk
        ended. Not serialised.
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


def _flow_paths(g: DiGraph, s: int, t: int, f: KFlow) -> list[list[int]]:
    """The paths of flow ``f``, built only for a budget trip."""
    paths, cycles = decompose_flow(g, np.flatnonzero(f.used), s, t)
    strip_improving_cycles(g, paths, cycles)
    return paths


def solve_krsp(
    g: DiGraph,
    s: int,
    t: int,
    k: int,
    delay_bound: int,
    phase1: str = DEFAULT_PROVIDER,
    eps: tuple[float, float] | float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    opt_cost: int | None = None,
    strict_monitor: bool = False,
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
    max_iterations:
        Iteration cap (see :mod:`repro.core.cancellation`).
    opt_cost, strict_monitor:
        Instrumentation / fidelity knobs — see
        :func:`cancel_to_feasibility`.
    budget:
        Cooperative :class:`repro.robustness.SolveBudget` enabling
        **anytime** semantics: on exhaustion (wall-clock deadline,
        iteration cap, search-node cap — even a zero deadline) the solver
        returns the best valid ``k``-disjoint-paths solution it holds,
        with ``status != "ok"`` and a quality :class:`Certificate`,
        instead of raising; a stalled loop returns ``"degraded"``. With
        ``None`` the solve runs under the meter an outer caller installed
        (:func:`repro.robustness.metered`), if any. Structural/budget
        infeasibility still raises (there is no valid answer to degrade
        to). The feasibility gate is
        mandatory work, so a budgeted solve always has at least the
        delay-feasible flow the gate holds to fall back on: the
        least-delay min-cost flow when it meets ``D``, else the
        minimum-delay flow.
    checkpoint_hook:
        Crash-safety seam
        (:class:`repro.robustness.checkpointing.CheckpointHook`): writes
        the write-ahead journal prelude after phase 1 and the bound steps
        and hands the per-iteration hooks to the cancellation loop. Use
        :func:`repro.robustness.checkpointing.solve_checkpointed` rather
        than constructing one by hand.

    Raises
    ------
    InfeasibleInstanceError
        When no ``k`` disjoint delay-feasible paths exist. The first step
        decides this exactly with at most two ``k``-flows: the min-cost
        flow is absent when fewer than ``k`` edge-disjoint paths exist,
        and when it misses ``delay_bound`` the min-delay flow's delay
        exceeds it too exactly when no solution meets the budget.
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
    meter = budget.start() if budget is not None else current_meter()
    if obs.enabled():
        # Nest a per-solve session under whatever is tracing (CLI trace,
        # fuzz run, eval harness) so each solution carries its own counter
        # snapshot while outer sessions still see the aggregate.
        start = time.perf_counter()
        with obs.session(label="solve_krsp") as tel:
            sol = _solve_krsp_impl(
                g, s, t, k, delay_bound, phase1, eps,
                max_iterations, opt_cost, strict_monitor, meter,
                checkpoint_hook,
            )
        # End-to-end solve latency, observed into every enclosing session's
        # "krsp.solve" histogram (the nested per-solve session just closed,
        # so only aggregating outer sessions record it).
        obs.observe("krsp.solve", time.perf_counter() - start)
        sol.counters = dict(tel.counters)
        return sol
    return _solve_krsp_impl(
        g, s, t, k, delay_bound, phase1, eps,
        max_iterations, opt_cost, strict_monitor, meter,
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
    max_iterations: int,
    opt_cost: int | None,
    strict_monitor: bool,
    meter: BudgetMeter | None = None,
    checkpoint_hook=None,
) -> KRSPSolution:
    """The pipeline body of :func:`solve_krsp` (telemetry-agnostic)."""
    timer = Timer(span_prefix="krsp")
    inst = KRSPInstance(graph=g, s=s, t=t, k=k, delay_bound=delay_bound)

    with timer.section("feasibility"):
        # Infeasible instances must never reach the cancellation loop. The
        # gate's flows are handed on, so no flow is solved twice.
        cheapest, fastest = feasibility_gate(inst)

    work_inst = inst
    work_cheapest, work_fastest = cheapest, fastest
    scaled = False
    lower_bound: Fraction | None = None
    c_lp: Fraction | None = None
    walk: Walk | None = None
    p1: Phase1Result | None = None
    result: CancellationResult | None = None
    exhausted: str | None = None

    # Everything past the feasibility gate runs under the (possibly absent)
    # budget meter, installed here and read ambiently below (the loop
    # included); a trip anywhere degrades to the best valid solution held
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
                    c_lp = _lp_bound(inst, lemma5_walk(inst, cheapest, fastest))
                    c_hat = max(1, math.ceil(c_lp))
                    theta = scale_instance(inst, eps1, eps2, c_hat)
                    work_inst = theta.instance
                    scaled = True
                    # The walk and the cost cap need the scaled instance's
                    # own flows. Floors keep every original solution
                    # feasible, so this gate never raises.
                    work_cheapest, work_fastest = feasibility_gate(work_inst)

            with timer.section("lower_bound"):
                # The flow-LP optimum is the tightest certified lower bound
                # phase 1 can offer; the tighter the bound, the earlier the
                # bicameral sweep can stop (rate tests certify sooner).
                walk = lemma5_walk(work_inst, work_cheapest, work_fastest)
                lower_bound = _lp_bound(work_inst, walk)

            with timer.section("phase1"):
                p1 = PROVIDERS[phase1](work_inst, walk)

            with timer.section("cost_cap"):
                # The delay-feasible flow the gate holds costs at least
                # C_OPT, exactly C_OPT when it is the cheapest flow. Lemma 3
                # caps |c(O)| at C_OPT itself, so opt_cost can only lower it.
                held = work_fastest or work_cheapest
                cap = held.cost
                if opt_cost is not None and not scaled:
                    cap = min(cap, opt_cost)

            if checkpoint_hook is not None:
                # Durable prelude: everything the loop needs that phase 1
                # and the bound steps computed, so a resume never re-runs them.
                checkpoint_hook.write_prelude(
                    provider=p1.provider,
                    p1_solution=p1.solution,
                    lower_bound=lower_bound,
                    cost_cap=cap,
                )

            with timer.section("cancel"):
                result = cancel_to_feasibility(
                    work_inst,
                    p1.solution,
                    cost_lower_bound=lower_bound,
                    opt_cost=opt_cost if not scaled else None,
                    cost_cap=cap,
                    max_iterations=max_iterations,
                    strict_monitor=strict_monitor and not scaled,
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
            g, s, t, delay_bound, fastest or cheapest, p1, result
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
        usage=meter.usage() if meter is not None else None,
        multiplier=walk.multiplier if walk is not None and not scaled else None,
    )


def _lp_bound(inst: KRSPInstance, walk: Walk) -> Fraction:
    """``C_LP`` of ``inst`` from its walk: the walk's bound, or for a walk
    :data:`repro.core.phase1.LARAC_MAX_STEPS` cut off,
    :func:`repro.core.phase1.flow_lp_bound` resumed from its multiplier."""
    if walk.converged:
        return walk.bound
    return flow_lp_bound(inst, walk.multiplier)[0]


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
    usage: dict | None,
    multiplier: Fraction | None = None,
) -> KRSPSolution:
    """Assemble the :class:`KRSPSolution` (status, certificate, telemetry).

    ``usage`` is the budget meter's :meth:`~repro.robustness.BudgetMeter.usage`
    snapshot, ``None`` for an unbudgeted solve.

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
        usage=usage,
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
            elapsed_seconds=certificate.elapsed_seconds if usage else None,
            iterations_used=certificate.iterations_used if usage else iterations,
            search_nodes_used=certificate.search_nodes_used,
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
    held: KFlow,
    p1: Phase1Result | None,
    result: CancellationResult | None,
) -> list[list[int]]:
    """Pick the best valid solution available when the budget ran out.

    Candidates, all ``k`` edge-disjoint ``s``-``t`` path sets over the
    original graph: the cancellation loop's best-so-far, else phase 1's
    start, and — always available because the feasibility gate is
    mandatory work — ``held``, the delay-feasible flow the gate holds (the
    least-delay min-cost flow when it meets ``D``, else the minimum-delay
    flow). Ranked by least delay overshoot first (a feasible answer beats
    any infeasible one), then cost, then delay.
    """
    pool: list[list[list[int]]] = []
    if result is not None:
        pool.append([list(p) for p in result.solution.paths])
    elif p1 is not None:
        pool.append([list(p) for p in p1.solution.paths])
    pool.append(_flow_paths(g, s, t, held))

    def rank(paths: list[list[int]]) -> tuple[int, int, int]:
        flat = [e for p in paths for e in p]
        c, d = g.cost_of(flat), g.delay_of(flat)
        return (max(0, d - delay_bound), c, d)

    return min(pool, key=rank)
