"""Algorithm 1: the cycle-cancellation loop with the Lemma 12 monitor.

Starting from phase-1 paths, repeat while the delay budget is violated:

1. build the residual graph (both weights negated on reversed edges);
2. collect bicameral candidates (:mod:`repro.core.search`);
3. select one (type-0 first, then rate-certified type-1/2, then the
   Algorithm 3 step-3 comparative fallback);
4. ``oplus`` it into the solution, re-decompose, strip nonnegative cycles.

Instrumentation records, per iteration, the cycle used and the evolving
``r_i = DeltaD_i / DeltaC_i`` of Lemma 12, so experiment E5 can check the
lemma's invariant (``r`` non-decreasing; ``DeltaD`` strictly shrinking on
ties) directly against measured traces.

``C_OPT`` handling: the exact value exists only in tests (via the MILP
oracle). Production runs pass a certified *lower bound* (flow LP /
Lagrangian dual), which makes the type-1 rate test stricter (safe) and the
type-2 test looser (may accept a marginal cycle; convergence is then
protected by the state-repetition guard and the iteration cap). The
``|c(O)| <= C_OPT`` cap is replaced by a certified *upper* bound — the cost
of the cheapest delay-feasible flow — which can only widen the cap and
therefore never rejects the cycle Theorem 16 guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from repro import obs
from repro.core.bicameral import CycleType, select_candidate
from repro.core.instance import KRSPInstance, PathSet
from repro.core.residual import apply_residual_cycles, build_residual
from repro.core.search import (
    SearchStats,
    find_bicameral_candidates_paper,
    find_bicameral_cycle,
)
from repro.errors import (
    BudgetExhaustedError,
    InfeasibleInstanceError,
    InvariantError,
    IterationLimitError,
)
from repro.flow.decompose import decompose_flow, strip_improving_cycles
from repro.robustness.budget import BudgetMeter

#: Default hard cap on cancellation iterations. The theoretical bound is
#: ``D * sum(c) * sum(d)`` (Lemma 13) — astronomically loose; measured
#: iteration counts (experiment E5) are tiny, so this cap flags bugs, not
#: hard instances.
DEFAULT_MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class IterationRecord:
    """One cancellation step, for E5's Lemma 12 audit.

    The in-memory compat view; under an active :func:`repro.obs.session`
    the same state is emitted as a ``cancel.iteration`` event, which is
    the trace-level source of truth (``repro trace`` renders it)."""

    iteration: int
    cycle_type: CycleType
    cycle_cost: int
    cycle_delay: int
    cost_after: int
    delay_after: int
    r_value: Fraction | None  # DeltaD/DeltaC before the step (None w/o bound)


@dataclass
class ResumeState:
    """Mid-loop cancellation state restored from a checkpoint journal.

    Built by :func:`repro.robustness.checkpointing.resume_krsp` out of the
    last durable snapshot plus tail replay; handing it to
    :func:`cancel_to_feasibility` makes the loop continue exactly where
    the crashed process stopped — same solution, same repetition-guard
    memory, same best-so-far — so the continuation is bit-identical to the
    uninterrupted run. Each iteration builds its residual from the
    solution, so no residual is carried over.
    """

    solution: PathSet
    records: list[IterationRecord]
    seen_states: set[tuple[int, ...]]
    best: PathSet


@dataclass
class CancellationResult:
    """Outcome of the cancellation phase.

    ``exhausted`` is ``None`` on a normal finish; under a cooperative
    budget (``meter`` passed) it records why the loop stopped early
    (``"deadline" | "iterations" | "search_nodes" | "stalled"``) and
    ``solution`` is then the best valid solution seen — smallest delay,
    cost as tie-break — rather than a delay-feasible one.
    """

    solution: PathSet
    records: list[IterationRecord] = field(default_factory=list)
    search_stats: SearchStats = field(default_factory=SearchStats)
    exhausted: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.records)


def _r_value(
    delay_bound: int,
    cost_bound: Fraction | None,
    sol: PathSet,
) -> Fraction | None:
    if cost_bound is None:
        return None
    delta_c = cost_bound - sol.cost
    if delta_c <= 0:
        return None
    return Fraction(delay_bound - sol.delay) / delta_c


def cancel_to_feasibility(
    inst: KRSPInstance,
    start: PathSet,
    cost_lower_bound: Fraction | None = None,
    opt_cost: int | None = None,
    cost_cap: int | None = None,
    b_max: int | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    strict_monitor: bool = False,
    finder: str = "production",
    meter: BudgetMeter | None = None,
    journal: "object | None" = None,
    resume_state: ResumeState | None = None,
) -> CancellationResult:
    """Drive ``start`` to delay feasibility via bicameral cancellation.

    Parameters
    ----------
    journal:
        Checkpoint hook (duck-typed — see
        :class:`repro.robustness.checkpointing.CheckpointHook`). Per
        iteration the hook durably records the step *before* it is
        committed in memory (write-ahead discipline), periodically
        snapshots the full loop state, and exposes a cooperative
        shutdown poll: a pending SIGINT/SIGTERM flushes a snapshot and
        raises :class:`~repro.errors.SolveInterrupted`.
    resume_state:
        Restored mid-loop state from a journal
        (:class:`ResumeState`); ``start`` is then ignored as the
        starting point and the loop continues from the restored
        solution with its full repetition-guard history.
    meter:
        Armed :class:`repro.robustness.BudgetMeter` for **anytime**
        semantics: every stopping rule (deadline, iteration caps, search
        node cap, state repetition) then returns the best valid solution
        seen with :attr:`CancellationResult.exhausted` set, instead of
        raising. Without a meter the legacy raising behavior is kept.
    finder:
        ``"production"`` (shifted auxiliary graphs, early-exit sweep) or
        ``"paper_literal"`` (per-anchor ``H_v^{+/-}(B)`` with LP (6) —
        Algorithm 3 exactly as printed; much slower, kept for fidelity).
    cost_lower_bound:
        Certified ``<= C_OPT`` estimate feeding the Definition-10 rate
        tests (see module docstring). Ignored when ``opt_cost`` is given.
    opt_cost:
        The exact optimum (tests only): enables the paper's literal
        Definition 10 and the strict Lemma 12 monitor.
    cost_cap:
        Upper bound standing in for the ``|c(O)| <= C_OPT`` cap; ``None``
        disables the cap (never rejects anything). With ``opt_cost`` given
        the cap defaults to it.
    strict_monitor:
        Raise :class:`InvariantError` when a step violates Lemma 12 —
        meaningful only with ``opt_cost`` (the lemma is stated against the
        true ``DeltaC``).

    Raises
    ------
    InfeasibleInstanceError
        Algorithm 1 step 2(a): delay-infeasible with no bicameral cycle.
    IterationLimitError
        Iteration cap exceeded or a solution state repeated.
    """
    g = inst.graph
    D = inst.delay_bound
    sol = start
    result = CancellationResult(solution=sol)

    if opt_cost is not None:
        cost_bound: Fraction | None = Fraction(opt_cost)
        if cost_cap is None:
            cost_cap = opt_cost
    else:
        cost_bound = cost_lower_bound

    seen_states: set[tuple[int, ...]] = {tuple(sorted(sol.edge_ids))}
    # Best valid solution seen so far (smallest delay, cost tie-break) —
    # what an exhausted budget hands back instead of raising.
    best = sol

    if resume_state is not None:
        sol = resume_state.solution
        result.solution = sol
        result.records = list(resume_state.records)
        seen_states = set(resume_state.seen_states)
        best = resume_state.best

    def _checkpoint_state() -> dict:
        # Read at call time, so one closure serves every snapshot point.
        return {
            "solution": sol,
            "best": best,
            "seen_states": seen_states,
            "records": result.records,
            "meter": meter,
        }

    while sol.delay > D:
        if journal is not None:
            journal.poll_shutdown(_checkpoint_state)
        if result.iterations >= max_iterations:
            if meter is not None:
                result.exhausted = "iterations"
                break
            raise IterationLimitError(
                f"no feasibility after {max_iterations} cancellations "
                f"(delay {sol.delay} > {D})"
            )
        if meter is not None:
            try:
                meter.check("cancel.loop")
            except BudgetExhaustedError as exc:
                result.exhausted = exc.reason
                break
        r_before = _r_value(D, cost_bound, sol)

        residual = build_residual(g, sol.edge_ids)
        delta_d = D - sol.delay  # < 0 here
        delta_c_int: int | None = None
        if cost_bound is not None:
            # Flooring a positive Fraction bound only tightens the type-1
            # rate test (smaller positive DeltaC) — safe direction.
            delta_c_int = int(cost_bound) - sol.cost
            if delta_c_int <= 0:
                delta_c_int = None
        delta_c_soft: int | None = None
        if cost_cap is not None and cost_cap - sol.cost > 0:
            delta_c_soft = cost_cap - sol.cost
        try:
            if finder == "paper_literal":
                candidates = find_bicameral_candidates_paper(
                    residual, delta_d, stats=result.search_stats, meter=meter
                )
                picked = select_candidate(
                    candidates,
                    delta_d,
                    delta_c_int,
                    cost_cap,
                    type2_only_if_no_type1=opt_cost is None,
                )
                if picked is None and delta_c_soft is not None:
                    picked = select_candidate(
                        candidates,
                        delta_d,
                        delta_c_soft,
                        cost_cap,
                        type2_only_if_no_type1=opt_cost is None,
                    )
            else:
                picked = find_bicameral_cycle(
                    residual,
                    delta_d,
                    delta_c_int,
                    cost_cap,
                    b_max=b_max,
                    stats=result.search_stats,
                    delta_c_soft=delta_c_soft,
                    # With estimated bounds a "certified" type-2 can spuriously
                    # undo the previous type-1 step; rank it behind type-1 then.
                    type2_only_if_no_type1=opt_cost is None,
                    meter=meter,
                )
        except BudgetExhaustedError as exc:
            # A budget can only trip here when a meter was passed; the
            # partially-searched iteration is abandoned and the best valid
            # solution so far becomes the answer.
            result.exhausted = exc.reason
            break
        if picked is None:
            obs.inc("cancellation.no_cycle_infeasible")
            raise InfeasibleInstanceError(
                "delay bound violated but the residual graph contains no "
                "bicameral cycle (Algorithm 1 step 2(a))"
            )
        cycle, ctype = picked

        new_edges = apply_residual_cycles(sol.edge_ids, residual, [list(cycle.edges)])
        paths, cycles_left = decompose_flow(g, new_edges, inst.s, inst.t)
        strip_improving_cycles(g, paths, cycles_left)
        new_sol = inst.path_set(paths)

        state = tuple(sorted(new_sol.edge_ids))
        if state in seen_states:
            if meter is not None:
                result.exhausted = "stalled"
                break
            raise IterationLimitError(
                "cancellation revisited a previous solution state — "
                "rate estimates too loose to guarantee progress"
            )
        seen_states.add(state)

        if journal is not None:
            # Write-ahead: the step is durable before the in-memory commit
            # below. A crash in between replays this record on resume,
            # which lands in exactly the state the commit would have.
            journal.record_iteration(
                iteration=result.iterations + 1,
                ctype=ctype,
                cycle=cycle,
                prev_edge_ids=sol.edge_ids,
                new_sol=new_sol,
                r_before=r_before,
                meter=meter,
            )

        result.records.append(
            IterationRecord(
                iteration=result.iterations + 1,
                cycle_type=ctype,
                cycle_cost=cycle.cost,
                cycle_delay=cycle.delay,
                cost_after=new_sol.cost,
                delay_after=new_sol.delay,
                r_value=r_before,
            )
        )
        obs.inc("cancellation.iterations")
        obs.inc(f"cancellation.applied.{ctype.name.lower()}")
        obs.emit(
            "cancel.iteration",
            iteration=result.iterations,
            cycle_type=ctype.name,
            cycle_cost=cycle.cost,
            cycle_delay=cycle.delay,
            cycle_edges=len(cycle.edges),
            solution_edges=len(new_sol.edge_ids),
            cost_after=new_sol.cost,
            delay_after=new_sol.delay,
            delay_bound=D,
            r_value=None if r_before is None else str(r_before),
        )

        if strict_monitor and r_before is not None:
            r_after = _r_value(D, cost_bound, new_sol)
            still_infeasible = new_sol.delay > D
            if still_infeasible and r_after is not None:
                delta_d_after = D - new_sol.delay
                if r_after < r_before or (
                    r_after == r_before and not delta_d_after > delta_d
                ):
                    raise InvariantError(
                        f"Lemma 12 violated at iteration {result.iterations}: "
                        f"r {r_before} -> {r_after}, "
                        f"DeltaD {delta_d} -> {delta_d_after}"
                    )

        sol = new_sol
        result.solution = sol
        if (sol.delay, sol.cost) < (best.delay, best.cost):
            best = sol
        if meter is not None:
            meter.iterations_used += 1
        if journal is not None:
            journal.maybe_snapshot(result.iterations, _checkpoint_state)

    if result.exhausted is not None:
        # Hand back the closest-to-feasible valid solution, not the
        # half-applied last state.
        sol = best
    result.solution = sol
    obs.emit(
        "cancel.done",
        iterations=result.iterations,
        cost=sol.cost,
        delay=sol.delay,
        delay_bound=D,
        exhausted=result.exhausted,
    )
    return result
