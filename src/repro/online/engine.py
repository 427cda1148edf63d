"""Warm-start re-solving of kRSP instances under churn.

The cycle-cancellation scheme repairs an *infeasible* k-flow by cancelling
only delay-violating cycles, and its infeasibility proof (Algorithm 1 step
2(a)) is valid from **any** integral k-flow start — not just phase 1's.
That makes the previous solution a legitimate warm start after a small
instance change: :func:`resolve` patches the instance graph in place,
re-prices the old paths under the new weights, and cancels only the newly
exposed violating cycles (each cancellation iteration builds its residual
from the current paths).

Guarantee discipline
--------------------
A warm result must meet the same registered bifactor ``(1, 2)`` guarantee
as a cold solve. The engine maintains a certified cost lower bound ``LB``:

* *hardening* deltas (cost/delay increases, removals, ``D`` tightening)
  can only raise the optimum, so the previous ``LB`` stays valid and is
  reused (``online.lb_reused``);
* *softening* deltas (any decrease, additions, ``D`` relaxation) may
  lower the optimum, so ``LB`` is refreshed to the delay-budgeted flow
  LP's exact optimum (``online.lb_refresh``) by
  :func:`repro.core.phase1.flow_lp_bound`, warm-started from the
  session's last Lagrangian multiplier (at first, the one the cold
  solve's phase 1 ended on). Two integer min-cost flows
  usually confirm that multiplier is still optimal
  (``online.lb_refresh.multiplier_kept``); otherwise the walk resumes
  from them. No LP is solved.

After cancellation the engine checks ``cost <= 2 * LB``; a failed check
refreshes ``LB`` once more and, if still failing, falls back to a cold
solve (``online.fallback.guarantee``) — so every ``status == "ok"``
resolve, warm or cold, is held to ``cost <= 2 * OPT``.

Warm-start preconditions and fallback
-------------------------------------
A delta breaks the warm start when a removed edge carried solution flow,
the demand endpoints or ``k`` moved, ``D`` tightened below the current
delay, or no prior solution exists; each cold fallback is counted under
``online.fallback.<reason>`` (see docs/ONLINE.md for the full taxonomy).

Crash safety
------------
With ``journal_path`` set, a warm resolve writes the standard write-ahead
journal against the *patched* instance, with the warm start recorded as
the prelude's phase-1 paths — :func:`repro.robustness.resume_krsp`
continues a killed resolve bit-identically with no online-specific resume
code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from repro import obs
from repro._util.atomicio import atomic_write_json
from repro._util.timer import Timer
from repro.core.cancellation import DEFAULT_MAX_ITERATIONS, cancel_to_feasibility
from repro.core.instance import KRSPInstance, PathSet
from repro.core.krsp import KRSPSolution, assemble_solution, solve_krsp
from repro.core.phase1 import DEFAULT_PROVIDER, PROVIDERS, flow_lp_bound
from repro.errors import (
    BudgetExhaustedError,
    GraphError,
    InfeasibleInstanceError,
    InputError,
    IterationLimitError,
)
from repro.graph.io import instance_from_dict, instance_to_dict
from repro.online.deltas import (
    DemandMove,
    EdgeAddition,
    EdgeRemoval,
    EdgeReweight,
    InstanceDelta,
)
from repro.robustness.budget import SolveBudget, metered
from repro.robustness.checkpointing import (
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointHook,
    _solve_config,
    solve_checkpointed,
)
from repro.robustness.journal import JournalWriter

#: Schema tag of the persisted online-state file (``repro solve --state``).
STATE_SCHEMA = "online-state/1"

#: Provider name stamped on warm-resolve solutions and journal preludes.
WARM_PROVIDER = "online_warm"

# Cold-fallback reasons (counted as ``online.fallback.<reason>``).
FALLBACK_NO_PRIOR = "no_prior"
FALLBACK_DEMAND_MOVED = "demand_moved"
FALLBACK_REMOVED_SOLUTION_EDGE = "removed_solution_edge"
FALLBACK_BUDGET_TIGHTENED = "budget_tightened"
FALLBACK_GUARANTEE = "guarantee"
FALLBACK_WARM_INFEASIBLE = "warm_infeasible"
FALLBACK_WARM_STALLED = "warm_stalled"

FALLBACK_REASONS = (
    FALLBACK_NO_PRIOR,
    FALLBACK_DEMAND_MOVED,
    FALLBACK_REMOVED_SOLUTION_EDGE,
    FALLBACK_BUDGET_TIGHTENED,
    FALLBACK_GUARANTEE,
    FALLBACK_WARM_INFEASIBLE,
    FALLBACK_WARM_STALLED,
)


class _WarmAbort(Exception):
    """Internal: the warm path surrendered; fall back cold with a reason."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class ResolveInfo:
    """What the last :func:`resolve` call actually did (telemetry mirror)."""

    mode: str  # "warm" | "cold"
    fallback: str | None
    ops: dict[str, int] = field(default_factory=dict)
    cycles_cancelled: int = 0
    lb_refreshed: bool = False


@dataclass
class OnlineState:
    """The persistent handle of an online solving session.

    Owns the *live* instance (its graph is mutated in place by
    :func:`resolve`), the last solution and the certified cost lower bound.
    ``solution`` is ``None`` before the first successful solve and after
    an infeasible churn step; the next resolve then starts cold
    (``online.fallback.no_prior``) and re-arms the warm machinery.
    ``multiplier`` is the Lagrangian multiplier the last bound refresh
    or cold solve ended on, the next refresh's warm start; it is derived
    state and is not persisted.
    """

    instance: KRSPInstance
    solution: KRSPSolution | None
    lower_bound: Fraction | None
    phase1: str = DEFAULT_PROVIDER
    last: ResolveInfo | None = None
    multiplier: Fraction | None = None


def start_online(
    g,
    s: int,
    t: int,
    k: int,
    delay_bound: int,
    *,
    phase1: str = DEFAULT_PROVIDER,
    budget: SolveBudget | None = None,
    copy: bool = True,
) -> OnlineState:
    """Cold-solve an instance and open an online session around it.

    The graph is deep-copied by default — :func:`resolve` mutates the
    session's graph in place, and callers rarely want their input arrays
    drifting underneath them. Pass ``copy=False`` to adopt the arrays.
    """
    work = g.copy() if copy else g
    sol = solve_krsp(work, s, t, k, delay_bound, phase1=phase1, budget=budget)
    inst = KRSPInstance(graph=work, s=s, t=t, k=k, delay_bound=delay_bound)
    return OnlineState(
        instance=inst,
        solution=sol,
        lower_bound=sol.cost_lower_bound,
        phase1=phase1,
        multiplier=sol.multiplier,
    )


def resolve(
    state: OnlineState,
    delta: InstanceDelta,
    *,
    budget: SolveBudget | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    journal_path=None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    shutdown=None,
    fsync: bool = True,
) -> KRSPSolution:
    """Apply ``delta`` to the session and re-solve, warm when possible.

    Always leaves ``state.instance`` on the patched instance (identical to
    :func:`repro.online.deltas.apply_delta` on the old one — the
    delta-vs-scratch oracle relies on this). Returns the new solution and
    updates ``state``; ``state.last`` records whether the resolve ran warm
    and why it fell back if not.

    Raises :class:`InfeasibleInstanceError` when the patched instance
    admits no solution; the session survives (``state.solution`` becomes
    ``None``) and later deltas may restore feasibility.
    """
    obs.inc("online.resolves")
    inst = state.instance
    g = inst.graph
    old_bound = inst.delay_bound
    prev = state.solution

    op_counts = {"reweight": 0, "remove": 0, "add": 0, "demand": 0}
    fallback: str | None = None if prev is not None else FALLBACK_NO_PRIOR
    sol_paths = [list(p) for p in prev.paths] if prev is not None else None
    new_s, new_t, new_k, new_bound = inst.s, inst.t, inst.k, inst.delay_bound
    softening = False

    def drop_warm(reason: str) -> None:
        nonlocal fallback, sol_paths
        if fallback is None:
            fallback = reason
        sol_paths = None

    for op in delta.ops:
        if isinstance(op, EdgeReweight):
            op_counts["reweight"] += 1
            e = int(op.edge_id)
            if not (0 <= e < g.m):
                raise InputError(f"reweight edge id {e} out of range (m={g.m})")
            if op.cost < 0 or op.delay < 0:
                raise InputError("reweight weights must be nonnegative")
            if op.cost < int(g.cost[e]) or op.delay < int(g.delay[e]):
                softening = True
            g.cost[e] = op.cost
            g.delay[e] = op.delay
        elif isinstance(op, EdgeRemoval):
            op_counts["remove"] += 1
            e = int(op.edge_id)
            if not (0 <= e < g.m):
                raise InputError(f"remove edge id {e} out of range (m={g.m})")
            if sol_paths is not None and any(e in p for p in sol_paths):
                # The edge carries solution flow: deleting it breaks the
                # k-flow, the canonical warm-start precondition failure.
                drop_warm(FALLBACK_REMOVED_SOLUTION_EDGE)
            id_map = g.remove_edges(np.array([e], dtype=np.int64))
            if sol_paths is not None:
                sol_paths = [[int(id_map[x]) for x in p] for p in sol_paths]
        elif isinstance(op, EdgeAddition):
            op_counts["add"] += 1
            if not (0 <= op.tail < g.n and 0 <= op.head < g.n):
                raise InputError(
                    f"add endpoints ({op.tail}, {op.head}) out of range (n={g.n})"
                )
            if op.cost < 0 or op.delay < 0:
                raise InputError("add weights must be nonnegative")
            g.add_edges(
                np.array([op.tail]),
                np.array([op.head]),
                np.array([op.cost]),
                np.array([op.delay]),
            )
            softening = True
        elif isinstance(op, DemandMove):
            op_counts["demand"] += 1
            if op.s is not None and int(op.s) != new_s:
                new_s = int(op.s)
                drop_warm(FALLBACK_DEMAND_MOVED)
            if op.t is not None and int(op.t) != new_t:
                new_t = int(op.t)
                drop_warm(FALLBACK_DEMAND_MOVED)
            if op.k is not None and int(op.k) != new_k:
                new_k = int(op.k)
                drop_warm(FALLBACK_DEMAND_MOVED)
            if op.delay_bound is not None:
                if int(op.delay_bound) > new_bound:
                    softening = True
                new_bound = int(op.delay_bound)
        else:
            raise InputError(f"unknown delta op {op!r}")
        obs.inc("online.delta_applied")
    for kind, cnt in op_counts.items():
        if cnt:
            obs.add(f"online.ops.{kind}", cnt)

    try:
        new_inst = KRSPInstance(
            graph=g, s=new_s, t=new_t, k=new_k, delay_bound=new_bound
        )
    except GraphError:
        # The delta produced a nonsensical instance (s == t, k < 1, ...);
        # the graph patches already landed, so poison the session's warm
        # start before surfacing the input error.
        state.solution = None
        state.last = ResolveInfo(mode="cold", fallback="invalid", ops=op_counts)
        raise
    state.instance = new_inst

    start: PathSet | None = None
    if fallback is None:
        try:
            start = new_inst.path_set(sol_paths)
        except GraphError:
            drop_warm(FALLBACK_REMOVED_SOLUTION_EDGE)  # defensive; unreachable
    if (
        fallback is None
        and start is not None
        and new_bound < old_bound
        and start.delay > new_bound
    ):
        # D tightened past the current delay: the warm start would have to
        # cancel its way down from a budget it was never shaped for; the
        # registered precondition says re-solve cold instead.
        drop_warm(FALLBACK_BUDGET_TIGHTENED)

    kwargs = dict(
        budget=budget,
        max_iterations=max_iterations,
        journal_path=journal_path,
        checkpoint_every=checkpoint_every,
        shutdown=shutdown,
        fsync=fsync,
    )
    if fallback is not None:
        return _resolve_cold(state, reason=fallback, ops=op_counts, **kwargs)
    assert start is not None
    try:
        return _resolve_warm(
            state, start, softening=softening, ops=op_counts, **kwargs
        )
    except _WarmAbort as abort:
        return _resolve_cold(state, reason=abort.reason, ops=op_counts, **kwargs)


def _flow_lb(state: OnlineState) -> Fraction:
    """Exact flow-LP optimum of the session's instance, warm-started from
    (and updating) the session's multiplier.

    An infeasible verdict certifies instance infeasibility — surrender the
    warm path and let the cold solve's exact gate raise the canonical error.
    """
    hint = state.multiplier
    try:
        lb, state.multiplier = flow_lp_bound(state.instance, hint)
    except InfeasibleInstanceError:
        raise _WarmAbort(FALLBACK_WARM_INFEASIBLE) from None
    if not hint:
        obs.inc("online.lb_refresh.cold")
    elif state.multiplier == hint:
        obs.inc("online.lb_refresh.multiplier_kept")
    return lb


def _resolve_warm(
    state: OnlineState,
    start: PathSet,
    *,
    softening: bool,
    ops: dict[str, int],
    budget: SolveBudget | None,
    max_iterations: int,
    journal_path,
    checkpoint_every: int,
    shutdown,
    fsync: bool,
) -> KRSPSolution:
    inst = state.instance
    g = inst.graph
    timer = Timer(span_prefix="online")
    meter = budget.start() if budget is not None else None

    writer = None
    hook = None
    result = None
    exhausted: str | None = None
    lb = state.lower_bound
    refreshed = False
    try:
        with metered(meter):
            try:
                with timer.section("lower_bound"):
                    if softening or lb is None:
                        # A softening delta may lower the optimum below the
                        # carried bound — the old LB is no longer certified.
                        lb = _flow_lb(state)
                        refreshed = True
                        obs.inc("online.lb_refresh")
                    else:
                        obs.inc("online.lb_reused")

                if journal_path is not None:
                    config = _solve_config(
                        phase1=state.phase1,
                        b_max=None,
                        max_iterations=max_iterations,
                        opt_cost=None,
                        strict_monitor=False,
                        checkpoint_every=checkpoint_every,
                    )
                    writer = JournalWriter.fresh(
                        journal_path,
                        instance=instance_to_dict(
                            g, inst.s, inst.t, inst.k, inst.delay_bound
                        ),
                        config=config,
                        fsync=fsync,
                    )
                    hook = CheckpointHook(
                        writer, every=checkpoint_every, shutdown=shutdown
                    )
                    # The warm start plays the prelude's phase-1 role: a
                    # killed resolve resumes through the stock resume_krsp
                    # path, bit-identically, with no online-specific code.
                    hook.write_prelude(
                        provider=WARM_PROVIDER,
                        p1_solution=start,
                        lower_bound=lb,
                        cost_cap=None,
                        cap_paths=None,
                        min_delay=None,
                    )

                if start.delay > inst.delay_bound:
                    with timer.section("cancel"):
                        result = cancel_to_feasibility(
                            inst,
                            start,
                            cost_lower_bound=lb,
                            cost_cap=None,
                            max_iterations=max_iterations,
                            finder="production",
                            meter=meter,
                            journal=hook,
                        )
                    exhausted = result.exhausted
                    obs.add("online.cycles_cancelled", result.iterations)
            except BudgetExhaustedError as exc:
                exhausted = exc.reason
            except InfeasibleInstanceError:
                # Step 2(a) from the warm flow says infeasible; the cold
                # pipeline's exact min-delay-flow gate is the authority.
                raise _WarmAbort(FALLBACK_WARM_INFEASIBLE) from None
            except IterationLimitError:
                raise _WarmAbort(FALLBACK_WARM_STALLED) from None

        if result is not None:
            final_paths = [list(p) for p in result.solution.paths]
        else:
            # Either no cancellation was needed or the budget tripped before
            # the loop ran; the warm start itself is the best valid answer.
            final_paths = [list(p) for p in start.paths]

        if exhausted is None:
            cost = g.cost_of([e for p in final_paths for e in p])
            if Fraction(cost) > 2 * lb and not refreshed:
                # The reused (hardening) bound may just be slack — buy one
                # exact re-certification before giving up on the warm result.
                lb = max(lb, _flow_lb(state))
                refreshed = True
                obs.inc("online.lb_refresh")
            if Fraction(cost) > 2 * lb:
                raise _WarmAbort(FALLBACK_GUARANTEE)

        sol = assemble_solution(
            g,
            inst.delay_bound,
            final_paths=final_paths,
            result=result,
            exhausted=exhausted,
            lower_bound=lb,
            provider_name=WARM_PROVIDER,
            scaled=False,
            timings=timer.as_dict(),
            meter=meter,
        )
        if hook is not None:
            hook.write_final(sol)
        state.solution = sol
        state.lower_bound = lb
        state.last = ResolveInfo(
            mode="warm",
            fallback=None,
            ops=ops,
            cycles_cancelled=result.iterations if result is not None else 0,
            lb_refreshed=refreshed,
        )
        obs.inc("online.warm")
        obs.emit(
            "online.resolve",
            mode="warm",
            fallback=None,
            cost=sol.cost,
            delay=sol.delay,
            cycles=state.last.cycles_cancelled,
            lb_refreshed=refreshed,
            status=sol.status,
        )
        return sol
    finally:
        if writer is not None:
            writer.close()


def _resolve_cold(
    state: OnlineState,
    *,
    reason: str,
    ops: dict[str, int],
    budget: SolveBudget | None,
    max_iterations: int,
    journal_path,
    checkpoint_every: int,
    shutdown,
    fsync: bool,
) -> KRSPSolution:
    obs.inc("online.cold")
    obs.inc(f"online.fallback.{reason}")
    inst = state.instance
    info = ResolveInfo(mode="cold", fallback=reason, ops=ops, lb_refreshed=True)
    state.last = info
    try:
        if journal_path is not None:
            sol = solve_checkpointed(
                inst.graph,
                inst.s,
                inst.t,
                inst.k,
                inst.delay_bound,
                journal_path=journal_path,
                checkpoint_every=checkpoint_every,
                phase1=state.phase1,
                max_iterations=max_iterations,
                shutdown=shutdown,
                fsync=fsync,
            )
        else:
            sol = solve_krsp(
                inst.graph,
                inst.s,
                inst.t,
                inst.k,
                inst.delay_bound,
                phase1=state.phase1,
                max_iterations=max_iterations,
                budget=budget,
            )
    except InfeasibleInstanceError:
        state.solution = None
        state.lower_bound = None
        raise
    state.solution = sol
    state.lower_bound = sol.cost_lower_bound
    if sol.multiplier is not None:
        state.multiplier = sol.multiplier
    obs.emit(
        "online.resolve",
        mode="cold",
        fallback=reason,
        cost=sol.cost,
        delay=sol.delay,
        cycles=0,
        lb_refreshed=True,
        status=sol.status,
    )
    return sol


# -- persistence (CLI round-trips) ------------------------------------------


def state_to_dict(state: OnlineState) -> dict:
    """Serializable snapshot of a session (instance, solution, bound)."""
    inst = state.instance
    sol = state.solution
    return {
        "schema": STATE_SCHEMA,
        "phase1": state.phase1,
        "instance": instance_to_dict(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
        ),
        "lower_bound": None if state.lower_bound is None else str(state.lower_bound),
        "solution": None
        if sol is None
        else {
            "paths": [[int(e) for e in p] for p in sol.paths],
            "status": sol.status,
            "provider": sol.provider,
            "iterations": int(sol.iterations),
        },
    }


def state_from_dict(data) -> OnlineState:
    """Rebuild a session from :func:`state_to_dict` output (untrusted).

    Everything is revalidated: the solution must be ``k`` disjoint
    ``s``-``t`` paths of the stored instance — a tampered state file
    degrades to an error, never to a silently wrong warm start. A
    ``residual`` key written by older versions is ignored: the warm path
    builds every residual from the solution.
    """
    if not isinstance(data, dict) or data.get("schema") != STATE_SCHEMA:
        raise InputError(
            f"unsupported online state schema "
            f"{data.get('schema') if isinstance(data, dict) else data!r} "
            f"(expected {STATE_SCHEMA!r})"
        )
    g, s, t, k, delay_bound = instance_from_dict(data["instance"])
    inst = KRSPInstance(graph=g, s=s, t=t, k=k, delay_bound=delay_bound)
    lb_text = data.get("lower_bound")
    if lb_text is None:
        lb = None
    else:
        try:
            lb = Fraction(lb_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad lower_bound in online state: {exc}") from None
    phase1 = data.get("phase1", DEFAULT_PROVIDER)
    if not isinstance(phase1, str):
        raise InputError("online state phase1 must be a string")
    if phase1 not in PROVIDERS:
        raise InputError(f"unknown phase-1 provider {phase1!r} in online state")

    solution = None
    sol_data = data.get("solution")
    if sol_data is not None:
        try:
            paths = [[int(e) for e in p] for p in sol_data["paths"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad solution paths in online state: {exc}") from None
        try:
            ps = inst.path_set(paths)
        except GraphError as exc:
            raise InputError(f"online state solution invalid: {exc}") from None
        solution = KRSPSolution(
            paths=paths,
            cost=ps.cost,
            delay=ps.delay,
            delay_bound=delay_bound,
            delay_feasible=ps.delay <= delay_bound,
            cost_lower_bound=lb,
            iterations=int(sol_data.get("iterations", 0)),
            provider=str(sol_data.get("provider", "")),
            status=str(sol_data.get("status", "ok")),
        )
    return OnlineState(
        instance=inst,
        solution=solution,
        lower_bound=lb,
        phase1=phase1,
    )


def save_state(path: str | Path, state: OnlineState) -> None:
    """Atomically persist a session (``repro solve --state`` / ``resolve``)."""
    atomic_write_json(path, state_to_dict(state), indent=2, sort_keys=True)


def load_state(path: str | Path) -> OnlineState:
    """Read and validate a persisted session."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read online state {path}: {exc}") from None
    return state_from_dict(data)
