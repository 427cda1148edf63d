"""Inputs and operations of the closed-loop workloads.

Instance universes are pinned: every seed solves the same instances, and
the workload seed sets the order in which they are visited. With
seed-drawn instances the run-to-run spread of the medians was 20-30%:
per-operation latencies are multi-modal (instance families, warm resolves
that reuse or refresh their lower bound), so the median moved with the mix
a seed happened to draw.

Building a fixture is the benchmark's set-up: instance generation and
filtering, the exact reference optimum of every instance the run can
touch (``solve_krsp_milp``) and, for ``online_churn``, the
``start_online`` bases. An operation is an :class:`Op`: ``run`` is timed
and goes through the public API only; ``check`` is not timed and verifies
the answer (structure and exact totals via ``verify_solution``, delay <=
D, cost <= 2 * OPT).

Functions are looked up on their modules at call time
(``krsp.solve_krsp``, ``online_engine.resolve``, ``verify.verify_solution``)
so the traced run's wrappers see them.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core import cancellation, krsp, verify
from repro.core.instance import KRSPInstance
from repro.core.phase1 import PROVIDERS
from repro.errors import IterationLimitError
from repro.eval import workloads
from repro.lp.milp import solve_krsp_milp
from repro.online import engine as online_engine
from repro.oracle import generate_churn_trace, replay_instances
from repro.oracle.instances import OracleInstance
from repro.robustness.budget import SolveBudget

#: Seed of the pinned instance universes.
UNIVERSE_SEED = 2015

#: Instances kept per family and the candidate cap searched to find them.
TIGHT_PER_FAMILY = 12
LOOSE_PER_FAMILY = 16
CANDIDATES = 400

#: online_churn: pinned bases (the n = 40 E10 substrate), each with one
#: churn trace of this many steps.
CHURN_BASE_SEED = 1040
CHURN_BASES = 6
CHURN_STEPS = 8
CHURN_TRACE_ATTEMPTS = 50


@dataclass
class Op:
    """One timed operation and its untimed correctness check.

    ``check`` returns ``(cost / OPT, None)`` or ``(None, reason)``.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[float | None, str | None]]
    prepare: Callable[[], None] | None = None


def check_answer(g, s, t, k, delay_bound, sol, opt: int):
    """Verify one returned solution against the instance and its optimum."""
    report = verify.verify_solution(
        g, s, t, k, delay_bound, sol.paths,
        check_bounds=False, claimed_cost=sol.cost, claimed_delay=sol.delay,
    )
    if not report.clean:
        return None, "; ".join(report.issues) or "verification failed"
    if sol.cost > 2 * opt:
        return None, f"cost {sol.cost} > 2 * OPT {opt}"
    return (sol.cost / opt if opt else 1.0), None


def _family_seed(index: int) -> int:
    return 7919 * UNIVERSE_SEED + 104729 * index + 17


def _phase1(w):
    inst = KRSPInstance(w.graph, w.s, w.t, w.k, w.delay_bound)
    return inst, PROVIDERS["lp_rounding"](inst)


def _searches_aux_graphs(inst, p1) -> bool:
    """Whether cancelling from the phase-1 start reaches the
    auxiliary-graph sweep (and so the ratio LP) instead of finishing on a
    cycle the Bellman-Ford probes certify.

    Decided by one cancellation step under a one-node search budget: it
    stops at the first auxiliary graph, so the test is cheap and counts
    work, not time. Without the solver's cost cap the probe stage accepts
    at least as much as in a full solve, so a kept instance always runs
    the ratio LP there.
    """
    result = cancellation.cancel_to_feasibility(
        inst, p1.solution,
        cost_lower_bound=p1.cost_lower_bound,
        max_iterations=1,
        meter=SolveBudget(max_search_nodes=1).start(),
    )
    return result.exhausted == "search_nodes"


def _keep(stream, tight: bool, count: int):
    """First ``count`` instances of ``stream`` with their exact optimum.

    Tight pools keep instances whose phase-1 start violates D and whose
    cancellation reaches the ratio LP; loose pools keep instances whose
    phase-1 start already meets D.
    """
    kept = []
    for w in stream:
        inst, p1 = _phase1(w)
        if (p1.solution.delay > w.delay_bound) != tight:
            continue
        if tight and not _searches_aux_graphs(inst, p1):
            continue
        exact = solve_krsp_milp(w.graph, w.s, w.t, w.k, w.delay_bound)
        if exact is None:
            continue
        kept.append((w, exact.cost))
        if len(kept) == count:
            return kept
    raise RuntimeError(f"only {len(kept)} of {count} instances found")


class SolvePool:
    """A pinned instance pool solved round-robin with ``solve_krsp``, in
    an order set by the workload seed."""

    def __init__(self, items: list, seed: int) -> None:
        self.items = list(items)
        random.Random(seed).shuffle(self.items)
        self.pass_size = len(self.items)

    def ops(self) -> Iterator[Op]:
        while True:
            for w, opt in self.items:
                yield Op(
                    label=f"{w.name} seed={w.seed}",
                    run=lambda w=w: krsp.solve_krsp(
                        w.graph, w.s, w.t, w.k, w.delay_bound
                    ),
                    check=lambda sol, w=w, opt=opt: check_answer(
                        w.graph, w.s, w.t, w.k, w.delay_bound, sol, opt
                    ),
                )

    def close(self) -> None:
        pass


def tight_budget(seed: int) -> SolvePool:
    """ER, ring and grid instances at tightness 0.9 whose phase-1 start
    violates D and whose first search reaches the ratio LP, so every solve
    runs the cancellation loop through the paper's hot path."""
    streams = [
        workloads.er_anticorrelated(
            n=9, tightness=0.9, n_instances=CANDIDATES, seed=_family_seed(0)
        ),
        workloads.ring_anticorrelated(
            n_cliques=3, clique_size=3, tightness=0.9, n_instances=CANDIDATES,
            seed=_family_seed(1),
        ),
        workloads.grid_anticorrelated(
            rows=3, cols=3, tightness=0.9, n_instances=CANDIDATES,
            seed=_family_seed(2),
        ),
    ]
    return SolvePool(
        [item for s in streams for item in _keep(s, True, TIGHT_PER_FAMILY)], seed
    )


def loose_budget(seed: int) -> SolvePool:
    """n ~ 40 ER, Waxman and grid instances at tightness 0 whose phase-1
    start already meets D, so no ratio LP runs."""
    streams = [
        workloads.er_uniform(
            n=40, tightness=0.0, n_instances=CANDIDATES, seed=_family_seed(3)
        ),
        workloads.waxman_euclidean(
            n=40, tightness=0.0, n_instances=CANDIDATES, seed=_family_seed(4)
        ),
        workloads.grid_anticorrelated(
            rows=6, cols=7, tightness=0.0, n_instances=CANDIDATES,
            seed=_family_seed(5),
        ),
    ]
    return SolvePool(
        [item for s in streams for item in _keep(s, False, LOOSE_PER_FAMILY)], seed
    )


@dataclass
class _ChurnBase:
    label: str
    state: online_engine.OnlineState
    deltas: tuple
    steps: list  # (delay_bound, OPT) of each post-delta instance


class ChurnPool:
    """Pinned ``start_online`` bases replayed through their churn traces,
    bases in an order set by the workload seed.

    Each pass over a base resolves a fresh copy of its pristine session
    (copied outside the timed region), so every pass visits the same
    instance sequence and the precomputed optima stay valid.
    """

    def __init__(self, bases: list[_ChurnBase], seed: int) -> None:
        self.bases = list(bases)
        random.Random(seed).shuffle(self.bases)
        self.pass_size = sum(len(base.deltas) for base in self.bases)

    def ops(self) -> Iterator[Op]:
        while True:
            for base in self.bases:
                live: dict[str, Any] = {}

                def fresh(base=base, live=live):
                    live["state"] = copy.deepcopy(base.state)

                for i, delta in enumerate(base.deltas):
                    yield Op(
                        label=f"{base.label} step={i}",
                        run=lambda delta=delta, live=live: online_engine.resolve(
                            live["state"], delta
                        ),
                        check=lambda sol, i=i, base=base, live=live: _check_resolve(
                            live["state"], sol, *base.steps[i]
                        ),
                        prepare=fresh if i == 0 else None,
                    )

    def close(self) -> None:
        pass


def _check_resolve(state, sol, delay_bound: int, opt: int):
    inst = state.instance
    if inst.delay_bound != delay_bound:
        return None, f"session D {inst.delay_bound} != replayed D {delay_bound}"
    return check_answer(inst.graph, inst.s, inst.t, inst.k, delay_bound, sol, opt)


def _needs_no_cancellation(state, trace) -> bool:
    """Dry-run ``trace`` on a copy of ``state`` with no cancellation
    allowed: true when every resolve either stays warm without cancelling
    or falls back to a cold solve whose phase-1 start already fits.

    At n = 40 a resolve that has to cancel runs ratio LPs for seconds;
    keeping such traces out holds every resolve to the ~10 ms warm path or
    a cheap cold fallback. The test counts iterations, not time, so it
    keeps the same traces on any machine.
    """
    dry = copy.deepcopy(state)
    for delta in trace.deltas:
        try:
            online_engine.resolve(dry, delta, max_iterations=0)
        except IterationLimitError:
            return False
        if dry.last.fallback == online_engine.FALLBACK_WARM_STALLED:
            return False
    return True


def online_churn(seed: int) -> ChurnPool:
    """Pinned n = 40 bases whose phase-1 start fits, each under a
    ``generate_churn_trace`` trace that needs no cancellation."""
    pinned = workloads.er_anticorrelated(
        n=40, n_instances=CANDIDATES, seed=CHURN_BASE_SEED
    )
    bases = []
    for w in pinned:
        _inst, p1 = _phase1(w)
        if p1.solution.delay > w.delay_bound:
            continue
        b = len(bases)
        oracle = OracleInstance(
            graph=w.graph, s=w.s, t=w.t, k=w.k, delay_bound=w.delay_bound,
            label=f"base{b}", substrate="er_anticorrelated", seed=w.seed,
        )
        state = online_engine.start_online(w.graph, w.s, w.t, w.k, w.delay_bound)
        for attempt in range(CHURN_TRACE_ATTEMPTS):
            trace_seed = _family_seed(6 + b) + 1000003 * attempt
            trace = generate_churn_trace(oracle, CHURN_STEPS, rng=trace_seed)
            if _needs_no_cancellation(state, trace):
                break
        else:
            raise RuntimeError(f"no cheap churn trace for base {b}")
        steps = []
        for _step, _delta, g, s, t, k, bound in replay_instances(trace):
            exact = solve_krsp_milp(g, s, t, k, bound)
            if exact is None:
                raise RuntimeError(f"churn trace {trace_seed} left feasibility")
            steps.append((bound, exact.cost))
        bases.append(_ChurnBase(
            label=f"base{b} trace_seed={trace_seed}",
            state=state,
            deltas=trace.deltas,
            steps=steps,
        ))
        if len(bases) == CHURN_BASES:
            return ChurnPool(bases, seed)
    raise RuntimeError(f"only {len(bases)} of {CHURN_BASES} churn bases found")
