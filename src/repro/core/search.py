"""Bicameral-cycle search driver (Algorithm 3).

Combines the cheap single-criterion probes with the layered-graph machinery:

1. **Fast probes** — Bellman–Ford negative-cycle detection on the residual
   graph under delay alone and under cost alone. Each hit is split into
   simple cycles and classified; a type-0 hit short-circuits everything
   (no auxiliary graph is ever built).
2. **Layered sweep** — for ``B`` doubling up to ``sum |c(e)|`` (the largest
   possible running-cost spread of any simple residual cycle), build the
   shifted auxiliary graph and find an exact minimum-ratio cycle
   (:func:`repro.core.auxlp.min_ratio_cycle`) for both cost signs,
   accumulating candidates. The sweep stops early once a
   type-0 candidate appears; otherwise all candidates are returned for
   rate-based selection by the cancellation loop.

Correctness: every residual cycle has running-cost spread at most
``sum |c|``, so it is representable in the final sweep step; Theorem 16
then guarantees a bicameral cycle is among the released candidates whenever
one exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.core.auxgraph import AuxGraph, build_aux_shifted
from repro.core.auxlp import (
    candidates_from_circulation,
    candidates_from_cycles,
    min_ratio_cycle,
)
from repro.core.bicameral import CandidateCycle, CycleType, classify
from repro.core.cycle_decompose import split_closed_walk
from repro.core.residual import ResidualGraph
from repro.paths.bellman_ford import find_negative_cycle
from repro.robustness.budget import BudgetMeter

#: Auxiliary-graph construction hook: ``(residual DiGraph, B) -> AuxGraph``,
#: signature-compatible with :func:`build_aux_shifted`. The incremental
#: engine (:mod:`repro.perf`) plugs its cache in here; any provider must
#: return graphs bit-identical to a fresh build for the search to stay
#: equivalent to the from-scratch path.
AuxProvider = Callable[..., AuxGraph]


@dataclass
class SearchStats:
    """Instrumentation of one candidate search (feeds experiment E6)."""

    bf_probes: int = 0
    lp_solves: int = 0
    aux_nodes_built: int = 0
    aux_edges_built: int = 0
    b_values: list[int] = field(default_factory=list)
    candidates: int = 0
    short_circuited_type0: bool = False

    def _snapshot(self) -> tuple[int, int, int, int, int]:
        """Cumulative fields, for delta-flushing into obs counters (the
        same stats object is shared across cancellation iterations)."""
        return (
            self.bf_probes,
            self.lp_solves,
            self.aux_nodes_built,
            self.aux_edges_built,
            len(self.b_values),
        )

    def _flush_delta(self, before: tuple[int, int, int, int, int]) -> None:
        """Emit the change since ``before`` as search.* counters."""
        after = self._snapshot()
        for name, b, a in zip(
            (
                "search.bf_probes",
                "search.lp_solves",
                "search.aux_nodes",
                "search.aux_edges",
                "search.sweep_levels",
            ),
            before,
            after,
        ):
            obs.add(name, a - b)
        obs.add("bicameral.cycles_found", self.candidates)
        if self.short_circuited_type0:
            obs.inc("search.type0_short_circuits")


def _probe_candidates(residual: ResidualGraph, stats: SearchStats) -> list[CandidateCycle]:
    """Single-criterion Bellman–Ford probes for negative cycles."""
    g = residual.graph
    out: list[CandidateCycle] = []
    for weight in (g.delay, g.cost):
        stats.bf_probes += 1
        cyc = find_negative_cycle(g, weight=weight)
        if cyc is None:
            continue
        for simple in split_closed_walk(g, cyc):
            out.append(
                CandidateCycle(
                    edges=tuple(simple),
                    cost=g.cost_of(simple),
                    delay=g.delay_of(simple),
                )
            )
    return out


def _has_type0(candidates: list[CandidateCycle]) -> bool:
    return any(
        classify(c.cost, c.delay, -1, None, None) is CycleType.TYPE0 for c in candidates
    )


def find_bicameral_cycle(
    residual: ResidualGraph,
    delta_d: int,
    delta_c_estimate: int | None,
    cost_cap: int | None,
    b_max: int | None = None,
    stats: SearchStats | None = None,
    fallback: str = "type1_first",
    delta_c_soft: int | None = None,
    type2_only_if_no_type1: bool = False,
    meter: BudgetMeter | None = None,
    aux_provider: "AuxProvider | None" = None,
) -> tuple[CandidateCycle, CycleType] | None:
    """Search-and-select with early stopping (the production path).

    ``aux_provider`` (signature-compatible with
    :func:`~repro.core.auxgraph.build_aux_shifted`) swaps in a cached
    construction — :meth:`repro.perf.IncrementalSearch.aux_provider` —
    whose outputs are bit-identical to a fresh build, so the sweep's
    control flow and every ratio-search input are unchanged.

    Telemetry: runs under a ``search.bicameral`` span and flushes the
    per-call work (probes, ratio searches, aux-graph sizes, candidates found)
    into ``search.*`` / ``bicameral.*`` counters on exit. Documented in
    detail on :func:`_find_bicameral_cycle_impl`. With a ``meter``, the
    sweep charges auxiliary-graph nodes against the budget's node cap and
    checks the deadline between ratio searches; a trip raises
    :class:`~repro.errors.BudgetExhaustedError` (counters still flush).
    """
    stats = stats if stats is not None else SearchStats()
    stats.short_circuited_type0 = False
    before = stats._snapshot()
    with obs.span("search.bicameral"):
        try:
            return _find_bicameral_cycle_impl(
                residual,
                delta_d,
                delta_c_estimate,
                cost_cap,
                b_max=b_max,
                stats=stats,
                fallback=fallback,
                delta_c_soft=delta_c_soft,
                type2_only_if_no_type1=type2_only_if_no_type1,
                meter=meter,
                aux_provider=aux_provider,
            )
        finally:
            stats._flush_delta(before)


def _find_bicameral_cycle_impl(
    residual: ResidualGraph,
    delta_d: int,
    delta_c_estimate: int | None,
    cost_cap: int | None,
    b_max: int | None = None,
    stats: SearchStats | None = None,
    fallback: str = "type1_first",
    delta_c_soft: int | None = None,
    type2_only_if_no_type1: bool = False,
    meter: BudgetMeter | None = None,
    aux_provider: "AuxProvider | None" = None,
) -> tuple[CandidateCycle, CycleType] | None:
    """Search-and-select with early stopping (the production path).

    Runs the probes, then the doubling sweep, consulting
    :func:`repro.core.bicameral.select_candidate` after every level and
    returning as soon as a usable cycle appears; most iterations never
    build the larger auxiliary graphs. Certification tiers:

    * **strict** — Definition 10 against ``delta_c_estimate`` (a *lower*
      bound on ``C_OPT - C_i``): passing cycles provably maintain the
      Lemma 11 induction against the true optimum.
    * **soft** — the same test against ``delta_c_soft = U - C_i`` where
      ``U >= C_OPT`` is the cheapest-feasible-flow upper bound. A true
      type-1 cycle always passes (the threshold is looser), and the
      Lemma 11 telescoping still holds with ``U`` in place of ``C_OPT``,
      yielding cost ``< 2 * U`` no matter which soft cycles get applied.
      A soft candidate seen early (e.g. straight from a Bellman–Ford
      probe) may still be a Figure-1-style trap that a later sweep level
      would beat, so soft acceptance additionally waits until the sweep
      radius reaches **twice the candidate's own |cost|** — by which point
      any cheaper better-ratio competitor of comparable scale is already
      among the candidates and outranks the trap. This keeps typical
      iterations at small radii (fast) without giving up the 2U floor.

    Falls back to soft-certified, then uncertified selection, after the
    sweep is exhausted.
    """
    from repro.core.bicameral import select_candidate

    stats = stats if stats is not None else SearchStats()
    g = residual.graph
    candidates = _probe_candidates(residual, stats)

    def certified_pick():
        picked = select_candidate(
            candidates,
            delta_d,
            delta_c_estimate,
            cost_cap,
            fallback=fallback,
            type2_only_if_no_type1=type2_only_if_no_type1,
        )
        if picked is None:
            return None
        if picked[1] is CycleType.TYPE0:
            return picked
        cand, ctype = picked
        if (
            classify(cand.cost, cand.delay, delta_d, delta_c_estimate, cost_cap)
            is ctype
        ):
            return picked
        return None

    pick = certified_pick()
    if pick is not None:
        stats.short_circuited_type0 = pick[1] is CycleType.TYPE0
        stats.candidates = len(candidates)
        return pick

    nonzero = np.abs(g.cost[g.cost != 0])
    total_abs_cost = int(np.abs(g.cost).sum())
    if b_max is None:
        b_max = max(1, total_abs_cost)
    b_max = max(1, min(b_max, max(1, total_abs_cost)))
    # No cycle uses a nonzero-cost edge at radius below that edge's |c|, and
    # all-zero-cost cycles are already covered by the Bellman-Ford probes.
    b = max(1, int(nonzero.min())) if len(nonzero) else 1
    b = min(b, b_max)

    def soft_pick_if_scale_covered(radius: int):
        """Soft-certified pick, accepted only once the sweep radius covers
        twice the pick's own |cost| (the anti-trap rule)."""
        if delta_c_soft is None:
            return None
        picked = select_candidate(
            candidates,
            delta_d,
            delta_c_soft,
            cost_cap,
            fallback=fallback,
            type2_only_if_no_type1=type2_only_if_no_type1,
        )
        if picked is None:
            return None
        cand, ctype = picked
        if ctype is not CycleType.TYPE0 and (
            classify(cand.cost, cand.delay, delta_d, delta_c_soft, cost_cap)
            is not ctype
        ):
            return None
        if radius < 2 * abs(cand.cost):
            return None
        return picked

    build = aux_provider if aux_provider is not None else build_aux_shifted
    seen: set[tuple[int, ...]] = set(tuple(sorted(c.edges)) for c in candidates)
    while True:
        aux = build(g, b)
        stats.aux_nodes_built += aux.graph.n
        stats.aux_edges_built += aux.graph.m
        stats.b_values.append(b)
        if meter is not None:
            meter.charge_search_nodes(aux.graph.n, "search.sweep")
        # Positive-cost cycles (type-1 material) are what a delay-infeasible
        # iteration almost always needs; solve the negative sign only when
        # the positive one did not already yield an accepted pick.
        for sign in (+1, -1):
            if meter is not None:
                meter.check("search.ratio_cycle")
            cyc = min_ratio_cycle(aux, sign)
            stats.lp_solves += 1
            if cyc is not None:
                for cand in candidates_from_cycles(aux, g, [cyc]):
                    key = tuple(sorted(cand.edges))
                    if key not in seen:
                        seen.add(key)
                        candidates.append(cand)
            pick = certified_pick() or soft_pick_if_scale_covered(b)
            if pick is not None:
                stats.short_circuited_type0 = pick[1] is CycleType.TYPE0
                stats.candidates = len(candidates)
                return pick
        if b >= b_max:
            break
        b = min(b * 2, b_max)

    stats.candidates = len(candidates)
    # Sweep exhausted with nothing strictly certified: prefer a soft-
    # certified pick (cost stays < 2 * U by the Lemma 11 telescoping with U
    # in place of C_OPT), then the uncertified fallback.
    if delta_c_soft is not None:
        soft = select_candidate(
            candidates,
            delta_d,
            delta_c_soft,
            cost_cap,
            fallback=fallback,
            type2_only_if_no_type1=type2_only_if_no_type1,
        )
        if soft is not None:
            return soft
    return select_candidate(
        candidates,
        delta_d,
        delta_c_estimate,
        cost_cap,
        fallback=fallback,
        type2_only_if_no_type1=type2_only_if_no_type1,
    )


def find_bicameral_candidates(
    residual: ResidualGraph,
    b_max: int | None = None,
    stats: SearchStats | None = None,
    meter: BudgetMeter | None = None,
    aux_provider: "AuxProvider | None" = None,
) -> list[CandidateCycle]:
    """Collect candidate cycles for bicameral selection.

    Parameters
    ----------
    residual:
        Residual graph of the current solution.
    b_max:
        Cost-radius ceiling for the layered sweep; defaults to
        ``sum |c(e)|`` (complete). Benchmarks pass smaller values to study
        the trade-off (experiment E6).
    stats:
        Optional instrumentation sink.
    meter:
        Optional armed budget; the sweep charges auxiliary-graph nodes
        and checks the deadline between ratio searches (a trip raises
        :class:`~repro.errors.BudgetExhaustedError`).

    Returns a deduplicated candidate list; possibly empty (no bicameral
    cycle — Algorithm 1 step 2(a) declares the instance infeasible).
    """
    stats = stats if stats is not None else SearchStats()
    stats.short_circuited_type0 = False
    before = stats._snapshot()
    with obs.span("search.candidates_full"):
        try:
            return _find_bicameral_candidates_impl(
                residual, b_max, stats, meter, aux_provider
            )
        finally:
            stats._flush_delta(before)


def _find_bicameral_candidates_impl(
    residual: ResidualGraph,
    b_max: int | None,
    stats: SearchStats,
    meter: BudgetMeter | None = None,
    aux_provider: "AuxProvider | None" = None,
) -> list[CandidateCycle]:
    """Body of :func:`find_bicameral_candidates` (telemetry-agnostic)."""
    g = residual.graph
    candidates = _probe_candidates(residual, stats)
    if _has_type0(candidates):
        stats.short_circuited_type0 = True
        stats.candidates = len(candidates)
        return candidates

    total_abs_cost = int(np.abs(g.cost).sum())
    if b_max is None:
        b_max = max(1, total_abs_cost)
    b_max = max(1, min(b_max, max(1, total_abs_cost)))

    build = aux_provider if aux_provider is not None else build_aux_shifted
    seen: set[tuple[int, ...]] = set(tuple(sorted(c.edges)) for c in candidates)
    b = 1
    while True:
        aux = build(g, b)
        stats.aux_nodes_built += aux.graph.n
        stats.aux_edges_built += aux.graph.m
        stats.b_values.append(b)
        if meter is not None:
            meter.charge_search_nodes(aux.graph.n, "search.candidates_full")
        for sign in (+1, -1):
            if meter is not None:
                meter.check("search.candidates_full.ratio")
            cyc = min_ratio_cycle(aux, sign)
            stats.lp_solves += 1
            if cyc is None:
                continue
            for cand in candidates_from_cycles(aux, g, [cyc]):
                key = tuple(sorted(cand.edges))
                if key not in seen:
                    seen.add(key)
                    candidates.append(cand)
        if _has_type0(candidates):
            stats.short_circuited_type0 = True
            break
        if b >= b_max:
            break
        b = min(b * 2, b_max)
    stats.candidates = len(candidates)
    return candidates


def reversed_edge_anchors(residual: ResidualGraph) -> list[int]:
    """Anchor vertices for the literal per-vertex search: heads of reversed
    edges. Every cycle with negative delay (or negative cost) contains a
    reversed edge — all input-graph weights are nonnegative — so anchoring
    at their heads loses nothing."""
    g = residual.graph
    rev = np.nonzero(residual.reversed_mask)[0]
    return sorted(set(int(g.head[e]) for e in rev) | set(int(g.tail[e]) for e in rev))


def find_bicameral_candidates_paper(
    residual: ResidualGraph,
    delta_d: int,
    b_values: list[int] | None = None,
    anchors: list[int] | None = None,
    stats: SearchStats | None = None,
    meter: BudgetMeter | None = None,
) -> list[CandidateCycle]:
    """Algorithm 3, literally: per-anchor ``H_v^+(B)`` / ``H_v^-(B)``
    graphs (layers 0..B, wraps only at ``v``), the paper's LP (6) on each,
    and the released support cycles as candidates.

    Exponentially more LP solves than the production shifted-graph search
    (one per (v, B, sign) instead of one per (B, sign)); exists for
    fidelity testing and the A3 ablation. ``b_values`` defaults to the
    doubling sweep up to ``sum |c|``; ``anchors`` defaults to
    :func:`reversed_edge_anchors`.
    """
    stats = stats if stats is not None else SearchStats()
    stats.short_circuited_type0 = False
    before = stats._snapshot()
    with obs.span("search.paper_literal"):
        try:
            return _find_bicameral_candidates_paper_impl(
                residual, delta_d, b_values, anchors, stats, meter
            )
        finally:
            stats._flush_delta(before)


def _find_bicameral_candidates_paper_impl(
    residual: ResidualGraph,
    delta_d: int,
    b_values: list[int] | None,
    anchors: list[int] | None,
    stats: SearchStats,
    meter: BudgetMeter | None = None,
) -> list[CandidateCycle]:
    """Body of :func:`find_bicameral_candidates_paper`."""
    from repro.core.auxgraph import build_aux_paper
    from repro.core.auxlp import solve_lp6

    g = residual.graph
    if anchors is None:
        anchors = reversed_edge_anchors(residual)
    if b_values is None:
        total = max(1, int(np.abs(g.cost).sum()))
        b_values = []
        b = 1
        while True:
            b_values.append(b)
            if b >= total:
                break
            b = min(b * 2, total)

    candidates: list[CandidateCycle] = []
    seen: set[tuple[int, ...]] = set()
    for b in b_values:
        for v in anchors:
            for sign in (+1, -1):
                aux = build_aux_paper(g, v, b, sign)
                stats.aux_nodes_built += aux.graph.n
                stats.aux_edges_built += aux.graph.m
                if meter is not None:
                    meter.charge_search_nodes(aux.graph.n, "search.paper_literal")
                x = solve_lp6(aux, delta_d)
                stats.lp_solves += 1
                if x is None:
                    continue
                for cand in candidates_from_circulation(aux, g, x):
                    key = tuple(sorted(cand.edges))
                    if key not in seen:
                        seen.add(key)
                        candidates.append(cand)
        stats.b_values.append(b)
    stats.candidates = len(candidates)
    return candidates
