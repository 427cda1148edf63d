"""Bicameral-cycle search driver (Algorithm 3).

Combines the cheap single-criterion probes with the layered-graph machinery:

1. **Fast probes** — Bellman–Ford negative-cycle detection on the residual
   graph under delay alone and under cost alone. Each hit is split into
   simple cycles and classified; a type-0 hit short-circuits everything
   (no auxiliary graph is ever built).
2. **Layered sweep** — for ``B`` doubling up to ``sum |c(e)|`` (the largest
   possible running-cost spread of any simple residual cycle), build the
   shifted auxiliary graph and find, for both cost signs, the cycle of
   least delay per unit cost that passes through one wrap at an anchor
   (:func:`reversed_edge_anchors`) and costs at most ``min(B, cost_cap)``
   (:func:`repro.core.auxlp.min_ratio_cycles`), accumulating candidates. A
   (level, sign) whose residual restriction has no cycle of that sign is
   skipped (:func:`_sweep`). The sweep stops early once a type-0 candidate
   appears; otherwise all candidates are returned for rate-based selection
   by the cancellation loop.

Correctness: every residual cycle has running-cost spread at most
``sum |c|``, so it is representable from each of its vertices in the final
sweep step, and every cycle of interest passes through an anchor. Each
cycle the search returns is a simple cycle of Algorithm 2's ``H_v^+(B)``
or ``H_v^-(B)``, over which Theorem 16 argues; the :mod:`repro.core.auxlp`
docstring says what the guarantee gives once the cycle's residual walk is
split.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro import obs
from repro.core.auxgraph import build_aux_shifted
from repro.core.auxlp import (
    candidates_from_circulation,
    candidates_from_cycles,
    min_ratio_cycles,
)
from repro.core.bicameral import CandidateCycle, CycleType, classify
from repro.core.cycle_decompose import split_closed_walk
from repro.core.residual import ResidualGraph
from repro.graph.digraph import DiGraph
from repro.paths.bellman_ford import find_negative_cycle
from repro.robustness.budget import charge_search_nodes

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


def _level_test(g: DiGraph) -> Callable[[int, int], bool]:
    """``test(B, sign)``: whether the residual ``g`` restricted to the
    edges with ``|c| <= 2B`` has a cycle with ``sign * c > 0`` (the
    residual rule-out of :func:`_sweep`).

    Bellman–Ford from a virtual source under ``-sign * c``, relaxing in
    place: without a negative cycle the distances settle within ``n - 1``
    rounds, so a change in round ``n`` proves one.
    """
    # Edges by |cost|: each restriction is a prefix.
    order = np.argsort(np.abs(g.cost), kind="stable")
    by_cost = np.abs(g.cost[order])
    tail, head, cost = (a[order].tolist() for a in (g.tail, g.head, g.cost))

    def test(b: int, sign: int) -> bool:
        k = int(np.searchsorted(by_cost, 2 * b, side="right"))
        edges = [(u, v, -sign * c) for u, v, c in zip(tail[:k], head[:k], cost[:k])]
        if all(w >= 0 for _, _, w in edges):
            return False
        dist = [0] * g.n
        for _ in range(g.n):
            changed = False
            for u, v, w in edges:
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
                    changed = True
            if not changed:
                return False
        return True

    return test


def _sweep(
    residual: ResidualGraph,
    cost_cap: int | None,
    candidates: list[CandidateCycle],
    b: int,
    stats: SearchStats,
) -> Iterator[tuple[int, int]]:
    """The doubling sweep over ``H(B)`` shared by both production finders.

    For ``B = b, 2b, ...`` up to :func:`_sweep_top`, searches ``H(B)`` once
    for both cost signs (:func:`~repro.core.auxlp.min_ratio_cycles` from the
    :func:`reversed_edge_anchors`, wraps of cost at most
    ``min(B, cost_cap)``), then for each sign (+1 first) appends
    the residual cycles its optimum releases to ``candidates``
    (deduplicated) and yields ``(B, sign)``, so
    the caller can judge the candidates after every (level, sign) and stop
    the sweep by leaving the loop. Each ``H(B)`` built is charged to the
    ambient budget's node cap (:func:`charge_search_nodes`).

    **Residual rule-out.** A one-wrap cycle of ``H(B)`` through a wrap of
    sign ``s`` projects, wrap dropped, to a closed residual walk whose cost
    is that wrap's, so ``s * cost > 0``, and which uses only residual edges
    with ``|c| <= 2B`` (no other edge has a copy in ``H(B)``). Such a walk
    splits into simple cycles, one of them with ``s * cost > 0``. So when
    the residual restricted to ``|c| <= 2B`` has no such cycle
    (:func:`_level_test`), that (level, sign) holds nothing to release and
    is skipped (``search.ratio.level_skips``); a level whose two signs are
    both ruled out builds no ``H(B)``. The restriction only grows with
    ``B``, so once a sign passes the test it is not tested again in this
    sweep.

    ``stats.lp_solves`` counts every (level, sign) step and
    ``stats.b_values`` every level, searched or ruled out.
    """
    g, anchors = residual.graph, reversed_edge_anchors(residual)
    top = _sweep_top(g)
    seen = set(tuple(sorted(c.edges)) for c in candidates)
    has_signed_cycle = _level_test(g)
    open_sign = {+1: False, -1: False}
    while True:
        stats.b_values.append(b)
        for sign in (+1, -1):
            open_sign[sign] = open_sign[sign] or has_signed_cycle(b, sign)
        cycles: dict[int, list[int]] = {}
        if open_sign[+1] or open_sign[-1]:
            aux = build_aux_shifted(g, b)
            stats.aux_nodes_built += aux.graph.n
            stats.aux_edges_built += aux.graph.m
            charge_search_nodes(aux.graph.n, "search.sweep")
            cycles = min_ratio_cycles(aux, anchors, b if cost_cap is None else min(b, cost_cap))
        for sign in (+1, -1):
            if not open_sign[sign]:
                obs.inc("search.ratio.level_skips")
            elif sign in cycles:
                for cand in candidates_from_cycles(aux, g, [cycles[sign]]):
                    key = tuple(sorted(cand.edges))
                    if key not in seen:
                        seen.add(key)
                        candidates.append(cand)
            stats.lp_solves += 1
            yield b, sign
        if b >= top:
            return
        b = min(b * 2, top)


@contextmanager
def _searching(span: str, stats: SearchStats | None) -> Iterator[SearchStats]:
    """Run one finder call under ``span`` on ``stats`` (a fresh
    :class:`SearchStats` when ``None``), flushing the call's work into the
    ``search.*`` / ``bicameral.*`` counters on exit, also when it raises."""
    stats = stats if stats is not None else SearchStats()
    stats.short_circuited_type0 = False
    before = stats._snapshot()
    with obs.span(span):
        try:
            yield stats
        finally:
            stats._flush_delta(before)


def _sweep_top(g: DiGraph) -> int:
    """The sweep's top radius: ``sum |c|``, the largest running-cost
    spread of any simple residual cycle."""
    return max(1, int(np.abs(g.cost).sum()))


def find_bicameral_cycle(
    residual: ResidualGraph,
    delta_d: int,
    delta_c_estimate: int | None,
    cost_cap: int | None,
    stats: SearchStats | None = None,
    fallback: str = "type1_first",
    delta_c_soft: int | None = None,
    type2_only_if_no_type1: bool = False,
) -> tuple[CandidateCycle, CycleType] | None:
    """Search-and-select with early stopping (the production path).

    Runs the probes, then the doubling sweep, consulting
    :func:`repro.core.bicameral.select_candidate` after every (level, sign) and
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

    Telemetry: runs under a ``search.bicameral`` span and flushes the
    per-call work (probes, ratio searches, aux-graph sizes, candidates
    found) into ``search.*`` / ``bicameral.*`` counters on exit. Under an
    ambient budget the sweep charges auxiliary-graph nodes against its
    node cap and each ratio search checks it; a trip raises
    :class:`~repro.errors.BudgetExhaustedError` (counters still flush).
    """
    from repro.core.bicameral import select_candidate

    def select(delta_c: int | None):
        return select_candidate(
            candidates,
            delta_d,
            delta_c,
            cost_cap,
            fallback=fallback,
            type2_only_if_no_type1=type2_only_if_no_type1,
        )

    def certified(delta_c: int | None):
        """``select(delta_c)`` when its cycle really classifies as the
        type it was picked as (a type-0 pick needs no check)."""
        picked = select(delta_c)
        if picked is None or picked[1] is CycleType.TYPE0:
            return picked
        cand, ctype = picked
        if classify(cand.cost, cand.delay, delta_d, delta_c, cost_cap) is ctype:
            return picked
        return None

    def soft_pick_if_scale_covered(radius: int):
        """Soft-certified pick, accepted only once the sweep radius covers
        twice the pick's own |cost| (the anti-trap rule)."""
        if delta_c_soft is None:
            return None
        picked = certified(delta_c_soft)
        if picked is None or radius < 2 * abs(picked[0].cost):
            return None
        return picked

    with _searching("search.bicameral", stats) as stats:
        g = residual.graph
        candidates = _probe_candidates(residual, stats)
        pick = certified(delta_c_estimate)
        if pick is not None:
            stats.short_circuited_type0 = pick[1] is CycleType.TYPE0
            stats.candidates = len(candidates)
            return pick

        nonzero = np.abs(g.cost[g.cost != 0])
        # No cycle uses a nonzero-cost edge at radius below that edge's
        # |c|, and all-zero-cost cycles are already covered by the
        # Bellman-Ford probes.
        b = max(1, int(nonzero.min())) if len(nonzero) else 1

        # Positive-cost cycles (type-1 material) are what a delay-infeasible
        # iteration almost always needs; the sweep releases the negative
        # sign's cycles only when the positive one did not already yield
        # an accepted pick.
        for radius, _sign in _sweep(residual, cost_cap, candidates, b, stats):
            pick = certified(delta_c_estimate) or soft_pick_if_scale_covered(radius)
            if pick is not None:
                stats.short_circuited_type0 = pick[1] is CycleType.TYPE0
                stats.candidates = len(candidates)
                return pick

        stats.candidates = len(candidates)
        # Sweep exhausted with nothing strictly certified: prefer a soft-
        # certified pick (cost stays < 2 * U by the Lemma 11 telescoping
        # with U in place of C_OPT), then the uncertified fallback.
        if delta_c_soft is not None:
            soft = select(delta_c_soft)
            if soft is not None:
                return soft
        return select(delta_c_estimate)


def find_bicameral_candidates(
    residual: ResidualGraph,
    stats: SearchStats | None = None,
) -> list[CandidateCycle]:
    """Collect candidate cycles for bicameral selection.

    The layered sweep runs to ``sum |c(e)|`` (complete) unless a type-0
    candidate appears first. Under an ambient budget it charges
    auxiliary-graph nodes and each ratio search checks the budget (a trip
    raises :class:`~repro.errors.BudgetExhaustedError`).

    Parameters
    ----------
    residual:
        Residual graph of the current solution.
    stats:
        Optional instrumentation sink.

    Returns a deduplicated candidate list; possibly empty (no bicameral
    cycle — Algorithm 1 step 2(a) declares the instance infeasible).
    """
    with _searching("search.candidates_full", stats) as stats:
        candidates = _probe_candidates(residual, stats)
        if _has_type0(candidates):
            stats.short_circuited_type0 = True
            stats.candidates = len(candidates)
            return candidates

        for _radius, sign in _sweep(residual, None, candidates, 1, stats):
            if sign < 0 and _has_type0(candidates):
                stats.short_circuited_type0 = True
                break
        stats.candidates = len(candidates)
        return candidates


def reversed_edge_anchors(residual: ResidualGraph) -> list[int]:
    """Anchor vertices of the one-wrap searches: the heads and the tails of
    the reversed residual edges, sorted.

    They lose no cycle of interest. A bicameral cycle has negative delay
    (types 1 and 0) or negative cost (types 2 and 0), but forward residual
    edges keep the input's nonnegative weights, so it holds a reversed
    edge and both its endpoints. A cycle of running-cost spread at most
    ``B`` is representable in ``H(B)`` from each of its vertices, so from
    an anchor."""
    g = residual.graph
    rev = np.nonzero(residual.reversed_mask)[0]
    return sorted(set(int(g.head[e]) for e in rev) | set(int(g.tail[e]) for e in rev))


def find_bicameral_candidates_paper(
    residual: ResidualGraph,
    delta_d: int,
    b_values: list[int] | None = None,
    anchors: list[int] | None = None,
    stats: SearchStats | None = None,
) -> list[CandidateCycle]:
    """Algorithm 3, literally: per-anchor ``H_v^+(B)`` / ``H_v^-(B)``
    graphs (layers 0..B, wraps only at ``v``), the paper's LP (6) on each,
    and the released support cycles as candidates.

    Exponentially more LP solves than the production shifted-graph search
    (one per (v, B, sign) instead of one per (B, sign)); exists for
    fidelity testing and the A3 ablation. ``b_values`` defaults to the
    doubling sweep up to ``sum |c|``; ``anchors`` defaults to
    :func:`reversed_edge_anchors`. Charges each graph to the ambient
    budget's node cap.
    """
    from repro.core.auxgraph import build_aux_paper
    from repro.core.auxlp import solve_lp6

    with _searching("search.paper_literal", stats) as stats:
        g = residual.graph
        if anchors is None:
            anchors = reversed_edge_anchors(residual)
        if b_values is None:
            total = _sweep_top(g)
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
                    charge_search_nodes(aux.graph.n, "search.paper_literal")
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
