"""Minimum-cost k-flow with unit capacities via successive shortest paths.

This is the Suurballe–Tarjan scheme generalized to ``k`` paths: augment one
unit at a time along a cheapest residual path, keeping Dijkstra applicable
through Johnson potentials (reduced weights stay nonnegative even though
residual back-edges carry negated weights). ``k`` augmentations yield a
minimum-weight integral ``s``-``t`` flow of value ``k`` — and therefore, after
decomposition, ``k`` edge-disjoint paths of minimum total weight
(the *min-sum disjoint path problem*, polynomially solvable [Suurballe 74;
Suurballe–Tarjan 84], which the paper lists as the delay-free special case
of kRSP).

The weight array is a parameter: the Lagrangian phase-1 providers call this
with ``den*c + num*d`` blends, the min-sum baseline with ``c`` alone, and the
feasibility gate with the lexicographic ``(cost, delay)`` weight of
:func:`lexicographic_weights` (then ``(delay, cost)`` when that flow misses
``D``). The gate's first flow is also the solver's only test that ``k``
edge-disjoint paths exist: this returns ``None`` when they do not.

The search runs over Python lists and ints. Weights are exact at any size
(blends of large costs and delays would overflow int64), and list indexing
is several times cheaper than reading numpy scalars one at a time. Each
Dijkstra runs on a :mod:`heapq` queue and stops once ``t`` is settled.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.errors import GraphError
from repro.graph.digraph import DiGraph


@dataclass
class MinCostFlowResult:
    """Outcome of :func:`min_cost_k_flow`.

    Attributes
    ----------
    used:
        Boolean edge mask forming the integral k-flow.
    weight:
        Total weight of the flow under the weight array supplied (exact).
    potentials:
        The final successive-shortest-path vertex potentials ``pi``
        (Python ints). Every edge's reduced weight ``w(e) + pi(tail) -
        pi(head)`` is ``>= 0`` where the flow leaves it unused and ``<= 0``
        where it uses it: complementary slackness, a certificate that the
        flow is of minimum weight.
    """

    used: np.ndarray
    weight: int
    potentials: list[int]


def lexicographic_weights(
    primary: np.ndarray | Sequence[int],
    secondary: np.ndarray | Sequence[int],
    headroom: int = 1,
) -> tuple[list[int], int]:
    """Per-edge ``primary * big + secondary`` as Python ints, and ``big``.

    ``big = headroom * sum(secondary) + 1`` exceeds the total of
    ``secondary`` (nonnegative), so a flow minimizing these weights
    minimizes ``primary`` first and ``secondary`` second, and its primary
    total is ``weight // big``. A ``headroom`` above 1 keeps that true
    after the secondary total grows up to that factor. Sequences are taken
    as Python ints, so a primary beyond int64 (a Lagrangian blend) is exact.
    """
    prim, sec = (
        a.tolist() if isinstance(a, np.ndarray) else a for a in (primary, secondary)
    )
    big = headroom * sum(sec) + 1
    return [p * big + q for p, q in zip(prim, sec)], big


def min_cost_k_flow(
    g: DiGraph,
    s: int,
    t: int,
    k: int,
    weight: np.ndarray | Sequence[int] | None = None,
) -> MinCostFlowResult | None:
    """Minimum-weight integral ``s -> t`` flow of value exactly ``k``.

    Returns ``None`` when fewer than ``k`` edge-disjoint paths exist.
    ``weight`` defaults to ``g.cost``; a sequence is taken as Python ints.
    It must be nonnegative (potentials start at zero; negative input
    weights would need a Bellman–Ford bootstrap, which no caller requires).
    """
    if weight is None:
        weight = g.cost
    if isinstance(weight, np.ndarray):
        w = np.asarray(weight, dtype=np.int64).tolist()
    else:
        w = list(weight)
    if len(w) != g.m:
        raise GraphError("weight array length mismatch")
    if w and min(w) < 0:
        raise GraphError("min_cost_k_flow requires nonnegative weights")
    if k < 0:
        raise GraphError("k must be nonnegative")
    if s == t:
        raise GraphError("s and t must differ")

    n = g.n
    out_starts, out_eids = (a.tolist() for a in g.out_csr())
    in_starts, in_eids = (a.tolist() for a in g.in_csr())
    out_adj = [out_eids[out_starts[u] : out_starts[u + 1]] for u in range(n)]
    in_adj = [in_eids[in_starts[u] : in_starts[u + 1]] for u in range(n)]
    head, tail = g.head.tolist(), g.tail.tolist()
    used = [False] * g.m
    pi = [0] * n

    # Work counters accumulate locally; one flush on every exit path keeps
    # the telemetry-disabled cost inside the loops to bare integer adds.
    augmentations = 0
    pops = 0
    total = 0
    try:
        for _ in range(k):
            gain, round_pops = _augment_once(
                n, s, t, w, used, pi, out_adj, in_adj, head, tail
            )
            pops += round_pops
            if gain is None:
                return None  # max flow < k
            total += gain
            augmentations += 1
    finally:
        obs.add("mincost.augmentations", augmentations)
        obs.add("mincost.dijkstra_pops", pops)

    return MinCostFlowResult(
        used=np.array(used, dtype=bool), weight=total, potentials=pi
    )


def _augment_once(
    n: int,
    s: int,
    t: int,
    w: list[int],
    used: list[bool],
    pi: list[int],
    out_adj: list[list[int]],
    in_adj: list[list[int]],
    head: list[int],
    tail: list[int],
) -> tuple[int | None, int]:
    """One successive-shortest-path augmentation.

    Mutates ``used`` and the potentials ``pi`` in place. Returns
    ``(gain, dijkstra_pops)``: ``gain`` is the change of the flow's total
    weight (``+w`` per edge the path adds, ``-w`` per edge it cancels), or
    ``None`` when ``t`` is unreachable in the residual (max flow
    exhausted).

    Dijkstra stops as soon as ``t`` is settled. Every vertex still open is
    then at least ``dist[t]`` away, and ``dist[t]`` is exactly where the
    potential update caps every distance, so the new potentials, the
    augmenting path and hence every later round are those of a full
    search. The queue holds ``(reduced distance, vertex)`` pairs with lazy
    deletion; a stale entry is skipped before it is counted, so
    ``dijkstra_pops`` counts settled vertices.
    """
    inf = math.inf
    # Dijkstra on the residual graph under reduced weights.
    dist: list = [inf] * n
    # pred packs (edge, direction): +e+1 forward, -(e+1) backward.
    pred = [0] * n
    done = [False] * n
    dist[s] = 0
    heap = [(0, s)]
    pop, push = heapq.heappop, heapq.heappush
    pops = 0
    while heap:
        du, u = pop(heap)
        if done[u]:
            continue
        pops += 1
        done[u] = True
        if u == t:
            break
        base = du + pi[u]
        for e in out_adj[u]:
            if used[e]:
                continue
            v = head[e]
            if done[v]:
                continue
            nd = base + w[e] - pi[v]
            if nd < du:
                raise GraphError("negative reduced weight — potentials corrupt")
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = e + 1
                push(heap, (nd, v))
        for e in in_adj[u]:
            if not used[e]:
                continue
            v = tail[e]
            if done[v]:
                continue
            nd = base - w[e] - pi[v]
            if nd < du:
                raise GraphError("negative reduced weight — potentials corrupt")
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = -(e + 1)
                push(heap, (nd, v))
    dt = dist[t]
    if dt == inf:
        return None, pops  # max flow exhausted
    # Update potentials with dist capped at dist[t]: every vertex not
    # settled is at least that far, and the cap keeps future reduced
    # weights valid (standard trick).
    for v in range(n):
        dv = dist[v]
        pi[v] += dv if dv < dt else dt
    # Augment along pred.
    gain = 0
    v = t
    while v != s:
        p = pred[v]
        if p > 0:
            e = p - 1
            used[e] = True
            gain += w[e]
            v = tail[e]
        else:
            e = -p - 1
            used[e] = False
            gain -= w[e]
            v = head[e]
    return gain, pops
