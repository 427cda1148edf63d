"""The numpy successive-shortest-path min-cost k-flow, kept as a test oracle.

:func:`repro.flow.mincost.min_cost_k_flow` runs the same algorithm over
Python lists and ints: the same residual scan order, the same ``heapq``
order on ``(reduced distance, vertex)`` and the same strict-improvement
relaxation, so on every input both return the same edge mask and weight.
This copy indexes int64 arrays, which is how the solver ran before the list
rewrite, and runs each Dijkstra to exhaustion where the solver stops at
``t``; the tests compare the two on random graphs with many ties.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import GraphError
from repro.flow.mincost import MinCostFlowResult
from repro.graph.digraph import DiGraph
from repro.paths.dijkstra import INF


def numpy_min_cost_k_flow(
    g: DiGraph,
    s: int,
    t: int,
    k: int,
    weight: np.ndarray | None = None,
) -> MinCostFlowResult | None:
    """Minimum-weight integral ``s -> t`` flow of value exactly ``k``.

    Returns ``None`` when fewer than ``k`` edge-disjoint paths exist.
    ``weight`` defaults to ``g.cost`` and must be nonnegative (potentials
    start at zero; negative input weights would need a Bellman–Ford
    bootstrap, which no caller requires).
    """
    w = g.cost if weight is None else np.asarray(weight, dtype=np.int64)
    if len(w) != g.m:
        raise GraphError("weight array length mismatch")
    if g.m and int(w.min()) < 0:
        raise GraphError("min_cost_k_flow requires nonnegative weights")
    if k < 0:
        raise GraphError("k must be nonnegative")
    if s == t:
        raise GraphError("s and t must differ")

    used = np.zeros(g.m, dtype=bool)
    pi = np.zeros(g.n, dtype=np.int64)
    out_starts, out_eids = g.out_csr()
    in_starts, in_eids = g.in_csr()

    for _ in range(k):
        augmented, _pops, pi = _augment_once(
            g, s, t, w, used, pi, out_starts, out_eids, in_starts, in_eids
        )
        if not augmented:
            return None  # max flow < k

    total = int(w[np.nonzero(used)[0]].sum())
    return MinCostFlowResult(used=used, weight=total)


def _augment_once(
    g: DiGraph,
    s: int,
    t: int,
    w: np.ndarray,
    used: np.ndarray,
    pi: np.ndarray,
    out_starts: np.ndarray,
    out_eids: np.ndarray,
    in_starts: np.ndarray,
    in_eids: np.ndarray,
) -> tuple[bool, int, np.ndarray]:
    """One successive-shortest-path augmentation; mutates ``used`` in place.

    Returns ``(augmented, dijkstra_pops, new_potentials)``; ``augmented`` is
    False when ``t`` is unreachable in the residual (max flow exhausted).
    """
    tail, head = g.tail, g.head
    # Dijkstra on the residual graph under reduced weights.
    dist = np.full(g.n, INF, dtype=np.int64)
    # pred packs (edge, direction): +e+1 forward, -(e+1) backward.
    pred = np.zeros(g.n, dtype=np.int64)
    dist[s] = 0
    heap = [(0, s)]
    done = np.zeros(g.n, dtype=bool)
    pops = 0
    while heap:
        du, u = heapq.heappop(heap)
        if done[u]:
            continue
        pops += 1
        done[u] = True
        for e in out_eids[out_starts[u] : out_starts[u + 1]]:
            e = int(e)
            if used[e]:
                continue
            v = int(head[e])
            if done[v]:
                continue
            red = int(w[e]) + int(pi[u]) - int(pi[v])
            if red < 0:
                raise GraphError("negative reduced weight — potentials corrupt")
            nd = du + red
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = e + 1
                heapq.heappush(heap, (nd, v))
        for e in in_eids[in_starts[u] : in_starts[u + 1]]:
            e = int(e)
            if not used[e]:
                continue
            v = int(tail[e])
            if done[v]:
                continue
            red = -int(w[e]) + int(pi[u]) - int(pi[v])
            if red < 0:
                raise GraphError("negative reduced weight — potentials corrupt")
            nd = du + red
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = -(e + 1)
                heapq.heappush(heap, (nd, v))
    if dist[t] >= INF:
        return False, pops, pi  # max flow exhausted
    # Update potentials; unreached vertices keep pi via dist capped at
    # dist[t] (standard trick keeps future reduced weights valid).
    dt = int(dist[t])
    pi = pi + np.minimum(dist, dt)
    # Augment along pred.
    v = t
    while v != s:
        p = int(pred[v])
        if p > 0:
            e = p - 1
            used[e] = True
            v = int(tail[e])
        else:
            e = -p - 1
            used[e] = False
            v = int(head[e])
    return True, pops, pi
