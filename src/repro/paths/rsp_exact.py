"""Exact pseudo-polynomial DP for the single restricted shortest path (RSP).

RSP (k=1 case of kRSP, Definition 2): minimum-cost ``s -> t`` path with total
delay at most ``D``. NP-hard in general, but solvable exactly in
``O((D+1) * (n log n + m))`` time by dynamic programming over delay budgets —
small enough to serve as ground truth for the k=1 experiments (E8) and as the
inner exact oracle for FPTAS validation.

State: ``best[b][v]`` = minimum cost of an ``s -> v`` walk whose total delay
is *exactly* ``b`` (up to zero-delay detours). Positive-delay edges move
between layers; zero-delay edges stay inside a layer and are closed with an
intra-layer multi-source Dijkstra (their costs are nonnegative by the input
contract, so Dijkstra is sound). The answer minimizes over all layers
``b <= D``.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.paths.dijkstra import INF
from repro.robustness.budget import checkpoint


def rsp_exact(
    g: DiGraph,
    s: int,
    t: int,
    delay_bound: int,
) -> tuple[int, list[int]] | None:
    """Exact RSP: min-cost ``s``-``t`` path with delay ``<= delay_bound``.

    Returns ``(cost, edge_id_path)`` or ``None`` when no feasible path
    exists. Ties between equal-cost solutions break toward smaller delay.
    The returned path may be assumed simple whenever all costs are positive;
    with zero-cost edges it is still a valid walk of optimal cost whose
    delay respects the bound.
    """
    g.require_nonnegative()
    if delay_bound < 0:
        return None
    if s == t:
        return (0, [])
    D = int(delay_bound)
    n = g.n

    best = np.full((D + 1, n), INF, dtype=np.int64)
    # pred[b, v] packs (edge id, source layer) as eid * (D + 1) + layer.
    pred = np.full((D + 1, n), -1, dtype=np.int64)
    best[0, s] = 0

    zero_eids = np.nonzero(g.delay == 0)[0]
    pos_eids = np.nonzero(g.delay > 0)[0]
    tail, head, cost, delay = g.tail, g.head, g.cost, g.delay

    # Zero-delay adjacency, built once (used in every layer closure).
    zero_out: dict[int, list[int]] = {}
    for e in zero_eids:
        zero_out.setdefault(int(tail[e]), []).append(int(e))

    for b in range(D + 1):
        # Pseudo-polynomial in D: honor an ambient solve budget per layer
        # so deadline-sliced callers (the greedy fallback tier) can bail.
        if b % 256 == 0:
            checkpoint("rsp_exact.layer")
        row = best[b]
        if b > 0 and len(pos_eids):
            src_layer = b - delay[pos_eids]
            ok = src_layer >= 0
            eids = pos_eids[ok]
            if len(eids):
                src = src_layer[ok]
                src_cost = best[src, tail[eids]]
                reach = src_cost < INF
                eids, src = eids[reach], src[reach]
                cand = src_cost[reach] + cost[eids]
                # Vectorized scatter-min relaxation (one pass): apply all
                # improvements at once, then record a witnessing
                # predecessor per improved vertex.
                targets = head[eids]
                new_row = row.copy()
                np.minimum.at(new_row, targets, cand)
                improved = cand < row[targets]
                winners = (cand == new_row[targets]) & improved
                pred[b, targets[winners]] = eids[winners] * (D + 1) + src[winners]
                np.copyto(row, new_row)
        if len(zero_eids):
            _close_zero_delay_layer(g, zero_out, row, pred[b], b, D)

    col = best[:, t]
    if int(col.min()) >= INF:
        return None
    b_star = int(col.argmin())  # argmin returns the first (smallest-delay) optimum
    path = _reconstruct(g, pred, D, b_star, t, s)
    return int(col[b_star]), path


def _close_zero_delay_layer(
    g: DiGraph,
    zero_out: dict[int, list[int]],
    row: np.ndarray,
    pred_row: np.ndarray,
    layer: int,
    D: int,
) -> None:
    """Multi-source Dijkstra over the zero-delay subgraph, updating ``row``
    (costs) and ``pred_row`` in place."""
    # (cost, vertex) pairs with lazy deletion: an entry above the row's
    # current cost is stale.
    heap = [(int(row[v]), int(v)) for v in np.nonzero(row < INF)[0]]
    heapq.heapify(heap)
    while heap:
        du, u = heapq.heappop(heap)
        if du > row[u]:
            continue
        for e in zero_out.get(u, ()):
            v = int(g.head[e])
            cand = du + int(g.cost[e])
            if cand < row[v]:
                row[v] = cand
                pred_row[v] = e * (D + 1) + layer
                heapq.heappush(heap, (cand, v))


def _reconstruct(
    g: DiGraph,
    pred: np.ndarray,
    D: int,
    b_final: int,
    t: int,
    s: int,
) -> list[int]:
    """Walk packed predecessors from state ``(b_final, t)`` back to the DP
    source state ``(0, s)``; returns the forward edge-id list.

    Every labelled state except ``(0, s)`` has a predecessor, and each
    backward step either decreases the layer or strictly decreases the cost
    within a layer's Dijkstra tree, so the walk terminates.
    """
    path: list[int] = []
    b, v = b_final, t
    limit = g.n * (D + 1) + 1
    while True:
        packed = int(pred[b, v])
        if packed == -1:
            if v == s and b == 0:
                break
            raise GraphError("RSP reconstruction hit a dead state")
        e, src_layer = divmod(packed, D + 1)
        path.append(e)
        v = int(g.tail[e])
        b = src_layer
        if len(path) > limit:
            raise GraphError("RSP reconstruction did not terminate")
    path.reverse()
    return path
