"""Dijkstra shortest paths with optional vertex potentials.

The potentials hook is what the flow layer needs: successive-shortest-path
min-cost flow keeps reduced costs ``c(e) + pi[tail] - pi[head]`` nonnegative
so Dijkstra stays applicable even after residual edges with negative raw cost
appear (Johnson's technique). Plain single-source shortest paths is the
``potential=None`` special case.

Returns distances and a predecessor *edge* array so callers can reconstruct
paths as edge-id lists (the library-wide path representation).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro import obs
from repro.errors import GraphError
from repro.graph.digraph import DiGraph

#: Sentinel distance for unreachable vertices (fits in int64 with headroom
#: for one addition).
INF = np.iinfo(np.int64).max // 4


def dijkstra(
    g: DiGraph,
    source: int,
    weight: np.ndarray | None = None,
    potential: np.ndarray | None = None,
    target: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths under nonnegative (reduced) weights.

    Parameters
    ----------
    g:
        Graph to search.
    source:
        Start vertex.
    weight:
        Per-edge weights; defaults to ``g.cost``.
    potential:
        Optional vertex potentials ``pi``; the search runs on reduced
        weights ``w(e) + pi[tail] - pi[head]``, which must be nonnegative
        for edges leaving settled vertices, and the returned distances are
        *un-reduced* (true ``w``-distances).
    target:
        Early-exit vertex: the search stops once ``target`` is settled.
        Distances of unsettled vertices are then upper bounds only.

    Returns
    -------
    (dist, pred_edge):
        ``dist[v]`` is the true weight of a shortest ``source -> v`` path
        (``INF`` if unreachable); ``pred_edge[v]`` is the incoming edge id
        on such a path (-1 for source/unreachable).

    Raises
    ------
    GraphError
        If a negative (reduced) weight is encountered.
    """
    w = g.cost if weight is None else np.asarray(weight, dtype=np.int64)
    if len(w) != g.m:
        raise GraphError("weight array length mismatch")
    dist = np.full(g.n, INF, dtype=np.int64)
    pred = np.full(g.n, -1, dtype=np.int64)
    done = np.zeros(g.n, dtype=bool)
    starts, eids = g.out_csr()
    heads = g.head
    pi = potential

    # The heap orders (reduced distance, vertex) pairs: true distance shifted
    # by pi[v] - pi[source], a per-vertex constant, so relaxation order is
    # correct; `dist` always stores true distances. Entries are deleted
    # lazily: a settled vertex's stale entries are skipped uncounted.
    heap = [(0, source)]
    dist[source] = 0
    # Work counters accumulate locally and flush once on exit, so the
    # telemetry-disabled cost inside the loop is a bare integer add.
    pops = 0
    relaxations = 0
    # try/finally so the flush also happens when the loop aborts (e.g. a
    # negative reduced weight raising GraphError): the work was done, so
    # the record of it must survive the failure — fuzzing and post-mortem
    # triage read these counters off failed trials.
    try:
        while heap:
            du_reduced, u = heapq.heappop(heap)
            if done[u]:
                continue
            pops += 1
            done[u] = True
            if u == target:
                break
            du_true = int(dist[u])
            for e in eids[starts[u] : starts[u + 1]]:
                e = int(e)
                v = int(heads[e])
                if done[v]:
                    continue
                we = int(w[e])
                if pi is not None:
                    red = we + int(pi[u]) - int(pi[v])
                else:
                    red = we
                if red < 0:
                    raise GraphError(
                        f"negative reduced weight {red} on edge {e}"
                        + ("" if pi is None else "; potentials invalid")
                    )
                cand_true = du_true + we
                if cand_true < dist[v]:
                    relaxations += 1
                    dist[v] = cand_true
                    pred[v] = e
                    heapq.heappush(heap, (du_reduced + red, v))
    finally:
        obs.add("dijkstra.pops", pops)
        obs.add("dijkstra.relaxations", relaxations)
    return dist, pred


def extract_path(
    pred_edge: np.ndarray,
    g: DiGraph,
    target: int,
    source: int | None = None,
    dist: np.ndarray | None = None,
) -> list[int]:
    """Edge-id path from the search source to ``target`` via ``pred_edge``.

    ``pred_edge[target] == -1`` is ambiguous on its own: it marks both the
    source (empty path — a real answer) and an unreachable vertex (no path
    at all). Historically both cases returned ``[]``, which let a missed
    reachability check turn "no path" into "free path" downstream. Now the
    empty path is returned only when ``target`` is provably the source —
    pass ``source`` (the search's start vertex) or ``dist`` (its distance
    array: the source is the unique ``pred == -1`` vertex with finite
    distance) — and every other ``-1`` raises :class:`GraphError`. Calls
    that pass neither keep raising for non-source ``-1`` targets, and raise
    an "ambiguous" error for the source-or-unreachable case.
    """
    path: list[int] = []
    v = target
    guard = 0
    if int(pred_edge[target]) == -1:
        if source is not None:
            if target == source:
                return []
            raise GraphError(f"target {target} unreachable from source {source}")
        if dist is not None:
            if int(dist[target]) < INF:
                return []  # finite distance + no incoming edge == source
            raise GraphError(f"target {target} unreachable (distance INF)")
        raise GraphError(
            f"target {target} has no predecessor: source or unreachable? "
            "pass source= or dist= to extract_path to disambiguate"
        )
    while pred_edge[v] != -1:
        e = int(pred_edge[v])
        path.append(e)
        v = int(g.tail[e])
        guard += 1
        if guard > g.m + 1:
            raise GraphError("predecessor cycle — corrupt search state")
    path.reverse()
    return path
