"""Optimal one-wrap cycles of auxiliary graphs, LP (6), and candidate extraction.

The paper solves a linear program over circulations of the auxiliary graph
and releases the cycles in its support (Algorithm 3 steps 1(a)ii–iii);
Theorem 16 needs only *an optimal cycle* of ``H_v^+(B)`` / ``H_v^-(B)``.
Their wraps sit at the one anchor ``v`` (Algorithm 2), so a simple cycle
passes through one wrap and costs at most ``B``. The production search,
:func:`min_ratio_cycles`, keeps that shape on the shifted graph, whose
wraps sit at every vertex. For each cost sign it minimises

    d(P) / c0   over the wraps w of that sign with head at an anchor and
                c0 = |wrap_cost(w)| <= c_max, and the non-wrap paths P
                from head(w) to tail(w),

where ``d`` is the H-edge delay and ``c0`` the |cost| of the closed
residual walk ``P`` represents: the classical minimum cost-to-time ratio
cycle (Lawler; survey: Dasdan, Irani and Gupta, DAC 1999), through one
wrap. One search serves both signs:

1. **Potential pass.** An integer Bellman–Ford over the non-wrap edges
   from the heads of the anchors' wraps, at distance 0; nothing they do
   not reach is searched. A negative cycle there returns to its own cost
   level, so it is a cost-0, negative-delay walk (type 0, what the search
   wants most), returned at once for both signs. Otherwise the distances
   are potentials ``pi``, and every reduced delay
   ``d(e) + pi(tail) - pi(head)`` on a reached edge is nonnegative.
2. **Multi-source Dijkstra** (scipy) over the reduced delays from those
   heads. A path's reduced length differs from its delay by
   ``pi(start) - pi(end)``, so the shortest paths are the same, and every
   distance is an integer below :data:`EXACT_LIMIT`, exact in float64.
3. **Pick.** Per sign, the wrap of least exact ``d(P)/c0``; its path is
   read off the predecessors and closed with the wrap.

What Theorem 16 then gives: the released H-cycle's ratio is at most that
of every simple residual cycle through an anchor whose running cost from
there stays within ``[-B, B]`` (so every one of spread at most ``B``)
and whose |cost| is at most ``c_max``. A shortest path is simple in ``H``
but may visit a base vertex at two cost levels. Its projection is then a
closed residual walk that
:func:`~repro.core.cycle_decompose.split_closed_walk` splits into simple
cycles, none of cost 0 (that would repeat an H node), whose costs sum to
``+-c0`` and delays to ``d(P)``. If every piece has the walk's cost sign,
one has ratio at most ``d(P)/c0`` (the mediant inequality) and |cost| at
most ``c0``, so the guarantee passes to it. If the signs mix, it does
not: every piece is still released and classified on its exact residual
totals (:func:`candidates_from_cycles`), and the later levels, the
Bellman–Ford probes and the fallback tiers of
:func:`repro.core.search.find_bicameral_cycle` decide.

LP (6) itself (:func:`solve_lp6`) stays for the paper-literal finder,
whose fractional optima are peeled into H-cycles
(:func:`peel_fractional_cycles`).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from repro import obs
from repro.core.auxgraph import AuxGraph
from repro.core.bicameral import CandidateCycle
from repro.core.cycle_decompose import split_closed_walk
from repro.errors import SolverError
from repro.graph.digraph import DiGraph
from repro.lp.engine import get_engine
from repro.robustness.budget import checkpoint

#: Mass below this is treated as zero when peeling fractional circulations.
PEEL_TOL = 1e-7

#: Per-edge mass cap in LP (6): a negative-delay cost-0 circulation would
#: otherwise make it unbounded; see :func:`solve_lp6`.
MASS_CAP = 1e6

#: Bound on ``2 * n * max |d|`` over ``n`` H nodes: a potential is a path
#: delay over under ``n`` edges, and a reduced distance such a delay plus a
#: potential difference, so each is an integer below it, exact in float64.
EXACT_LIMIT = 1 << 53

#: First Bellman–Ford round that looks for a predecessor-graph cycle. Most
#: passes settle before it, and a look costs about as much as a round.
FIRST_CYCLE_CHECK = 16

#: Distance of a vertex the potential pass never reaches.
UNREACHED = np.iinfo(np.int64).max


def _predecessor_cycles(n: int, tail: np.ndarray, pred: np.ndarray) -> list[list[int]]:
    """Every cycle of the predecessor graph, as forward edge-index lists.

    Each vertex has at most one predecessor edge, so the graph is
    functional: after ``n`` parent steps a vertex either fell off a root or
    sits on a cycle. Pointer doubling finds one vertex of every cycle in
    ``log n`` gathers; only the cycles themselves are walked in Python.
    """
    parent = np.full(n + 1, n, dtype=np.int64)  # n: the "no parent" sink
    has = pred >= 0
    parent[:n][has] = tail[pred[has]]
    jump, reach = parent, 1
    while reach < n:
        jump = jump[jump]
        reach *= 2
    on_cycle = jump[:n]
    on_cycle = on_cycle[on_cycle < n]
    if not len(on_cycle):
        return []
    pred_l, tail_l = pred.tolist(), tail.tolist()
    seen: set[int] = set()
    cycles = []
    for v in np.unique(on_cycle).tolist():
        if v in seen:
            continue
        edges, u = [], v
        while True:
            seen.add(u)
            e = pred_l[u]
            edges.append(e)
            u = tail_l[e]
            if u == v:
                break
        edges.reverse()
        cycles.append(edges)
    return cycles


def _negative_cycles(
    sources: np.ndarray, n: int, tail: np.ndarray, head: np.ndarray, w: np.ndarray
) -> tuple[list[list[int]], np.ndarray]:
    """Negative cycles reachable from ``sources`` in the graph
    ``(tail, head)`` over ``n`` vertices under ``w``, with the distances
    reached; ``([], potentials)`` when there is none.

    Synchronous Bellman–Ford from ``sources`` (at distance 0) that relaxes
    only the out-edges of the vertices improved in the previous round, and
    returns the predecessor-graph cycles as soon as there are any. It
    looks for them after round :data:`FIRST_CYCLE_CHECK`, each later power
    of two and every round from ``n`` on. Vertices it never reaches keep
    :data:`UNREACHED`. The caller bounds ``w`` first (:data:`EXACT_LIMIT`);
    a traced cycle that is not negative raises :class:`SolverError`
    (corrupt state). Counts its rounds in ``search.ratio.potential_rounds``.
    """
    dist = np.full(n, UNREACHED, dtype=np.int64)
    dist[sources] = 0
    pred = np.full(n, -1, dtype=np.int64)
    active = np.zeros(n, dtype=bool)
    active[sources] = True
    for rnd in range(1, 2 * n + 2):
        es = np.flatnonzero(active[tail])
        cand = dist[tail[es]] + w[es]
        hd = head[es]
        better = cand < dist[hd]
        if not better.any():
            obs.add("search.ratio.potential_rounds", rnd)
            return [], dist
        es, cand, hd = es[better], cand[better], hd[better]
        np.minimum.at(dist, hd, cand)
        won = cand == dist[hd]
        pred[hd[won]] = es[won]
        # An improvement in round n needs a walk of n edges, so a negative
        # cycle exists: from then on, look for it every round.
        if (rnd >= FIRST_CYCLE_CHECK and rnd & (rnd - 1) == 0) or rnd >= n:
            cycles = _predecessor_cycles(n, tail, pred)
            if cycles:
                for cyc in cycles:
                    if int(w[cyc].sum()) >= 0:
                        raise SolverError("traced a non-negative cycle — corrupt state")
                obs.add("search.ratio.potential_rounds", rnd)
                return cycles, dist
        active[:] = False
        active[hd] = True
    raise SolverError("Bellman–Ford kept improving without closing a cycle")


def min_ratio_cycles(
    aux: AuxGraph, anchors: list[int], c_max: int
) -> dict[int, list[int]]:
    """Per cost sign, an optimal one-wrap cycle of ``aux``, as ``aux`` edge ids.

    Admits the wraps whose head lies at an ``anchors`` base vertex and
    whose ``|wrap_cost|`` is at most ``c_max``. Maps +1 (residual walks of
    positive cost) and -1 (negative cost) to a cycle of least
    ``d(P)/|wrap_cost|``: a shortest non-wrap path ``P`` from an admitted
    wrap's head to its tail, closed by that wrap. A sign without such a
    cycle is absent. When the non-wrap edges reachable from the heads of
    the anchors' wraps hold a negative cycle (cost 0, negative delay),
    both signs map to it instead. The method, and what Theorem 16 makes of
    the answer: the module docstring.

    Telemetry: a ``search.ratio_cycle`` span,
    ``search.ratio.potential_rounds`` (the potential pass's Bellman–Ford
    rounds) and ``search.ratio.zero_cost_cycles`` when a cost-0 cycle
    answers. Checks the ambient budget first; a trip raises
    :class:`~repro.errors.BudgetExhaustedError`.
    """
    with obs.span("search.ratio_cycle"):
        checkpoint("search.ratio_cycle")
        h = aux.graph
        is_anchor = np.zeros(aux.n_base, dtype=bool)
        is_anchor[anchors] = True
        wraps = np.flatnonzero((aux.orig_eid < 0) & is_anchor[h.head // aux.n_layers])
        if not len(wraps):
            return {}
        sources, row = np.unique(h.head[wraps], return_inverse=True)
        flow = np.flatnonzero(aux.orig_eid >= 0)
        # Parallel edges merged to the least delay (scipy would sum them),
        # then sorted by (tail, head) for the CSR.
        key = h.tail[flow] * h.n + h.head[flow]
        order = np.lexsort((h.delay[flow], key))
        first = np.ones(len(order), dtype=bool)
        first[1:] = key[order[1:]] != key[order[:-1]]
        flow, key = flow[order[first]], key[order[first]]
        tail, head, d = h.tail[flow], h.head[flow], h.delay[flow]
        if 2 * h.n * int(np.abs(d).max(initial=0)) >= EXACT_LIMIT:
            raise SolverError("ratio search delays reach 2^53 / 2n; float64 would round them")
        # Only what the sources reach is searched: Dijkstra sees nothing
        # else, and a cost-0 cycle through an anchor, whose running cost
        # from there stays within the layers, passes that anchor's (v, 0).
        cycles, pi = _negative_cycles(sources, h.n, tail, head, d)
        if cycles:
            obs.inc("search.ratio.zero_cost_cycles")
            best = flow[min(cycles, key=lambda c: int(d[c].sum()))].tolist()
            return {+1: best, -1: best}

        reached = pi[tail] != UNREACHED
        flow, key, tail, head, d = flow[reached], key[reached], tail[reached], head[reached], d[reached]
        # The CSR is built directly, rows sorted by tail, not through COO.
        indptr = np.zeros(h.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail, minlength=h.n), out=indptr[1:])
        reduced = (d + pi[tail] - pi[head]).astype(np.float64)
        csr = sp.csr_array((reduced, head, indptr), shape=(h.n, h.n))
        dist, pred = dijkstra(csr, indices=sources, return_predecessors=True)

        ok = (np.abs(aux.wrap_cost[wraps]) <= c_max) & np.isfinite(dist[row, h.tail[wraps]])
        wraps, row, ends = wraps[ok], row[ok], h.tail[wraps[ok]]
        # The exact delay: the reduced length corrected by both potentials.
        delay = dist[row, ends].astype(np.int64) + pi[ends] - pi[sources[row]] + h.delay[wraps]
        c0 = np.abs(aux.wrap_cost[wraps])
        ratio = delay / c0
        out: dict[int, list[int]] = {}
        for sign in (+1, -1):
            mine = np.flatnonzero(aux.wrap_cost[wraps] * sign > 0)
            if not len(mine):
                continue
            # Float division is monotone, so every exact optimum has the
            # least float ratio; Fractions settle the ties.
            tied = mine[ratio[mine] == ratio[mine].min()].tolist()
            i = min(tied, key=lambda j: Fraction(int(delay[j]), int(c0[j])))
            nodes = [int(ends[i])]
            while nodes[-1] != sources[row[i]]:
                nodes.append(int(pred[row[i], nodes[-1]]))
            steps = np.asarray(nodes[:0:-1]) * h.n + np.asarray(nodes[-2::-1])
            path = flow[np.searchsorted(key, steps)]
            out[sign] = path.tolist() + [int(wraps[i])]
        return out


def peel_fractional_cycles(
    g: DiGraph,
    x: np.ndarray,
    tol: float = PEEL_TOL,
) -> list[list[int]]:
    """Decompose a fractional circulation into cycles (edge-id lists).

    Greedy peel: walk along edges with remaining mass, following the
    largest-mass out-edge; on revisiting a vertex, subtract the cycle's
    bottleneck mass. Terminates because every peel removes at least one
    edge from the support. Tiny conservation noise from the LP is absorbed
    by ``tol``.
    """
    x = np.asarray(x, dtype=np.float64).copy()
    out: dict[int, list[int]] = {}
    for e in np.nonzero(x > tol)[0]:
        out.setdefault(int(g.tail[e]), []).append(int(e))

    cycles: list[list[int]] = []
    for _ in range(g.m + len(x) + 1):
        support = np.nonzero(x > tol)[0]
        if len(support) == 0:
            break
        start_edge = int(support[np.argmax(x[support])])
        walk: list[int] = []
        pos: dict[int, int] = {}
        cur = int(g.tail[start_edge])
        pos[cur] = 0
        while True:
            cand = [e for e in out.get(cur, ()) if x[e] > tol]
            if not cand:
                # Conservation noise stranded this walk — drop its mass.
                for e in walk:
                    x[e] = 0.0
                walk = []
                break
            e = max(cand, key=lambda ee: x[ee])
            walk.append(e)
            cur = int(g.head[e])
            if cur in pos:
                cycle = walk[pos[cur] :]
                bottleneck = min(x[e2] for e2 in cycle)
                for e2 in cycle:
                    x[e2] -= bottleneck
                cycles.append(cycle)
                break
            pos[cur] = len(walk)
            if len(walk) > g.m + 1:
                raise SolverError("fractional peel did not terminate")
    else:
        raise SolverError("fractional peel exceeded iteration budget")
    return cycles


def candidates_from_cycles(
    aux: AuxGraph,
    residual: DiGraph,
    h_cycles: list[list[int]],
) -> list[CandidateCycle]:
    """Project H-cycles to exact residual cycle candidates.

    Every H-cycle maps (wraps dropped) to a closed residual walk, which
    splits into simple residual cycles; totals are recomputed from the
    residual integer weights, so nothing but those weights reaches
    classification. Duplicates are released once.
    """
    seen: set[tuple[int, ...]] = set()
    out: list[CandidateCycle] = []
    for h_cycle in h_cycles:
        walk = aux.to_residual_walk(h_cycle)
        if not walk:
            continue
        for cyc in split_closed_walk(residual, walk):
            key = tuple(sorted(cyc))
            if key in seen:
                continue
            seen.add(key)
            out.append(
                CandidateCycle(
                    edges=tuple(cyc),
                    cost=residual.cost_of(cyc),
                    delay=residual.delay_of(cyc),
                )
            )
    return out


def candidates_from_circulation(
    aux: AuxGraph,
    residual: DiGraph,
    x: np.ndarray,
) -> list[CandidateCycle]:
    """Project a fractional H-circulation to exact residual cycle candidates.

    Peels it into H-cycles (:func:`peel_fractional_cycles`) and releases
    them through :func:`candidates_from_cycles`, so LP float noise cannot
    leak into classification.
    """
    return candidates_from_cycles(aux, residual, peel_fractional_cycles(aux.graph, x))


def solve_lp6(aux: AuxGraph, delta_d: int) -> np.ndarray | None:
    """The paper's LP (6), literally: minimum-cost circulation in ``H``
    whose total delay is at most ``DeltaD``.

    ``DeltaD = D - sum d(P_i)`` is *negative* while the solution is
    delay-infeasible, so ``x = 0`` is infeasible and the budget row forces
    the circulation to buy at least ``|DeltaD|`` of delay reduction; the
    objective then finds the cheapest way to buy it. (The paper notes
    ``0 <= x <= 1`` "is not necessary"; we cap at :data:`MASS_CAP`, because a
    negative-delay cost-0 circulation would otherwise make the LP
    unbounded.)

    Returns the fractional circulation or ``None`` when no circulation in
    ``H`` reaches the required delay reduction (then a larger ``B`` or a
    different anchor is needed — Algorithm 3's outer loops).
    """
    res = get_engine().solve_lp6(aux, delta_d)
    obs.inc("lp.lp6.solves")
    if res.status == 2:
        return None
    if not res.success:
        raise SolverError(f"LP (6) failed: status={res.status} {res.message}")
    return np.maximum(res.x, 0.0)
