"""Optimal cycles of auxiliary graphs, LP (6), and candidate extraction.

The paper solves a linear program over circulations of the auxiliary graph
and releases the cycles in its support (Algorithm 3 steps 1(a)ii–iii);
Theorem 16 needs only *an optimal cycle* of ``H``. The production search,
:func:`min_ratio_cycle`, finds one directly. For a cost sign it minimises

    d(C) / W(C)   over the cycles C of H with W(C) > 0,

where ``d`` is the H-edge delay and ``W`` is ``|wrap_cost|`` on the wraps
of the chosen sign and 0 on every other edge. Wrap edges are the only way
to shift accumulated cost back to zero, so ``W(C)`` is the |cost| of the
residual cycle that ``C`` represents. This is the classical minimum
cost-to-time ratio cycle (Dinkelbach; Lawler; survey: Dasdan, Irani and
Gupta, DAC 1999), and the min-ratio circulation LP that earlier versions
handed to HiGHS has the same optimum: a circulation splits into cycles,
and its normalised objective is a weighted mean of their ratios.

The search runs Newton (Dinkelbach) steps over integer Bellman–Ford on the
:func:`circulation_edges` of the sign, every weight an int64:

1. **Skip.** No chosen-sign wrap among the edges: no such cycle, no pass.
2. **Start at** ``lambda = M``. With ``M = sum |d| + 1``, every simple
   cycle through a chosen wrap has ``d < M <= M*W``, so the first pass,
   under ``d - M*W``, finds a negative cycle.
3. **Newton steps.** With ``lambda = p/q = d(C)/W(C)`` of the current
   cycle, a cycle with ``W > 0`` is negative under ``q*d - p*W`` exactly
   when its ratio is below ``lambda``. Each step strictly lowers
   ``lambda`` over finitely many simple cycles. When a pass finds no
   negative cycle, its distances ``pi`` satisfy
   ``q*d(e) - p*W(e) + pi(tail) - pi(head) >= 0`` on every edge; summed
   round any cycle this gives ``d(C)/W(C) >= lambda``, so ``lambda`` is the
   optimum, certified in integers with no LP tolerance.
4. **Cost-0 cycles.** A negative cycle with ``W = 0`` is a cost-0,
   negative-delay residual cycle (type 0, what the search wants most):
   it beats every ratio and is returned at once. Such a cycle is
   negative under every pass's weights (``q > 0``), so no pass comes back
   empty while one exists: the search returns a cost-0 cycle whenever
   there is one, without a pass of its own.

Each pass is a synchronous Bellman–Ford from a virtual source that looks
for a cycle in its predecessor graph every :data:`CYCLE_CHECK_ROUNDS`
rounds. Every such cycle is negative: each predecessor edge ``(u, v)``
keeps ``dist[v] >= dist[u] + w``, and strictly so on at least one edge of
the cycle (the one whose tail improved after it was used). Among the
cycles found, the one of least ratio becomes the next iterate. The
returned cycle is projected to a residual closed walk and split into
simple residual cycles whose totals are recomputed from the residual's
integer weights (:func:`candidates_from_cycles`).

LP (6) itself (:func:`solve_lp6`) stays for the paper-literal finder,
whose fractional optima are peeled into H-cycles
(:func:`peel_fractional_cycles`).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

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

#: Bellman–Ford rounds between two looks for a predecessor-graph cycle.
CYCLE_CHECK_ROUNDS = 4

#: Bound on ``(n + 1) * max |w|`` for a pass over ``n`` vertices: after
#: ``r`` rounds every distance is at least ``-r * max |w|``, and half of
#: int64 leaves room for the ``2n + 1`` rounds a pass may run.
WEIGHT_LIMIT = 1 << 62


def circulation_edges(aux: AuxGraph, cost_sign: int) -> np.ndarray:
    """Mask of the ``aux`` edges a circulation of the ratio search can use.

    The other-sign wraps are closed, so they are dropped first; of the
    rest, an edge can lie on a cycle only when its tail and head lie in one
    strongly connected component (every circulation splits into cycles,
    and a cycle never leaves its component).
    """
    h = aux.graph
    usable = (aux.wrap_cost * cost_sign) >= 0
    tail, head = h.tail[usable], h.head[usable]
    # CSR built directly: scipy's COO conversion cost 3x the SCC pass itself.
    # Parallel edges must then be merged by hand: scipy's strong-component
    # pass never returns on a CSR row with a duplicate entry.
    indptr = np.zeros(h.n + 1, dtype=np.int32)
    np.cumsum(np.bincount(tail, minlength=h.n), out=indptr[1:])
    adjacency = sp.csr_array(
        (np.ones(len(tail)), head[np.argsort(tail, kind="stable")].astype(np.int32), indptr),
        shape=(h.n, h.n),
    )
    adjacency.sum_duplicates()
    _, component = connected_components(adjacency, directed=True, connection="strong")
    return usable & (component[h.tail] == component[h.head])


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
    n: int, tail: np.ndarray, head: np.ndarray, w: np.ndarray
) -> list[list[int]]:
    """Negative cycles of the graph ``(tail, head)`` under ``w``; ``[]`` if none.

    Synchronous Bellman–Ford from a virtual source (every distance starts
    at 0) that relaxes only the edges whose tail improved in the previous
    round, and returns the predecessor-graph cycles as soon as there are
    any. The caller bounds ``w`` first (:data:`WEIGHT_LIMIT`); a traced
    cycle that is not negative raises :class:`SolverError` (corrupt
    state).
    """
    dist = np.zeros(n, dtype=np.int64)
    pred = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    for rnd in range(1, 2 * n + 2):
        es = np.flatnonzero(active[tail])
        cand = dist[tail[es]] + w[es]
        hd = head[es]
        better = cand < dist[hd]
        if not better.any():
            return []
        es, cand, hd = es[better], cand[better], hd[better]
        np.minimum.at(dist, hd, cand)
        won = cand == dist[hd]
        pred[hd[won]] = es[won]
        active[:] = False
        active[hd] = True
        # An improvement in round n needs a walk of n edges, so a negative
        # cycle exists: from then on, look for it every round.
        if rnd % CYCLE_CHECK_ROUNDS == 0 or rnd >= n:
            cycles = _predecessor_cycles(n, tail, pred)
            if cycles:
                for cyc in cycles:
                    if int(w[cyc].sum()) >= 0:
                        raise SolverError("traced a non-negative cycle — corrupt state")
                return cycles
    raise SolverError("Bellman–Ford kept improving without closing a cycle")


def min_ratio_cycle(
    aux: AuxGraph, cost_sign: int, start: tuple[int, int] | None = None
) -> list[int] | None:
    """An optimal cycle of ``aux`` for one cost sign, as ``aux`` edge ids.

    ``cost_sign`` selects the wrap family (+1: residual cycles of positive
    cost; -1: negative cost). Returns a cycle minimising ``d(C)/W(C)``
    over the :func:`circulation_edges`, or a cost-0 negative-delay cycle
    when one exists (it beats every ratio), or ``None`` when no cycle of
    that sign exists within radius ``B``. The method and why it is exact:
    the module docstring.

    ``start = (p, q)``, ``q > 0``, is for the doubling sweep only
    (:func:`repro.core.search._sweep`): the ratio of a cycle known to lie
    in ``aux``, namely the optimum of the same sign at a lower radius,
    which survives because ``H(B)`` embeds in ``H(B')`` for ``B' >= B``
    (base vertex, cost level, ``d`` and ``W`` of every edge kept). The
    first pass then runs under ``q*d - p*W`` instead of ``d - M*W``. If it
    finds no negative cycle, its potentials certify ``p/q`` as still
    optimal (step 3 of the module docstring) and the answer is ``[]``:
    the start cycle stands and nothing new is returned. Otherwise the
    Newton steps go on from there, and a cost-0 cycle is still returned
    at once.

    Telemetry: ``search.ratio.skipped`` when no chosen-sign wrap survives
    the mask (no pass runs, no span opens); otherwise a
    ``search.ratio_cycle`` span, ``search.ratio.zero_cost_cycles`` when a
    cost-0 cycle answers, ``search.ratio.newton_steps`` for the passes
    after the first, and with a ``start`` ``search.ratio.carried`` (and
    ``search.ratio.carried_unchanged`` when the answer is ``[]``). Checks
    the ambient budget before every pass; a trip raises
    :class:`~repro.errors.BudgetExhaustedError`.
    """
    keep = circulation_edges(aux, cost_sign)
    chosen = keep & ((aux.wrap_cost * cost_sign) > 0)
    if not chosen.any():
        obs.inc("search.ratio.skipped")
        return None
    with obs.span("search.ratio_cycle"):
        h = aux.graph
        eids = np.flatnonzero(keep)
        nodes, local = np.unique(
            np.concatenate([h.tail[eids], h.head[eids]]), return_inverse=True
        )
        n = len(nodes)
        tail, head = local[: len(eids)], local[len(eids) :]
        d = h.delay[eids].astype(np.int64)
        big_w = np.where(chosen[eids], np.abs(aux.wrap_cost[eids]), 0).astype(np.int64)
        d_max, w_max = int(np.abs(d).max(initial=0)), int(big_w.max())

        if start is None:
            p, q = int(np.abs(d).sum()) + 1, 1
        else:
            p, q = start
            obs.inc("search.ratio.carried")
        best, passes = None, 0
        while True:
            checkpoint("search.ratio_cycle")
            bound = q * d_max + abs(p) * w_max
            if (n + 1) * bound >= WEIGHT_LIMIT:
                raise SolverError(f"ratio search weights reach {bound}; int64 would overflow")
            cycles = _negative_cycles(n, tail, head, q * d - p * big_w)
            passes += 1
            if not cycles:
                break
            totals = [(int(d[c].sum()), int(big_w[c].sum()), c) for c in cycles]
            zero_cost = [t for t in totals if t[1] == 0]
            if zero_cost:
                obs.inc("search.ratio.zero_cost_cycles")
                best = min(zero_cost, key=lambda t: t[0])
                break
            best = min(totals, key=lambda t: Fraction(t[0], t[1]))
            p, q = best[0], best[1]
        obs.add("search.ratio.newton_steps", passes - 1)
        if best is None:
            if start is None:
                raise SolverError("no cycle through a kept chosen-sign wrap")
            obs.inc("search.ratio.carried_unchanged")
            return []
        return eids[best[2]].tolist()


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
