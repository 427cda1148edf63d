"""LP (6) over auxiliary graphs and extraction of candidate cycles.

The paper solves a linear program over circulations of the auxiliary graph
and releases the cycles in its support (Algorithm 3 steps 1(a)ii–iii,
Theorem 16). We implement the search as a *minimum-ratio circulation* LP —
the Charnes–Cooper normalization of ``min d(O)/c(O)``:

    minimize    sum_{e in H} d(e) x_e
    subject to  x is a circulation in H        (conservation everywhere)
                sum_{wraps of chosen sign} |wrap_cost| * x = 1
                x >= 0, other-sign wraps fixed to 0

Because wrap edges are the only way to shift accumulated cost back to zero,
the normalization pins one unit of |cycle cost| mass of the chosen sign; the
optimum is then exactly ``min d(O)/|c(O)|`` over representable residual
cycles with that cost sign (and mixtures thereof, which decompose into
cycles at least one of which attains the optimum). Fractional optima are
peeled into H-cycles, projected to residual closed walks, split into simple
residual cycles, and returned with *exact integer* totals.

Boundedness: cost-zero cycles use no wraps, so a negative-delay wrap-free
circulation would drive an uncapped LP to ``-inf``. Variables are therefore
capped at :data:`MASS_CAP`; such circulations then surface as cost-0
negative-delay cycles in the peel — type-0 candidates, exactly what the
search wants most.

Pruning: every feasible point is a circulation, and a circulation splits
into cycles that each stay inside one strongly connected component of
``H`` without the closed other-sign wraps. HiGHS therefore sees only those
:func:`circulation_edges`; the pruned LP has the same feasible set on the
kept edges, the same optimum and the same infeasibility verdict, and the
dropped edges are 0 in the returned vector. When no chosen-sign wrap is
kept, the normalization row cannot be met and HiGHS is not called at all
(measurements: docs/PERFORMANCE.md, "Ratio LP on circulation edges only").
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro import obs
from repro.core.auxgraph import AuxGraph
from repro.core.bicameral import CandidateCycle
from repro.core.cycle_decompose import split_closed_walk
from repro.errors import BudgetExhaustedError, SolverError
from repro.graph.digraph import DiGraph
from repro.lp.engine import get_engine
from repro.lp.flow_lp import lp_time_limit_options

#: Mass below this is treated as zero when peeling fractional circulations.
PEEL_TOL = 1e-7

#: Per-edge mass cap in the ratio LP; see the boundedness note in
#: :func:`solve_ratio_lp`.
MASS_CAP = 1e6


def circulation_edges(aux: AuxGraph, cost_sign: int) -> np.ndarray:
    """Mask of the ``aux`` edges a circulation of the ratio LP can use.

    The other-sign wraps are closed in the LP, so they are dropped first;
    of the rest, an edge can carry circulation mass only when its tail and
    head lie in one strongly connected component (every circulation splits
    into cycles, and a cycle never leaves its component).
    """
    h = aux.graph
    usable = (aux.wrap_cost * cost_sign) >= 0
    adjacency = sp.csr_array(
        (np.ones(np.count_nonzero(usable)), (h.tail[usable], h.head[usable])),
        shape=(h.n, h.n),
    )
    _, component = connected_components(adjacency, directed=True, connection="strong")
    return usable & (component[h.tail] == component[h.head])


def solve_ratio_lp(aux: AuxGraph, cost_sign: int) -> np.ndarray | None:
    """Solve the normalized min-ratio circulation LP on ``aux``.

    ``cost_sign`` selects which wrap family is normalized (+1: cycles of
    positive cost; -1: negative cost). Returns the fractional edge vector,
    or ``None`` when no circulation of that sign exists within radius B.

    Only the :func:`circulation_edges` reach HiGHS (why that is exact:
    the module docstring), and the answer is scattered back to all of
    ``aux``'s edges. When no wrap of the chosen sign is among them, HiGHS
    is not called (``lp.ratio_lp.skipped``).

    Raises :class:`SolverError` on an unbounded LP (negative-delay zero-cost
    circulation — callers should have eliminated these first).
    """
    keep = circulation_edges(aux, cost_sign)
    if not (keep & ((aux.wrap_cost * cost_sign) > 0)).any():
        obs.inc("lp.ratio_lp.skipped")
        return None
    h = aux.graph
    sub = replace(
        aux,
        graph=DiGraph(h.n, h.tail[keep], h.head[keep], h.cost[keep], h.delay[keep]),
        orig_eid=aux.orig_eid[keep],
        wrap_cost=aux.wrap_cost[keep],
    )

    # An LP solve is the largest indivisible unit of work in the pipeline;
    # under an ambient deadline, cap HiGHS's own runtime at the remaining
    # budget so a single big solve cannot blow past the deadline. Assembly
    # (incl. the MASS_CAP boundedness trick — see the module docstring)
    # lives in repro.lp.engine.
    options, deadline_capped = lp_time_limit_options()
    res = get_engine().solve_ratio(sub, cost_sign, options=options)
    obs.inc("lp.ratio_lp.solves")
    if res.status == 2:
        return None
    if res.status == 1 and deadline_capped:
        raise BudgetExhaustedError("deadline", "auxlp.ratio_lp")
    if not res.success:
        raise SolverError(f"ratio LP failed: status={res.status} {res.message}")
    x = np.zeros(h.m)
    x[keep] = np.maximum(res.x, 0.0)
    return x


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


def candidates_from_circulation(
    aux: AuxGraph,
    residual: DiGraph,
    x: np.ndarray,
) -> list[CandidateCycle]:
    """Project a fractional H-circulation to exact residual cycle candidates.

    Every peeled H-cycle maps (wraps dropped) to a closed residual walk,
    which splits into simple residual cycles; totals are recomputed from
    the residual integer weights, so LP float noise cannot leak into
    classification.
    """
    h_cycles = peel_fractional_cycles(aux.graph, x)
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


def solve_lp6(aux: AuxGraph, delta_d: int) -> np.ndarray | None:
    """The paper's LP (6), literally: minimum-cost circulation in ``H``
    whose total delay is at most ``DeltaD``.

    ``DeltaD = D - sum d(P_i)`` is *negative* while the solution is
    delay-infeasible, so ``x = 0`` is infeasible and the budget row forces
    the circulation to buy at least ``|DeltaD|`` of delay reduction; the
    objective then finds the cheapest way to buy it. (The paper notes
    ``0 <= x <= 1`` "is not necessary"; we cap at :data:`MASS_CAP` for the
    same boundedness reason as :func:`solve_ratio_lp`.)

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
