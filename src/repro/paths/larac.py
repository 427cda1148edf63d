"""LARAC: Lagrangian relaxation for the single restricted shortest path.

The classic dual heuristic for RSP (and the ancestor of the Lagrangian
phase-1 provider in :mod:`repro.core.phase1`): relax the delay constraint
into the objective with multiplier ``lambda >= 0``, walk the lower convex
envelope of (delay, cost) path trade-offs, and return

* the best *feasible* path found (delay ``<= D``), and
* the Lagrangian dual value ``L(lambda*) = c(P) + lambda* (d(P) - D)``,
  a certified lower bound on OPT.

LARAC's feasible path is not worst-case bounded, but its lower bound is what
the evaluation harness uses to normalize costs on instances too large for
the exact MILP.

All multiplier arithmetic is exact: ``lambda = num/den`` and the combined
weight is ``den * c(e) + num * d(e)`` (integral, nonnegative), so Dijkstra
applies at every step and no floating-point tie can derail the iteration.
The combined weights are formed as Python ints and checked against the
int64 distance range of :func:`~repro.paths.dijkstra.dijkstra` before each
search; a blend that could overflow raises :class:`SolverError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.errors import GraphError, SolverError
from repro.flow.mincost import lexicographic_weights
from repro.graph.digraph import DiGraph
from repro.paths.dijkstra import INF, dijkstra, extract_path


@dataclass(frozen=True)
class LaracResult:
    """Outcome of :func:`larac`.

    Attributes
    ----------
    path:
        Edge ids of the best delay-feasible path found.
    cost, delay:
        Its totals.
    lower_bound:
        Certified lower bound on the optimal feasible cost (a
        :class:`~fractions.Fraction`; ``float()`` it for display).
    lam:
        The final multiplier (Fraction).
    iterations:
        Number of combined-weight shortest-path calls.
    """

    path: list[int]
    cost: int
    delay: int
    lower_bound: Fraction
    lam: Fraction
    iterations: int


def _int64_weights(g: DiGraph, w: list[int]) -> np.ndarray:
    """Per-edge Python-int weights as int64, or :class:`SolverError` when a
    path of up to ``n`` such edges could leave the distance range."""
    bound = g.n * max(w, default=0)
    if bound >= INF:
        raise SolverError(f"LARAC path weights reach {bound}; int64 would overflow")
    return np.array(w, dtype=np.int64)


def _sp(g: DiGraph, s: int, t: int, weight) -> tuple[list[int], int]:
    dist, pred = dijkstra(g, s, weight=weight, target=t)
    if int(dist[t]) >= INF:
        raise GraphError("target unreachable")
    return extract_path(pred, g, t, source=s, dist=dist), int(dist[t])


def larac(
    g: DiGraph,
    s: int,
    t: int,
    delay_bound: int,
    max_iterations: int = 100,
) -> LaracResult | None:
    """Run LARAC; returns ``None`` when no delay-feasible path exists.

    Terminates when the multiplier update reaches a fixed point (standard
    LARAC convergence) or after ``max_iterations`` combined searches.
    """
    g.require_nonnegative()
    if s == t:
        return LaracResult([], 0, 0, Fraction(0), Fraction(0), 0)

    iterations = 0

    # p_c: min-cost extreme. Feasible => exact optimum, lower bound tight.
    # An unreachable target means no path at all, hence infeasible.
    try:
        path_c, _ = _sp(g, s, t, g.cost)
    except GraphError:
        return None
    iterations += 1
    cost_c, delay_c = g.cost_of(path_c), g.delay_of(path_c)
    if delay_c <= delay_bound:
        return LaracResult(
            path_c, cost_c, delay_c, Fraction(cost_c), Fraction(0), iterations
        )

    # p_d: min-delay extreme. Infeasible => no feasible path at all.
    path_d, _ = _sp(g, s, t, g.delay)
    iterations += 1
    if g.delay_of(path_d) > delay_bound:
        return None
    # Among min-delay paths prefer cheap ones: re-run with cost tie-break
    # folded in (weight = delay * (1 + sum(cost)) + cost keeps ordering by
    # delay primary, cost secondary, still integral).
    tie_broken, _ = lexicographic_weights(g.delay, g.cost)
    path_d, _ = _sp(g, s, t, _int64_weights(g, tie_broken))
    iterations += 1
    cost_d, delay_d = g.cost_of(path_d), g.delay_of(path_d)

    infeasible = (path_c, cost_c, delay_c)  # cheap but too slow
    feasible = (path_d, cost_d, delay_d)

    # Dual bound bookkeeping: every combined search at multiplier lam yields
    # the certified bound min_P [c(P) + lam*(d(P) - D)]; lam=0 (the min-cost
    # search above) contributes cost_c.
    best_bound = Fraction(cost_c)

    lam = Fraction(0)
    while iterations < max_iterations:
        pc, cc, dc = infeasible
        pf, cf, df = feasible
        if dc == df:
            break
        lam = Fraction(cf - cc, dc - df)
        if lam <= 0:
            break
        # Integral combined weight den*c + num*d.
        blend = [
            lam.denominator * c + lam.numerator * d
            for c, d in zip(g.cost.tolist(), g.delay.tolist())
        ]
        path_r, wval = _sp(g, s, t, _int64_weights(g, blend))
        iterations += 1
        cr, dr = g.cost_of(path_r), g.delay_of(path_r)
        # The search certifies L(lam) = wval/den - lam*D <= OPT.
        best_bound = max(best_bound, Fraction(wval, lam.denominator) - lam * delay_bound)
        # Fixed point: the new path achieves the same combined value as the
        # current extremes — lambda is optimal for the dual.
        cur_val = lam.denominator * cc + lam.numerator * dc
        if wval == cur_val:
            break
        if dr <= delay_bound:
            feasible = (path_r, cr, dr)
        else:
            infeasible = (path_r, cr, dr)

    pf, cf, df = feasible
    lower = min(max(best_bound, Fraction(0)), Fraction(cf))
    return LaracResult(pf, cf, df, lower, lam, iterations)
