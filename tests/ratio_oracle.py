"""The min-ratio circulation LP, kept as a test oracle for the ratio search.

:func:`repro.core.auxlp.min_ratio_cycle` finds an optimal cycle of an
auxiliary graph with exact Newton steps. This LP over the same
:func:`~repro.core.auxlp.circulation_edges` has the same optimum (a
circulation splits into cycles, and its normalised objective is a weighted
mean of their ratios), so the tests solve it in HiGHS through
:meth:`repro.lp.engine.LPEngine.solve_ratio` and compare:

    minimize    sum_{e in H} d(e) x_e
    subject to  x is a circulation in H
                sum_{wraps of chosen sign} |wrap_cost| * x = 1
                0 <= x <= MASS_CAP, other-sign wraps fixed to 0

A negative-delay cost-0 circulation uses no wraps; the mass cap keeps the
LP bounded, and such a circulation then drives the optimum far below any
cycle ratio.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro import obs
from repro.core.auxgraph import AuxGraph
from repro.core.auxlp import circulation_edges
from repro.errors import SolverError
from repro.graph.digraph import DiGraph
from repro.lp.engine import get_engine


def solve_ratio_lp(aux: AuxGraph, cost_sign: int) -> np.ndarray | None:
    """Solve the normalized min-ratio circulation LP on ``aux``.

    ``cost_sign`` selects which wrap family is normalized (+1: cycles of
    positive cost; -1: negative cost). Returns the fractional edge vector,
    or ``None`` when no circulation of that sign exists within radius B.
    Only the circulation edges reach HiGHS, and the answer is scattered
    back to all of ``aux``'s edges. When no wrap of the chosen sign is
    among them, HiGHS is not called (``lp.ratio_lp.skipped``); every solve
    counts ``lp.ratio_lp.solves``.
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
    res = get_engine().solve_ratio(sub, cost_sign)
    obs.inc("lp.ratio_lp.solves")
    if res.status == 2:
        return None
    if not res.success:
        raise SolverError(f"ratio LP failed: status={res.status} {res.message}")
    x = np.zeros(h.m)
    x[keep] = np.maximum(res.x, 0.0)
    return x
