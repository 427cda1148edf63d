"""Residual graphs with respect to a set of disjoint paths (Definition 6).

Given the input graph ``G`` and a current solution occupying edge set
``S`` (an integral unit k-flow), the residual graph ``G~`` keeps every edge
of ``G \\ S`` as-is and replaces every ``e in S`` by its reversal with
*both* cost and delay negated:

    c(e') = -c(e),   d(e') = -d(e)        [the paper's key deviation from
                                           [12, 18], which negate only one]

Representation: residual edge ``i`` corresponds one-to-one to original edge
``i`` — same id, flipped endpoints and negated weights exactly when
``i in S``. This makes the ``oplus`` application trivially expressible on
original edge ids and keeps the residual a plain :class:`DiGraph` (it is a
multigraph in general, which :class:`DiGraph` natively supports).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import GraphError
from repro.graph.digraph import DiGraph


@dataclass(frozen=True)
class ResidualGraph:
    """The residual multigraph plus the reversal bookkeeping.

    Built by :func:`build_residual` for one solution and never mutated:
    each cancellation iteration builds the residual of its own solution.

    Attributes
    ----------
    graph:
        The residual :class:`DiGraph`; edge ``i`` here corresponds to edge
        ``i`` of the original graph.
    reversed_mask:
        Boolean array: ``reversed_mask[i]`` iff original edge ``i`` is in
        the solution and therefore appears reversed/negated.
    """

    graph: DiGraph
    reversed_mask: np.ndarray

    @property
    def m(self) -> int:
        return self.graph.m


def build_residual(g: DiGraph, solution_edges) -> ResidualGraph:
    """Residual graph of ``g`` with respect to solution edge set (Def. 6)."""
    obs.inc("residual.rebuilds")
    mask = np.zeros(g.m, dtype=bool)
    idx = np.asarray(list(solution_edges), dtype=np.int64)
    if len(idx):
        if idx.min() < 0 or idx.max() >= g.m:
            raise GraphError("solution edge id out of range")
        mask[idx] = True
        if int(mask.sum()) != len(idx):
            raise GraphError("solution edge set contains duplicates")

    tail = np.where(mask, g.head, g.tail)
    head = np.where(mask, g.tail, g.head)
    sign = np.where(mask, -1, 1).astype(np.int64)
    res = DiGraph(g.n, tail, head, g.cost * sign, g.delay * sign)
    return ResidualGraph(graph=res, reversed_mask=mask)


def apply_residual_cycles(
    solution_edges,
    residual: ResidualGraph,
    cycles: list[list[int]],
) -> list[int]:
    """Apply the paper's ``oplus`` with one or more residual cycles.

    For each residual edge on a cycle: a *forward* edge (not reversed)
    enters the solution; a *reversed* edge removes its original from the
    solution. Cycles must be edge-disjoint among themselves (Proposition 7's
    hypothesis); the same residual edge appearing twice is rejected.

    Returns the new solution edge set (sorted original edge ids). By
    Proposition 7 the result is again an integral k-flow — callers verify by
    decomposing (:func:`repro.flow.decompose.decompose_flow`).
    """
    current = set(int(e) for e in solution_edges)
    seen: set[int] = set()
    for cycle in cycles:
        for e in cycle:
            e = int(e)
            if e in seen:
                raise GraphError("cycles are not edge-disjoint in the residual")
            seen.add(e)
            if residual.reversed_mask[e]:
                if e not in current:
                    raise GraphError("reversed residual edge not in solution")
                current.remove(e)
            else:
                if e in current:
                    raise GraphError("forward residual edge already in solution")
                current.add(e)
    return sorted(current)


def residual_weight_of(residual: ResidualGraph, edge_ids) -> tuple[int, int]:
    """(cost, delay) of a residual edge set under the signed weights."""
    g = residual.graph
    return g.cost_of(edge_ids), g.delay_of(edge_ids)
