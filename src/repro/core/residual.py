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

    Attributes
    ----------
    graph:
        The residual :class:`DiGraph`; edge ``i`` here corresponds to edge
        ``i`` of the original graph.
    reversed_mask:
        Boolean array: ``reversed_mask[i]`` iff original edge ``i`` is in
        the solution and therefore appears reversed/negated.
    version:
        Edge-set version, bumped by every in-place delta. The journal
        records it with each iteration, and resume checks the restored
        residual against it.
    """

    graph: DiGraph
    reversed_mask: np.ndarray
    version: int = 0

    @property
    def m(self) -> int:
        return self.graph.m

    def apply_flip(self, edge_ids) -> np.ndarray:
        """Flip ``edge_ids`` in place (Def. 6 reversal toggle); bump version.

        The incremental counterpart of calling :func:`build_residual` with
        the next solution: flipping edge ``i`` swaps its endpoints and
        negates both weights via :meth:`DiGraph.flip_edges` (CSR indices
        patched, not rebuilt) and toggles ``reversed_mask[i]``. Passing the
        symmetric difference ``old_solution ^ new_solution`` makes this
        graph bit-identical to ``build_residual(g, new_solution).graph``.

        Returns the flipped ids (unique, sorted).
        """
        eids = np.unique(np.asarray(list(edge_ids), dtype=np.int64))
        self.graph.flip_edges(eids)
        self.reversed_mask[eids] = ~self.reversed_mask[eids]
        object.__setattr__(self, "version", self.version + 1)
        obs.inc("residual.delta_applies")
        obs.add("residual.delta_edges_flipped", len(eids))
        return eids

    def reweight_edges(self, edge_ids, cost, delay) -> np.ndarray:
        """Set new *original-orientation* weights in place; bump version.

        ``cost``/``delay`` are the new nonnegative input-graph weights,
        aligned with ``edge_ids``; reversed residual edges store them
        negated (Definition 6). Edge ids must be unique. Endpoints and
        therefore CSR indices are untouched.

        Returns the touched ids (sorted).
        """
        eids = np.asarray(list(edge_ids), dtype=np.int64)
        if len(eids) == 0:
            return eids
        if len(np.unique(eids)) != len(eids):
            raise GraphError("reweight_edges: duplicate edge ids")
        if eids.min() < 0 or eids.max() >= self.m:
            raise GraphError("reweight_edges: edge id out of range")
        cost = np.asarray(list(cost), dtype=np.int64)
        delay = np.asarray(list(delay), dtype=np.int64)
        if not (len(cost) == len(delay) == len(eids)):
            raise GraphError("reweight_edges: arrays must share one length")
        if (cost.min() if len(cost) else 0) < 0 or (delay.min() if len(delay) else 0) < 0:
            raise GraphError("reweight_edges: input weights must be nonnegative")
        sign = np.where(self.reversed_mask[eids], -1, 1).astype(np.int64)
        self.graph.cost[eids] = cost * sign
        self.graph.delay[eids] = delay * sign
        object.__setattr__(self, "version", self.version + 1)
        obs.inc("residual.reweights")
        obs.add("residual.reweight_edges_touched", len(eids))
        order = np.argsort(eids)
        return eids[order]

    def remove_edges(self, edge_ids) -> np.ndarray:
        """Delete edges in place (id-compacting); returns the old->new map.

        Refuses to remove a *reversed* edge: it carries solution flow, and
        deleting it would silently break the current k-flow — callers must
        treat that delta as a warm-start precondition failure and re-solve
        cold instead. The ``reversed_mask`` is compacted alongside the
        graph arrays so residual edge ``i`` keeps matching original edge
        ``i`` under the new numbering.
        """
        eids = np.unique(np.asarray(list(edge_ids), dtype=np.int64))
        if len(eids) == 0:
            return np.arange(self.m, dtype=np.int64)
        if eids[0] < 0 or eids[-1] >= self.m:
            raise GraphError("remove_edges: edge id out of range")
        if bool(self.reversed_mask[eids].any()):
            raise GraphError(
                "remove_edges: cannot remove a residual edge carrying solution flow"
            )
        id_map = self.graph.remove_edges(eids)
        object.__setattr__(self, "reversed_mask", self.reversed_mask[id_map >= 0])
        object.__setattr__(self, "version", self.version + 1)
        obs.inc("residual.structural_removes")
        obs.add("residual.structural_edges_removed", len(eids))
        return id_map

    def add_edges(self, tail, head, cost, delay) -> np.ndarray:
        """Append forward (non-reversed) edges in place; returns new ids.

        New edges enter with their input-graph orientation and nonnegative
        weights — an edge can only become reversed by later cancellation
        flips. Existing edge ids are stable.
        """
        cost = np.atleast_1d(np.asarray(cost, dtype=np.int64))
        delay = np.atleast_1d(np.asarray(delay, dtype=np.int64))
        if len(cost) and (cost.min() < 0 or delay.min() < 0):
            raise GraphError("add_edges: input weights must be nonnegative")
        new_ids = self.graph.add_edges(tail, head, cost, delay)
        object.__setattr__(
            self,
            "reversed_mask",
            np.concatenate([self.reversed_mask, np.zeros(len(new_ids), dtype=bool)]),
        )
        object.__setattr__(self, "version", self.version + 1)
        obs.inc("residual.structural_adds")
        obs.add("residual.structural_edges_added", len(new_ids))
        return new_ids

    def to_state(self) -> dict:
        """Serializable snapshot (graph arrays + CSR + mask + version).

        The checkpoint journal's full-snapshot records carry this so a
        resume restores the incremental engine's residual bit-identically
        without replaying the whole flip history (resume cost stays
        ``O(journal tail)``).
        """
        from repro.graph.digraph import encode_array

        return {
            "graph": self.graph.to_state(),
            "reversed_mask": encode_array(self.reversed_mask),
            "version": self.version,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ResidualGraph":
        """Inverse of :meth:`to_state`."""
        from repro.graph.digraph import decode_array

        mask = decode_array(state["reversed_mask"])
        if mask.dtype != np.bool_:
            mask = mask.astype(bool)
        return cls(
            graph=DiGraph.from_state(state["graph"]),
            reversed_mask=mask,
            version=int(state["version"]),
        )

    def apply_cycle(self, old_solution_edges, cycles: list[list[int]]) -> list[int]:
        """Apply ``oplus`` *and* update this residual in place.

        Computes the new solution via :func:`apply_residual_cycles`, then
        flips exactly the edges whose membership changed (the symmetric
        difference, which covers both the cancelled cycles and any edges
        the caller's cycle set touches twice would have rejected anyway).
        Returns the new solution edge ids, sorted.
        """
        new_solution = apply_residual_cycles(old_solution_edges, self, cycles)
        diff = set(int(e) for e in old_solution_edges) ^ set(new_solution)
        self.apply_flip(sorted(diff))
        return new_solution


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

    # Every array here is freshly allocated (np.where / elementwise product),
    # so the residual exclusively owns them — the precondition for the
    # in-place apply_flip delta path.
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
