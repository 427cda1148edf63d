"""The incremental search engine threaded through the cancellation loop.

One :class:`IncrementalSearch` instance lives for the duration of one
``cancel_to_feasibility`` call. Instead of rebuilding the residual graph
from the solution edge set every iteration, the engine keeps a single
:class:`~repro.core.residual.ResidualGraph` and advances it by flipping
exactly the edges whose solution membership changed (the symmetric
difference of consecutive solutions — which also covers edges removed by
``strip_improving_cycles`` beyond the applied cycle itself). Layered
graphs are built fresh for every sweep level; the
:meth:`IncrementalSearch.aux_provider` seam only checks that the residual
it is handed is the one the engine owns.

Because the residual arrays are bit-identical to their from-scratch
counterparts, every downstream decision — Bellman–Ford probes, ratio
searches, candidate extraction, selection — is unchanged; the differential
suite (``tests/test_search_incremental.py``) asserts the full
cancelled-cycle sequence and telemetry trail match. Both finders run on it.
"""

from __future__ import annotations

import numpy as np

from repro.core.auxgraph import AuxGraph, build_aux_shifted
from repro.core.residual import ResidualGraph, build_residual
from repro.errors import GraphError
from repro.graph.digraph import DiGraph


class IncrementalSearch:
    """Long-lived residual state for one cancellation run.

    Usage (what :func:`repro.core.cancellation.cancel_to_feasibility`
    does by default)::

        engine = IncrementalSearch(g)
        while infeasible:
            residual = engine.residual_for(sol.edge_ids)
            pick = find_bicameral_cycle(
                residual, ..., aux_provider=engine.aux_provider)
            ...
    """

    def __init__(self, graph: DiGraph) -> None:
        self._g = graph
        self._residual: ResidualGraph | None = None
        self._solution: frozenset[int] | None = None

    @property
    def residual(self) -> ResidualGraph | None:
        return self._residual

    def residual_for(self, solution_edge_ids) -> ResidualGraph:
        """The residual of the current solution, updated in place.

        First call builds it from scratch (Definition 6); later calls flip
        the symmetric difference against the previous solution and bump the
        version, which is bit-identical to a rebuild (differentially
        tested) at ``O(changed edges)`` cost.
        """
        new_solution = frozenset(int(e) for e in solution_edge_ids)
        if self._residual is None:
            self._residual = build_residual(self._g, sorted(new_solution))
        else:
            diff = self._solution ^ new_solution
            if diff:
                self._residual.apply_flip(sorted(diff))
        self._solution = new_solution
        return self._residual

    def restore(self, residual: ResidualGraph) -> None:
        """Adopt a checkpoint-restored residual as the engine's live state.

        The resume path (:func:`repro.robustness.checkpointing.resume_krsp`)
        deserializes the snapshot's residual and hands it here; the solution
        it reflects is exactly its reversed edge set, so no separate edge
        list is needed.
        """
        self._residual = residual
        self._solution = frozenset(
            int(e) for e in np.nonzero(residual.reversed_mask)[0]
        )

    def apply_reweight(self, edge_ids, cost, delay) -> np.ndarray:
        """Drift edge weights in place (online churn seam); returns ids.

        ``cost``/``delay`` are new original-orientation values aligned with
        ``edge_ids``; the residual stores them sign-adjusted and bumps its
        version.
        """
        if self._residual is None:
            raise GraphError("apply_reweight: engine has no residual yet")
        return self._residual.reweight_edges(edge_ids, cost, delay)

    def remove_edges(self, edge_ids) -> np.ndarray:
        """Delete edges from the residual (online churn seam); returns map.

        Refuses edges carrying solution flow (see
        :meth:`ResidualGraph.remove_edges`); the old->new id map is what
        callers use to renumber their path sets. Edge ids shift, so the
        cached solution set is recomputed from the compacted mask.
        """
        if self._residual is None:
            raise GraphError("remove_edges: engine has no residual yet")
        id_map = self._residual.remove_edges(edge_ids)
        self._rebind_structural()
        return id_map

    def add_edges(self, tail, head, cost, delay) -> np.ndarray:
        """Append forward edges to the residual (online churn seam)."""
        if self._residual is None:
            raise GraphError("add_edges: engine has no residual yet")
        new_ids = self._residual.add_edges(tail, head, cost, delay)
        self._rebind_structural()
        return new_ids

    def _rebind_structural(self) -> None:
        """Re-derive engine state after a structural residual mutation."""
        assert self._residual is not None
        self._solution = frozenset(
            int(e) for e in np.nonzero(self._residual.reversed_mask)[0]
        )

    def aux_provider(self, residual_graph: DiGraph, B: int) -> AuxGraph:
        """``build_aux_shifted`` on the residual this engine owns.

        Refuses any other residual: a finder handed a stale or foreign
        graph would search cycles of a solution the engine is not tracking.
        The seam stays because the benchmark's layer tracer times it by
        name.
        """
        if self._residual is None or residual_graph is not self._residual.graph:
            raise GraphError(
                "aux_provider called with a residual this engine does not own"
            )
        return build_aux_shifted(residual_graph, B)
