"""Array-backed directed multigraph with integer cost and delay per edge.

Design
------
Edges are the primary objects: edge ``e`` is described by
``tail[e] -> head[e]`` with weights ``cost[e]`` and ``delay[e]``. All four
attributes live in flat :mod:`numpy` ``int64`` arrays — the layout the HPC
guides recommend (contiguous, vectorizable, no per-edge Python objects).
Parallel edges and self-loops are allowed; residual graphs (Definition 6 of
the paper) are genuine multigraphs, so the substrate must be one too.

A compressed-sparse-row (CSR) adjacency index over *edge ids* is built lazily
on first use and cached; the arrays themselves are treated as immutable after
construction (mutating helpers return new graphs). The one exception is the
online churn seam, :meth:`DiGraph.remove_edges` / :meth:`DiGraph.add_edges`,
which edits the instance graph in place and drops the cached index.

Vertices are ``0..n-1``. Algorithms that need names keep their own mapping
(:func:`repro.graph.builders.from_edges` accepts arbitrary hashable names).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GraphError


class DiGraph:
    """Directed multigraph over vertices ``0..n-1`` with int64 edge weights.

    Parameters
    ----------
    n:
        Number of vertices.
    tail, head:
        Edge endpoint arrays (any integer dtype; stored as int64).
    cost, delay:
        Edge weight arrays. May be negative — residual graphs negate them.
        Use :meth:`require_nonnegative` to assert the input-instance
        contract.

    All arrays must share one length ``m``.
    """

    __slots__ = (
        "n",
        "m",
        "tail",
        "head",
        "cost",
        "delay",
        "_csr_out",
        "_csr_in",
    )

    def __init__(
        self,
        n: int,
        tail: np.ndarray,
        head: np.ndarray,
        cost: np.ndarray,
        delay: np.ndarray,
    ):
        tail = np.asarray(tail, dtype=np.int64)
        head = np.asarray(head, dtype=np.int64)
        cost = np.asarray(cost, dtype=np.int64)
        delay = np.asarray(delay, dtype=np.int64)
        m = len(tail)
        if not (len(head) == len(cost) == len(delay) == m):
            raise GraphError(
                "edge arrays must share one length: "
                f"tail={len(tail)} head={len(head)} cost={len(cost)} delay={len(delay)}"
            )
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        if m and (tail.min() < 0 or tail.max() >= n or head.min() < 0 or head.max() >= n):
            raise GraphError("edge endpoint outside range(n)")
        self.n = int(n)
        self.m = int(m)
        self.tail = tail
        self.head = head
        self.cost = cost
        self.delay = delay
        self._csr_out: tuple[np.ndarray, np.ndarray] | None = None
        self._csr_in: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "DiGraph":
        """Graph on ``n`` vertices with no edges."""
        z = np.zeros(0, dtype=np.int64)
        return cls(n, z, z, z, z)

    def copy(self) -> "DiGraph":
        """Deep copy (fresh arrays; CSR caches not shared)."""
        return DiGraph(
            self.n,
            self.tail.copy(),
            self.head.copy(),
            self.cost.copy(),
            self.delay.copy(),
        )

    def with_weights(self, cost: np.ndarray, delay: np.ndarray) -> "DiGraph":
        """Same topology, new weights (used by scaling, Theorem 4)."""
        return DiGraph(self.n, self.tail, self.head, cost, delay)

    def subgraph_edges(self, edge_ids: np.ndarray) -> "DiGraph":
        """Graph on the same vertex set keeping only ``edge_ids``.

        Edge ids in the result are renumbered ``0..len(edge_ids)-1`` in the
        order given; callers needing the original ids keep ``edge_ids``.
        """
        eids = np.asarray(edge_ids, dtype=np.int64)
        return DiGraph(
            self.n,
            self.tail[eids],
            self.head[eids],
            self.cost[eids],
            self.delay[eids],
        )

    # -- in-place mutation (online churn seam) -------------------------------

    def remove_edges(self, edge_ids: np.ndarray) -> np.ndarray:
        """Delete edges in place, compacting edge ids; returns the id map.

        Edge ids are renumbered to stay dense: a surviving edge with old id
        ``e`` becomes ``e - (#removed ids below e)``. The returned int64
        array has length *old* ``m`` and maps old id -> new id, with ``-1``
        marking removed edges — callers holding edge-id references (path
        sets) remap through it. Cached CSR indices are dropped; the next
        :meth:`out_csr` / :meth:`in_csr` rebuilds them.
        """
        eids = np.unique(np.asarray(edge_ids, dtype=np.int64))
        if len(eids) == 0:
            return np.arange(self.m, dtype=np.int64)
        if eids[0] < 0 or eids[-1] >= self.m:
            raise GraphError("remove_edges: edge id out of range")
        keep = np.ones(self.m, dtype=bool)
        keep[eids] = False
        new_m = int(keep.sum())
        id_map = np.full(self.m, -1, dtype=np.int64)
        id_map[keep] = np.arange(new_m, dtype=np.int64)
        self.tail = self.tail[keep]
        self.head = self.head[keep]
        self.cost = self.cost[keep]
        self.delay = self.delay[keep]
        self.m = new_m
        self._csr_out = self._csr_in = None
        return id_map

    def add_edges(
        self,
        tail: np.ndarray,
        head: np.ndarray,
        cost: np.ndarray,
        delay: np.ndarray,
    ) -> np.ndarray:
        """Append edges in place; returns the new edge ids.

        New edges take ids ``old_m .. old_m + len(tail) - 1`` (existing ids
        are stable, unlike :meth:`remove_edges`). Cached CSR indices are
        dropped; the next :meth:`out_csr` / :meth:`in_csr` rebuilds them.
        """
        tail = np.atleast_1d(np.asarray(tail, dtype=np.int64))
        head = np.atleast_1d(np.asarray(head, dtype=np.int64))
        cost = np.atleast_1d(np.asarray(cost, dtype=np.int64))
        delay = np.atleast_1d(np.asarray(delay, dtype=np.int64))
        k = len(tail)
        if not (len(head) == len(cost) == len(delay) == k):
            raise GraphError("add_edges: arrays must share one length")
        if k == 0:
            return np.zeros(0, dtype=np.int64)
        if tail.min() < 0 or tail.max() >= self.n or head.min() < 0 or head.max() >= self.n:
            raise GraphError("add_edges: edge endpoint outside range(n)")
        old_m = self.m
        self.tail = np.concatenate([self.tail, tail])
        self.head = np.concatenate([self.head, head])
        self.cost = np.concatenate([self.cost, cost])
        self.delay = np.concatenate([self.delay, delay])
        self.m = old_m + k
        self._csr_out = self._csr_in = None
        return np.arange(old_m, self.m, dtype=np.int64)

    # -- contracts -----------------------------------------------------------

    def require_nonnegative(self) -> "DiGraph":
        """Raise :class:`GraphError` unless all costs and delays are >= 0.

        Input kRSP instances must satisfy this; residual graphs do not.
        Returns ``self`` for chaining.
        """
        if self.m:
            if int(self.cost.min()) < 0:
                raise GraphError("negative edge cost in input graph")
            if int(self.delay.min()) < 0:
                raise GraphError("negative edge delay in input graph")
        return self

    # -- adjacency -----------------------------------------------------------

    def _build_csr(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(keys, kind="stable").astype(np.int64)
        counts = np.bincount(keys, minlength=self.n)
        starts = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        return starts, order

    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR over outgoing edges: ``(starts, edge_ids)``.

        Edges leaving vertex ``u`` are ``edge_ids[starts[u]:starts[u+1]]``.
        """
        if self._csr_out is None:
            self._csr_out = self._build_csr(self.tail)
        return self._csr_out

    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR over incoming edges: ``(starts, edge_ids)``."""
        if self._csr_in is None:
            self._csr_in = self._build_csr(self.head)
        return self._csr_in

    def out_edges(self, u: int) -> np.ndarray:
        """Edge ids leaving ``u`` (a view into the CSR index)."""
        starts, eids = self.out_csr()
        return eids[starts[u] : starts[u + 1]]

    def in_edges(self, v: int) -> np.ndarray:
        """Edge ids entering ``v``."""
        starts, eids = self.in_csr()
        return eids[starts[v] : starts[v + 1]]

    def out_degree(self, u: int) -> int:
        starts, _ = self.out_csr()
        return int(starts[u + 1] - starts[u])

    def in_degree(self, v: int) -> int:
        starts, _ = self.in_csr()
        return int(starts[v + 1] - starts[v])

    # -- aggregate weight queries ---------------------------------------------

    def cost_of(self, edge_ids) -> int:
        """Total cost of a collection of edge ids (exact Python int)."""
        eids = np.fromiter(edge_ids, dtype=np.int64) if not isinstance(edge_ids, np.ndarray) else edge_ids
        return int(self.cost[eids].sum()) if len(eids) else 0

    def delay_of(self, edge_ids) -> int:
        """Total delay of a collection of edge ids (exact Python int)."""
        eids = np.fromiter(edge_ids, dtype=np.int64) if not isinstance(edge_ids, np.ndarray) else edge_ids
        return int(self.delay[eids].sum()) if len(eids) else 0

    def total_cost(self) -> int:
        """``sum(c(e))`` over all edges — the paper's :math:`\\sum c(e)`."""
        return int(self.cost.sum())

    def total_delay(self) -> int:
        """``sum(d(e))`` over all edges — the paper's :math:`\\sum d(e)`."""
        return int(self.delay.sum())

    # -- iteration / dunder ----------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int, int, int, int]]:
        """Yield ``(eid, tail, head, cost, delay)`` tuples."""
        for e in range(self.m):
            yield (
                e,
                int(self.tail[e]),
                int(self.head[e]),
                int(self.cost[e]),
                int(self.delay[e]),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self.tail, other.tail))
            and bool(np.array_equal(self.head, other.head))
            and bool(np.array_equal(self.cost, other.cost))
            and bool(np.array_equal(self.delay, other.delay))
        )

    def __hash__(self) -> int:  # graphs are mutable-ish containers
        raise TypeError("DiGraph is unhashable")
