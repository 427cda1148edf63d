"""Layered auxiliary graphs for bicameral-cycle search (Algorithm 2).

The trick of the paper's Section 4: cycles of the residual graph mix
negative costs and negative delays, so no single-criterion negative-cycle
oracle applies. The auxiliary graph makes *cost structural*: vertex
``(u, l)`` means "at ``u`` having accumulated cost ``l`` since the cycle
started", so edges of ``H`` carry only delay, and delay-based machinery
(LPs, Bellman–Ford) becomes available.

Two constructions:

* :func:`build_aux_paper` — the literal Algorithm 2: layers ``0..B``, wrap
  edges anchored at one chosen vertex ``v`` (``H_v^+(B)`` closes cycles of
  cost ``+i`` via ``v^i -> v^0``; ``H_v^-(B)`` closes cost ``-(B-i)`` via
  ``v^i -> v^B``). Faithful, used by the Figure-2 reproduction and the
  Lemma 15 tests.
* :func:`build_aux_shifted` — the production variant (DESIGN.md
  "Substitutions"): layers ``-B..B`` stored at offset ``B``, wrap edges at
  *every* vertex and for *both* cost signs. Any residual cycle whose
  running-cost spread is at most ``B`` is representable from any starting
  vertex, so one graph per ``B`` serves the whole search instead of one
  per ``(v, B)`` pair. The search closes each cycle through a single wrap
  (:func:`repro.core.auxlp.min_ratio_cycles`), so each cycle it returns
  is one of some ``H_v^+(B)`` or ``H_v^-(B)``.

Both return an :class:`AuxGraph` carrying the maps back to residual edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph


@dataclass(frozen=True)
class AuxGraph:
    """A layered auxiliary graph with residual-edge bookkeeping.

    Attributes
    ----------
    graph:
        The auxiliary :class:`DiGraph` ``H``. Edge delays are meaningful;
        edge costs are informational (copied residual cost, 0 on wraps) —
        searches over ``H`` must weight by delay only.
    n_base:
        Vertex count of the underlying residual graph.
    B:
        The cost radius.
    offset:
        Layer index representing accumulated cost 0.
    n_layers:
        Total layers (``B+1`` for the paper variant, ``2B+1`` shifted).
    orig_eid:
        Per-H-edge: the residual edge id, or -1 for wrap edges.
    wrap_cost:
        Per-H-edge: the cycle cost a wrap edge certifies (0 elsewhere).
    """

    graph: DiGraph
    n_base: int
    B: int
    offset: int
    n_layers: int
    orig_eid: np.ndarray
    wrap_cost: np.ndarray

    def node(self, base_vertex: int, cost_level: int) -> int:
        """H node id for ``base_vertex`` at accumulated cost ``cost_level``."""
        layer = cost_level + self.offset
        if not 0 <= layer < self.n_layers:
            raise GraphError(f"cost level {cost_level} outside radius {self.B}")
        return base_vertex * self.n_layers + layer

    def is_wrap(self) -> np.ndarray:
        """Boolean mask of wrap edges."""
        return self.orig_eid < 0

    def to_residual_walk(self, h_edges: list[int]) -> list[int]:
        """Project a closed H-walk to the residual graph, dropping wraps.

        Wrap edges connect two layers of the same base vertex, so dropping
        them keeps the projected walk contiguous.
        """
        return [int(self.orig_eid[e]) for e in h_edges if self.orig_eid[e] >= 0]


def _layered_edges(
    g: DiGraph,
    n_layers: int,
    lo_layer_by_edge: np.ndarray,
    hi_layer_by_edge: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replicate every residual edge across its admissible layer window.

    Returns parallel int64 arrays (tails, heads, costs, delays, orig_eids)
    in H node ids. Fully vectorized: one ``repeat`` to fan edges out over
    their windows and one ramp subtraction to produce per-copy layers — the
    construction is called once per sweep level, so this is the hot path
    of the bicameral search after the LPs themselves.
    """
    lo = np.asarray(lo_layer_by_edge, dtype=np.int64)
    hi = np.asarray(hi_layer_by_edge, dtype=np.int64)
    counts = np.maximum(hi - lo + 1, 0)
    total = int(counts.sum())
    z = np.zeros(0, dtype=np.int64)
    if total == 0:
        return z, z, z, z, z
    eids = np.repeat(np.arange(g.m, dtype=np.int64), counts)
    # Per-copy layer: a global ramp minus each edge's segment start offset.
    starts = np.zeros(g.m, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    ramp = np.arange(total, dtype=np.int64)
    layers = lo[eids] + (ramp - starts[eids])
    tails = g.tail[eids] * n_layers + layers
    heads = g.head[eids] * n_layers + layers + g.cost[eids]
    return tails, heads, g.cost[eids], g.delay[eids], eids


def shifted_wrap_arrays(
    n: int, B: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wrap edges of the shifted graph, vectorized: (tails, heads, costs).

    Ordering is vertex-major with ``c0 = 1..B`` inner and the ``(+c0,
    -c0)`` pair innermost — the enumeration order the original Python loop
    produced, kept so the searches over ``H`` see wraps in the same order.
    Wraps depend only on ``(n, B)``, never on the residual weights.
    """
    n_layers = 2 * B + 1
    base = np.arange(n, dtype=np.int64) * n_layers + B  # (v, cost 0) node
    c0 = np.arange(1, B + 1, dtype=np.int64)
    # Shape (n, B, 2): [..., 0] is the +c0 wrap, [..., 1] the -c0 wrap.
    tails = np.stack(
        [base[:, None] + c0[None, :], base[:, None] - c0[None, :]], axis=2
    ).reshape(-1)
    heads = np.repeat(base, 2 * B)
    wrap_cost = np.broadcast_to(
        np.stack([c0, -c0], axis=1)[None, :, :], (n, B, 2)
    ).reshape(-1)
    return tails, heads, wrap_cost.astype(np.int64, copy=True)


def build_aux_shifted(res: DiGraph, B: int) -> AuxGraph:
    """Shifted auxiliary graph: layers ``-B..B``, wraps everywhere/both signs.

    Wrap edges: for every base vertex ``v`` and every ``c0`` in ``1..B``,

    * ``(v, +c0) -> (v, 0)`` certifying a cycle of cost ``+c0``, and
    * ``(v, -c0) -> (v, 0)`` certifying a cycle of cost ``-c0``.

    All wraps carry delay 0 and ``wrap_cost = +/-c0``.
    """
    if B < 1:
        raise GraphError("B must be >= 1")
    n_layers = 2 * B + 1
    offset = B
    # Edge (u,l) -> (v, l + c) valid when both layers lie in [0, n_layers).
    c = res.cost
    lo = np.maximum(0, -c)
    hi = np.minimum(n_layers - 1, n_layers - 1 - c)
    tails, heads, costs, delays, origs = _layered_edges(res, n_layers, lo, hi)
    w_tails, w_heads, w_costs = shifted_wrap_arrays(res.n, B)

    n_wraps = len(w_tails)
    zeros = np.zeros(n_wraps, dtype=np.int64)
    graph = DiGraph(
        res.n * n_layers,
        np.concatenate([tails, w_tails]),
        np.concatenate([heads, w_heads]),
        np.concatenate([costs, zeros]),
        np.concatenate([delays, zeros]),
    )
    orig_eid = np.concatenate([origs, np.full(n_wraps, -1, dtype=np.int64)])
    wrap_cost = np.concatenate([np.zeros(len(tails), dtype=np.int64), w_costs])
    return AuxGraph(
        graph=graph,
        n_base=res.n,
        B=B,
        offset=offset,
        n_layers=n_layers,
        orig_eid=orig_eid,
        wrap_cost=wrap_cost,
    )


def build_aux_paper(res: DiGraph, v: int, B: int, sign: int) -> AuxGraph:
    """Literal Algorithm 2: ``H_v^+(B)`` (``sign=+1``) or ``H_v^-(B)``.

    Layers ``0..B``; residual edges replicated wherever both endpoints'
    layers stay in range; wrap edges only at the anchor ``v``:

    * ``sign=+1``: ``v^i -> v^0`` for ``i = 1..B`` (cycle cost ``+i``);
    * ``sign=-1``: ``v^i -> v^B`` for ``i = 0..B-1`` (cycle cost ``i - B``).
    """
    if B < 1:
        raise GraphError("B must be >= 1")
    if sign not in (+1, -1):
        raise GraphError("sign must be +1 or -1")
    n_layers = B + 1
    c = res.cost
    lo = np.maximum(0, -c)
    hi = np.minimum(n_layers - 1, n_layers - 1 - c)
    tails, heads, costs, delays, origs = _layered_edges(res, n_layers, lo, hi)

    base = v * n_layers
    if sign > 0:
        # v^i -> v^0 for i = 1..B, certifying cycle cost +i.
        w_tails = base + np.arange(1, B + 1, dtype=np.int64)
        w_heads = np.full(B, base, dtype=np.int64)
        w_costs = np.arange(1, B + 1, dtype=np.int64)
    else:
        # v^i -> v^B for i = 0..B-1, certifying cycle cost i - B.
        w_tails = base + np.arange(0, B, dtype=np.int64)
        w_heads = np.full(B, base + B, dtype=np.int64)
        w_costs = np.arange(0, B, dtype=np.int64) - B

    zeros = np.zeros(B, dtype=np.int64)
    graph = DiGraph(
        res.n * n_layers,
        np.concatenate([tails, w_tails]),
        np.concatenate([heads, w_heads]),
        np.concatenate([costs, zeros]),
        np.concatenate([delays, zeros]),
    )
    orig_eid = np.concatenate([origs, np.full(B, -1, dtype=np.int64)])
    wrap_cost = np.concatenate([np.zeros(len(tails), dtype=np.int64), w_costs])
    # offset: in H^+, cycles start at layer 0 (cost level 0 == layer 0);
    # in H^-, cycles start at layer B. Encode via offset so node() maps
    # cost-level 0 to the start layer.
    offset = 0 if sign > 0 else B
    return AuxGraph(
        graph=graph,
        n_base=res.n,
        B=B,
        offset=offset,
        n_layers=n_layers,
        orig_eid=orig_eid,
        wrap_cost=wrap_cost,
    )
