"""Versioned cache of shifted auxiliary graphs with in-place delta patching.

Three observations make layered auxiliary graphs cacheable across the
cancellation loop (see docs/PERFORMANCE.md for the full protocol):

1. **Flip-invariant layout.** Edge ``e`` owns ``max(0, 2B + 1 - |c(e)|)``
   consecutive layer copies in the shifted graph of radius ``B``
   (:func:`repro.core.auxgraph.layer_window_counts`), and that count is
   symmetric in the sign of ``c(e)``. Cancelling a cycle negates costs but
   never changes ``|c|``, so every edge keeps exactly its segment of the
   flat arrays — a flip rewrites segment *values* (new endpoints, negated
   weights, shifted layer window) without moving a single byte of layout.
2. **Structural wraps.** Wrap edges depend only on ``(n, B)``
   (:func:`repro.core.auxgraph.shifted_wrap_arrays`) — they survive every
   residual change untouched.
3. **Prefix windows across the doubling schedule.** An edge's layer window
   at radius ``B`` starts at the same offset as at radius ``B/2`` and only
   extends, so level ``B`` is assembled by scattering level ``B/2``'s
   (edge id, window offset) structure into the wider layout and appending
   the extension copies — no re-enumeration of the shared prefix.

The cache key is ``(residual version, B)``; any entry can be brought to
the current version by replaying the flip log (parity-folded, so an edge
flipped twice costs nothing). Entries produced by any path — full build,
delta refresh, or growth — are **bit-identical** to a fresh
:func:`repro.core.auxgraph.build_aux_shifted` call on the current
residual, which is what keeps the incremental engine's LP inputs (and
therefore every solver decision) exactly equal to the from-scratch path.

Counters (see docs/OBSERVABILITY.md): ``search.aux_cache.hit`` /
``.miss`` / ``.delta_refresh`` / ``.grow`` / ``.evict``, the
``search.aux_cache.bytes`` gauge, and ``search.rebuild_bytes`` (bytes
actually written per construction or patch — the work a from-scratch
rebuild would have multiplied).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.auxgraph import (
    AuxGraph,
    build_aux_shifted,
    layer_window_counts,
    shifted_wrap_arrays,
)
from repro.core.residual import ResidualGraph
from repro.errors import GraphError
from repro.graph.digraph import DiGraph

#: Default byte budget for cached auxiliary graphs (per cache / per solve).
DEFAULT_MAX_BYTES = 128 * 1024 * 1024


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    starts = np.zeros(len(counts), dtype=np.int64)
    if len(counts) > 1:
        np.cumsum(counts[:-1], out=starts[1:])
    return starts


@dataclass
class _Entry:
    """One cached level: the aux graph plus its structural skeleton.

    ``counts``/``seg_starts`` describe the per-residual-edge segment
    layout of the layered (non-wrap) prefix; ``eids``/``offs`` are the
    per-copy (residual edge id, within-window offset) pairs. The skeleton
    depends only on ``|c|`` and ``B`` — never on flip state — so it is
    valid at every residual version and is what growth reuses.
    """

    aux: AuxGraph
    B: int
    version: int
    counts: np.ndarray
    seg_starts: np.ndarray
    eids: np.ndarray
    offs: np.ndarray

    @property
    def n_layer_edges(self) -> int:
        return len(self.eids)

    @property
    def nbytes(self) -> int:
        h = self.aux.graph
        return int(
            h.tail.nbytes
            + h.head.nbytes
            + h.cost.nbytes
            + h.delay.nbytes
            + self.aux.orig_eid.nbytes
            + self.aux.wrap_cost.nbytes
            + self.counts.nbytes
            + self.seg_starts.nbytes
            + self.eids.nbytes
            + self.offs.nbytes
        )


class AuxCache:
    """Keyed cache ``(residual version, B) -> AuxGraph`` over one residual.

    Bound to a single :class:`ResidualGraph` whose edge set evolves via
    :meth:`ResidualGraph.apply_flip`; the owner must report every flip
    through :meth:`note_flips` so stale entries can be parity-patched to
    the current version. At most one entry per ``B`` is kept (older
    versions are never needed again — the cancellation loop only moves
    forward), bounded by ``max_bytes`` with least-recently-used eviction.
    """

    def __init__(
        self, residual: ResidualGraph, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        self._res = residual
        self._max_bytes = int(max_bytes)
        self._entries: dict[int, _Entry] = {}
        self._lru: list[int] = []  # least-recently-used first
        # Flip log: _flips[v] holds the edge ids whose flip advanced the
        # residual from version v to v + 1.
        self._flips: dict[int, np.ndarray] = {}

    # -- bookkeeping ---------------------------------------------------------

    def note_flips(self, flipped_eids: np.ndarray) -> None:
        """Record a flip that already advanced the residual's version."""
        self._flips[self._res.version - 1] = np.asarray(
            flipped_eids, dtype=np.int64
        )

    def note_reweight(self, eids: np.ndarray) -> None:
        """Absorb an in-place reweight that already bumped the version.

        Reweights are *not* flips: they are not involutions, so they must
        never enter the parity-folded flip log (a later flip of the same
        edge would cancel the parity and leave stale magnitudes behind).
        Instead every cached level is reconciled eagerly, right now:

        * a level whose layer-window layout changed (``|c|`` drifted on
          some edge) is dropped — its skeleton can no longer describe the
          current residual, not even as a growth source;
        * a level with an intact layout is parity-patched over the flips
          it missed *plus* the reweighted edges, bringing it fully to the
          current version.

        The reweight's version increment deliberately stays absent from
        the flip log; the resulting gap only ever forces a rebuild for an
        entry older than this call, and none survive it.
        """
        eids = np.asarray(eids, dtype=np.int64)
        for B in list(self._entries):
            entry = self._entries[B]
            if not np.array_equal(
                layer_window_counts(self._res.graph.cost, B), entry.counts
            ):
                del self._entries[B]
                if B in self._lru:
                    self._lru.remove(B)
                obs.inc("search.aux_cache.reweight_drop")
                continue
            # Flips the entry missed, *excluding* the reweight bump itself
            # (it has no flip-log entry — see above).
            dirty = self._parity_between(entry.version, self._res.version - 1)
            if dirty is None:
                del self._entries[B]
                if B in self._lru:
                    self._lru.remove(B)
                obs.inc("search.aux_cache.reweight_drop")
                continue
            self._patch(entry, np.union1d(dirty, eids))
            obs.inc("search.aux_cache.reweight_patch")
        obs.gauge("search.aux_cache.bytes", float(self.total_bytes()))

    def note_structural_change(self) -> None:
        """Forget everything after an edge removal/addition on the residual.

        Structural deltas renumber or grow the edge id space: segment
        skeletons, the flip log's id references, and every parity array
        length become meaningless. The next :meth:`get` rebuilds from
        scratch (and subsequent radii grow from it as usual).
        """
        dropped = len(self._entries)
        self._entries.clear()
        self._lru.clear()
        self._flips.clear()
        if dropped:
            obs.add("search.aux_cache.structural_drop", dropped)
        obs.gauge("search.aux_cache.bytes", 0.0)

    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def _touch(self, B: int) -> None:
        if B in self._lru:
            self._lru.remove(B)
        self._lru.append(B)

    def _evict_to_cap(self) -> None:
        while len(self._lru) > 1 and self.total_bytes() > self._max_bytes:
            victim = self._lru.pop(0)
            del self._entries[victim]
            obs.inc("search.aux_cache.evict")
        obs.gauge("search.aux_cache.bytes", float(self.total_bytes()))

    def _parity_since(self, version: int) -> np.ndarray | None:
        """Edges whose state differs between ``version`` and now, or
        ``None`` when the flip log has a gap (forces a full rebuild)."""
        return self._parity_between(version, self._res.version)

    def _parity_between(self, v0: int, v1: int) -> np.ndarray | None:
        """Parity-folded flips over versions ``[v0, v1)``; ``None`` on a gap."""
        parity = np.zeros(self._res.m, dtype=bool)
        for v in range(v0, v1):
            flips = self._flips.get(v)
            if flips is None:
                return None
            parity[flips] ^= True
        return np.nonzero(parity)[0].astype(np.int64)

    # -- the lookup ----------------------------------------------------------

    def get(self, B: int) -> AuxGraph:
        """The shifted aux graph of radius ``B`` for the current residual.

        Bit-identical to ``build_aux_shifted(residual.graph, B)``. The
        returned graph is owned by the cache and valid until the next
        flip is applied to the residual — callers must treat it as
        transient within one search sweep.
        """
        version = self._res.version
        entry = self._entries.get(B)
        if entry is not None:
            if entry.version != version:
                dirty = self._parity_since(entry.version)
                if dirty is None:
                    entry = None  # log gap — rebuild below
                else:
                    self._patch(entry, dirty)
                    obs.inc("search.aux_cache.delta_refresh")
            if entry is not None:
                obs.inc("search.aux_cache.hit")
                self._touch(B)
                return entry.aux
        obs.inc("search.aux_cache.miss")
        source = None
        for b_prev in self._entries:
            if b_prev < B and (source is None or b_prev > source):
                source = b_prev
        if source is not None:
            entry = self._grow(self._entries[source], B)
            obs.inc("search.aux_cache.grow")
        else:
            entry = self._build(B)
        self._entries[B] = entry
        self._touch(B)
        self._evict_to_cap()
        return entry.aux

    # -- construction paths ---------------------------------------------------

    def _skeleton(self, B: int) -> tuple[np.ndarray, np.ndarray]:
        counts = layer_window_counts(self._res.graph.cost, B)
        return counts, _exclusive_cumsum(counts)

    def _build(self, B: int) -> _Entry:
        aux = build_aux_shifted(self._res.graph, B)
        counts, seg_starts = self._skeleton(B)
        n_layer = int(counts.sum())
        eids = aux.orig_eid[:n_layer]
        offs = np.arange(n_layer, dtype=np.int64) - seg_starts[eids]
        obs.add(
            "search.rebuild_bytes",
            aux.graph.tail.nbytes * 4 + aux.orig_eid.nbytes + aux.wrap_cost.nbytes,
        )
        return _Entry(
            aux=aux,
            B=B,
            version=self._res.version,
            counts=counts,
            seg_starts=seg_starts,
            eids=eids,
            offs=offs,
        )

    def _patch(self, entry: _Entry, dirty_eids: np.ndarray) -> None:
        """Rewrite the layer segments of ``dirty_eids`` to current values.

        O(sum of the dirty edges' window counts) instead of O(total aux
        edges): the layout is flip-invariant (see module docstring), so
        only values move. Idempotent against the current residual — an
        edge flipped an even number of times may be rewritten safely.
        """
        g = self._res.graph
        n_layers = entry.aux.n_layers
        active = dirty_eids[entry.counts[dirty_eids] > 0]
        entry.version = self._res.version
        if len(active) == 0:
            return
        cnt = entry.counts[active]
        total = int(cnt.sum())
        rep = np.repeat(active, cnt)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            _exclusive_cumsum(cnt), cnt
        )
        pos = np.repeat(entry.seg_starts[active], cnt) + offs
        layers = np.repeat(np.maximum(0, -g.cost[active]), cnt) + offs
        h = entry.aux.graph
        h.tail[pos] = g.tail[rep] * n_layers + layers
        h.head[pos] = g.head[rep] * n_layers + layers + g.cost[rep]
        h.cost[pos] = g.cost[rep]
        h.delay[pos] = g.delay[rep]
        h.invalidate_csr()
        obs.add("search.rebuild_bytes", int(4 * total * 8))

    def _grow(self, src: _Entry, B: int) -> _Entry:
        """Assemble level ``B`` from level ``src.B < B`` plus extensions.

        The source skeleton is version-independent (windows depend only on
        ``|c|``), so a stale source still grows correctly — values are
        always derived from the *current* residual arrays.
        """
        g = self._res.graph
        if src.B >= B:
            raise GraphError("growth source must have a smaller radius")
        n_layers = 2 * B + 1
        counts, seg_starts = self._skeleton(B)
        total = int(counts.sum())
        eids = np.empty(total, dtype=np.int64)
        offs = np.empty(total, dtype=np.int64)
        # Shared prefix: each edge's level-B segment starts with its
        # level-src.B copies at the same within-window offsets.
        pos_old = seg_starts[src.eids] + src.offs
        eids[pos_old] = src.eids
        offs[pos_old] = src.offs
        # Extension: offsets src.counts[e] .. counts[e]-1 per edge.
        ext_cnt = counts - src.counts
        active = np.nonzero(ext_cnt)[0].astype(np.int64)
        cnt = ext_cnt[active]
        n_ext = int(cnt.sum())
        if n_ext:
            rep = np.repeat(active, cnt)
            o = np.arange(n_ext, dtype=np.int64) - np.repeat(
                _exclusive_cumsum(cnt), cnt
            )
            within = src.counts[rep] + o
            pos_ext = seg_starts[rep] + within
            eids[pos_ext] = rep
            offs[pos_ext] = within
        layers = np.maximum(0, -g.cost)[eids] + offs
        tails = g.tail[eids] * n_layers + layers
        heads = g.head[eids] * n_layers + layers + g.cost[eids]
        w_tails, w_heads, w_costs = shifted_wrap_arrays(g.n, B)
        zeros = np.zeros(len(w_tails), dtype=np.int64)
        graph = DiGraph(
            g.n * n_layers,
            np.concatenate([tails, w_tails]),
            np.concatenate([heads, w_heads]),
            np.concatenate([g.cost[eids], zeros]),
            np.concatenate([g.delay[eids], zeros]),
        )
        aux = AuxGraph(
            graph=graph,
            n_base=g.n,
            B=B,
            offset=B,
            n_layers=n_layers,
            orig_eid=np.concatenate(
                [eids, np.full(len(w_tails), -1, dtype=np.int64)]
            ),
            wrap_cost=np.concatenate(
                [np.zeros(total, dtype=np.int64), w_costs]
            ),
        )
        obs.add(
            "search.rebuild_bytes",
            int(n_ext * 8 * 4) + int(len(w_tails) * 8 * 3),
        )
        return _Entry(
            aux=aux,
            B=B,
            version=self._res.version,
            counts=counts,
            seg_starts=seg_starts,
            eids=eids,
            offs=offs,
        )
