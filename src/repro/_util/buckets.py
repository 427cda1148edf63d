"""Dial's bucket queue: a monotone priority queue for small integer keys.

When edge weights are small integers — scaled instances (Theorem 4) by
construction, most synthetic workloads in practice — Dijkstra's heap can be
replaced by an array of buckets indexed by tentative distance: pops are
amortized O(1) instead of O(log n), and all memory is flat arrays (the
optimization guides' favourite shape).

Supports the monotone use pattern only: keys popped in nondecreasing order,
and a pushed/decreased key is never below the last popped key. Dijkstra
satisfies this; general priority-queue users should stay with a
:mod:`heapq` queue.
"""

from __future__ import annotations

from repro.errors import GraphError


class BucketQueue:
    """Monotone integer-key priority queue (Dial's buckets).

    Parameters
    ----------
    capacity:
        Item ids lie in ``range(capacity)``.
    max_key:
        Keys lie in ``range(max_key + 1)``. Memory is ``O(max_key)`` —
        callers bound it by (max edge weight) * (max hops), e.g.
        ``C * (n - 1)`` for Dijkstra.
    """

    __slots__ = ("_buckets", "_key", "_cursor", "_size", "_max_key")

    def __init__(self, capacity: int, max_key: int):
        if max_key < 0:
            raise GraphError("max_key must be nonnegative")
        self._buckets: list[list[int]] = [[] for _ in range(max_key + 1)]
        self._key = [-1] * capacity  # current key per item; -1 = absent/stale
        self._cursor = 0
        self._size = 0
        self._max_key = max_key

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def push_or_decrease(self, item: int, key: int) -> bool:
        """Insert or lower ``item``'s key. Lazy-deletion style: the old
        bucket entry becomes stale and is skipped at pop time."""
        if not 0 <= key <= self._max_key:
            raise GraphError(f"key {key} outside [0, {self._max_key}]")
        if key < self._cursor:
            raise GraphError(
                f"monotonicity violated: key {key} below cursor {self._cursor}"
            )
        current = self._key[item]
        if current != -1 and current <= key:
            return False
        if current == -1:
            self._size += 1
        self._key[item] = key
        self._buckets[key].append(item)
        return True

    def pop(self) -> tuple[int, int]:
        """Remove and return ``(item, key)`` with the minimum key."""
        while self._cursor <= self._max_key:
            bucket = self._buckets[self._cursor]
            while bucket:
                item = bucket.pop()
                if self._key[item] == self._cursor:
                    self._key[item] = -1
                    self._size -= 1
                    return item, self._cursor
                # stale entry: the item was re-pushed at a lower key earlier
            self._cursor += 1
        raise IndexError("pop from empty bucket queue")


def dial_dijkstra(g, source: int, weight=None, target: int | None = None):
    """Dijkstra specialized to small integer weights via Dial's buckets.

    Same contract as :func:`repro.paths.dijkstra.dijkstra` (without
    potentials); requires nonnegative weights. Falls back to the binary
    heap automatically when the key range would be excessive (> ~4M).
    Returns ``(dist, pred_edge)``.
    """
    import numpy as np

    from repro.paths.dijkstra import INF, dijkstra as _heap_dijkstra

    w = g.cost if weight is None else np.asarray(weight, dtype=np.int64)
    if g.m and int(w.min()) < 0:
        raise GraphError("dial_dijkstra requires nonnegative weights")
    max_w = int(w.max()) if g.m else 0
    max_key = max_w * max(g.n - 1, 1)
    if max_key > 4_000_000:
        return _heap_dijkstra(g, source, weight=w, target=target)

    dist = np.full(g.n, INF, dtype=np.int64)
    pred = np.full(g.n, -1, dtype=np.int64)
    starts, eids = g.out_csr()
    heads = g.head
    q = BucketQueue(g.n, max_key)
    dist[source] = 0
    q.push_or_decrease(source, 0)
    while q:
        u, du = q.pop()
        if u == target:
            break
        if du > dist[u]:
            continue
        for e in eids[starts[u] : starts[u + 1]]:
            e = int(e)
            v = int(heads[e])
            nd = du + int(w[e])
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = e
                q.push_or_decrease(v, nd)
    return dist, pred
