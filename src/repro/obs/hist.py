"""Fixed log-spaced-bucket duration histograms.

Every span close and the solve-level latency probe feed a
:class:`Histogram` per name on each active session, alongside the
counters (:mod:`repro.obs.counters`) and with the same
zero-cost-when-disabled guarantee: :func:`repro.obs.observe` returns
immediately when no session is collecting.

One **fixed, global** bucket ladder (:data:`BUCKET_BOUNDS`) covers every
histogram: 25 log-spaced upper bounds from 1µs to 100s (a factor of
``10^(1/3) ≈ 2.15`` per step) plus an overflow bucket. Fixed buckets keep
histograms mergeable across sessions and processes — the metrics server
sums them sample-free — and map directly onto Prometheus's cumulative
``le`` encoding (:mod:`repro.obs.promtext`).

Percentiles (:meth:`Histogram.percentile`) are the standard
bucket-interpolated estimates (what ``histogram_quantile`` computes):
exact to within one bucket's width, deterministic given the counts.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

#: Upper bounds (seconds, inclusive) of the fixed bucket ladder:
#: ``10^(e/3)`` for ``e`` in ``-18 .. 6``, i.e. 1µs → 100s. Values above
#: the last bound land in the overflow bucket.
BUCKET_BOUNDS: tuple[float, ...] = tuple(10.0 ** (e / 3.0) for e in range(-18, 7))

#: Number of counts a histogram stores: one per bound plus overflow.
N_BUCKETS = len(BUCKET_BOUNDS) + 1


class Histogram:
    """Counts per fixed bucket plus exact ``sum``/``count`` accumulators.

    ``counts[i]`` is the number of observations ``v`` with
    ``BUCKET_BOUNDS[i-1] < v <= BUCKET_BOUNDS[i]`` (non-cumulative);
    ``counts[-1]`` is the overflow bucket. ``sum`` and ``count`` are exact
    (not bucket-derived), matching Prometheus ``_sum``/``_count``.
    """

    __slots__ = ("counts", "sum", "count")

    def __init__(self) -> None:
        self.counts: list[int] = [0] * N_BUCKETS
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (seconds)."""
        self.counts[bisect_left(BUCKET_BOUNDS, value)] += 1
        self.sum += value
        self.count += 1

    def observe_all(self, values: list[float]) -> None:
        """Record every value in ``values``, in order (same result as
        calling :meth:`observe` on each)."""
        counts = self.counts
        for v in values:
            counts[bisect_left(BUCKET_BOUNDS, v)] += 1
        total = self.sum
        for v in values:
            total += v
        self.sum = total
        self.count += len(values)

    def merge(self, other: "Histogram | dict[str, Any]") -> None:
        """Fold another histogram (or its :meth:`as_dict` form) into this one."""
        if isinstance(other, dict):
            counts, hsum, count = other["counts"], other["sum"], other["count"]
        else:
            counts, hsum, count = other.counts, other.sum, other.count
        for i, c in enumerate(counts):
            self.counts[i] += int(c)
        self.sum += float(hsum)
        self.count += int(count)

    def percentile(self, q: float) -> float:
        """Bucket-interpolated ``q``-quantile (``0 < q <= 1``), 0.0 if empty.

        Linear interpolation inside the target bucket; the overflow bucket
        reports its lower bound (the largest statement the data supports).
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            cum += c
            if cum >= rank:
                if i >= len(BUCKET_BOUNDS):
                    return BUCKET_BOUNDS[-1]
                lo = BUCKET_BOUNDS[i - 1] if i > 0 else 0.0
                hi = BUCKET_BOUNDS[i]
                return lo + (hi - lo) * (rank - (cum - c)) / c
        return BUCKET_BOUNDS[-1]  # pragma: no cover - rank <= count always hits

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form: non-cumulative counts, exact sum/count."""
        return {"counts": list(self.counts), "sum": self.sum, "count": self.count}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Histogram":
        """Inverse of :meth:`as_dict` (validated leniently)."""
        h = cls()
        h.merge(d)
        return h


def validate_histogram(name: str, d: Any) -> list[str]:
    """Structural checks for one serialized histogram; returns problems."""
    problems: list[str] = []
    if not isinstance(d, dict):
        return [f"histogram {name!r} is not an object: {d!r}"]
    counts = d.get("counts")
    if not isinstance(counts, list) or len(counts) != N_BUCKETS:
        problems.append(
            f"histogram {name!r} has {len(counts) if isinstance(counts, list) else 'no'} "
            f"buckets (expected {N_BUCKETS})"
        )
        return problems
    if any(not isinstance(c, int) or c < 0 for c in counts):
        problems.append(f"histogram {name!r} has non-nonnegative-int bucket counts")
        return problems
    if d.get("count") != sum(counts):
        problems.append(
            f"histogram {name!r}: count {d.get('count')} != bucket total {sum(counts)}"
        )
    return problems
