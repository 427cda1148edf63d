"""Shared session state for the telemetry layer (internal).

One module owns all mutable state so :mod:`repro.obs.spans`,
:mod:`repro.obs.counters`, and :mod:`repro.obs.events` can stay
import-cycle free. The design is a *stack of sessions*:

* ``repro.obs.session(...)`` pushes a :class:`Telemetry` collector;
  nested sessions stack (e.g. the CLI's trace session around the
  solver's per-solve session), and every record is delivered to **all**
  active collectors, so an outer session always sees the union of the
  work done under it.
* When the stack is empty, every recording entry point returns
  immediately — the no-op fast path that keeps the instrumented hot
  paths free when tracing is disabled.

Sequence numbers are process-global and monotonic, which gives spans and
events a total order that survives interleaving across nested sessions.
Wall-clock values are never part of the determinism contract; counters
and event payloads are (same seed + instance ⇒ identical values).

Everything here is stdlib-only by design.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, NamedTuple

from repro.obs.hist import BUCKET_BOUNDS, Histogram

#: An add or observe buffer is folded once it holds this many entries, so
#: a long session that is never read stays bounded in memory (closed spans
#: are kept either way).
FOLD_AT = 1024

#: Version of the JSONL trace schema written by :meth:`Telemetry.write_trace`
#: and checked by :func:`repro.obs.report.validate_trace`. Version 2 added
#: the ``histograms`` line (PR 7); version-1 traces (no histograms) are
#: still accepted by the validator.
TRACE_SCHEMA = 2

#: Schema versions :func:`repro.obs.report.validate_trace` accepts.
SUPPORTED_SCHEMAS = frozenset({1, 2})

_SEQ = itertools.count(1)
_new_tuple = tuple.__new__
_LOCK = threading.Lock()

#: Active collectors, innermost last. Read without the lock on the hot
#: path (list reads are atomic under the GIL); mutated under the lock.
_SESSIONS: list["Telemetry"] = []


class SpanRecord(NamedTuple):
    """One closed span (immutable; a named tuple because one is built
    per span, and tuples build several times faster than frozen
    dataclasses).

    Attributes
    ----------
    name:
        Dotted span name (taxonomy in docs/OBSERVABILITY.md).
    span_id:
        Process-global id (also a valid sequence number).
    parent_id:
        Enclosing span's id, or ``None`` for a root span.
    seq:
        Monotonic open-order sequence number (equal to ``span_id``).
    start:
        ``time.perf_counter()`` at open (session-relative on serialization).
    duration:
        Wall seconds between open and close.
    """

    name: str
    span_id: int
    parent_id: int | None
    seq: int
    start: float
    duration: float


class _SpanStack(threading.local):
    """Per-thread stack of currently open spans, each as
    ``(span id, parent id, start)`` (parent linkage)."""

    def __init__(self) -> None:
        self.open: list[tuple[int, int | None, float]] = []


SPAN_STACK = _SpanStack()


def next_seq() -> int:
    """Next process-global monotonic sequence number."""
    return next(_SEQ)


def enabled() -> bool:
    """True when at least one telemetry session is collecting."""
    return bool(_SESSIONS)


def current() -> "Telemetry | None":
    """The innermost active session, or ``None``."""
    return _SESSIONS[-1] if _SESSIONS else None


def push(tel: "Telemetry") -> None:
    with _LOCK:
        _SESSIONS.append(tel)


def pop(tel: "Telemetry") -> None:
    with _LOCK:
        try:
            _SESSIONS.remove(tel)
        except ValueError:  # pragma: no cover - misnested teardown
            pass


class Telemetry:
    """One capture session: counters, gauges, closed spans, events.

    Obtained from :func:`repro.obs.session`; read after (or during) the
    ``with`` block. Everything below reads as plain data:

    ``counters``
        name -> accumulated int (deterministic for a fixed workload).
    ``gauges``
        name -> last value set (floats; last-write-wins).
    ``spans``
        closed :class:`repro.obs.spans.SpanRecord` objects, close order.
    ``events``
        structured event dicts (``kind``, ``seq``, payload fields).
    ``histograms``
        name -> :class:`repro.obs.hist.Histogram` of observed durations
        (every closed span feeds its name's histogram, plus explicit
        :func:`repro.obs.observe` calls such as the solve-level latency).
    ``lock``
        guards the dict-shaped state (``counters``/``gauges``/
        ``histograms``) against concurrent snapshot readers: a
        :class:`MetricsPublisher <repro.obs.server.MetricsPublisher>`
        thread copying the session mid-solve must see internally
        consistent dicts and histogram ``sum``/``count`` pairs. The lists
        (``spans``, ``events``) are append-only and copy safely without
        it. Reentrant, so a reader holding it may still read
        ``counters``/``histograms``.

    The ``repro.obs`` primitives never take the lock: ``add``/``inc``,
    ``observe`` and a closing span each append to a write-behind buffer
    (``pending_adds``, ``pending_observes``, ``pending_spans``). Readers
    fold what they read under the lock: ``counters`` the adds, ``spans``
    the closed spans (building their records and feeding their durations
    to the histograms), ``histograms`` the observations and closed spans.
    An add or observe buffer reaching :data:`FOLD_AT` entries is folded
    on the spot, and closing the session folds everything. A list append
    is atomic and about a third of a lock-guarded dict update, which
    keeps instrumented solves within the overhead guard. The direct
    methods (:meth:`add_counter`, :meth:`set_gauge`,
    :meth:`observe_hist`) still update under the lock.
    """

    def __init__(
        self, trace_path: str | Path | None = None, label: str | None = None
    ) -> None:
        self.label = label
        self.trace_path = Path(trace_path) if trace_path is not None else None
        self._counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self._spans: list[SpanRecord] = []
        self.events: list[dict[str, Any]] = []
        self._histograms: dict[str, Any] = {}
        self.lock = threading.RLock()
        # write-behind buffers of the repro.obs primitives (see above)
        self.pending_adds: list[tuple[str, int]] = []
        self.pending_observes: list[tuple[str, float]] = []
        # closed spans as (name, (span id, parent id, start), end)
        self.pending_spans: list[tuple[str, tuple[int, int | None, float], float]] = []
        self.started = time.perf_counter()
        self.wall_seconds = 0.0

    # -- recording -----------------------------------------------------------

    def add_counter(self, name: str, n: int) -> None:
        with self.lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        with self.lock:
            self.gauges[name] = value

    def observe_hist(self, name: str, value: float) -> None:
        with self.lock:
            self._histogram(name).observe(value)

    def _histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    @staticmethod
    def _take(buf: list) -> list:
        """Remove and return what ``buf`` holds now; entries appended
        meanwhile land past the slice and stay for the next take."""
        n = len(buf)
        batch = buf[:n]
        del buf[:n]
        return batch

    def fold_adds(self) -> None:
        """Fold buffered counter adds into ``counters``."""
        with self.lock:
            counters = self._counters
            for name, k in self._take(self.pending_adds):
                counters[name] = counters.get(name, 0) + int(k)

    def fold_observes(self) -> None:
        """Fold buffered observations into ``histograms``."""
        with self.lock:
            by_name: dict[str, list[float]] = {}
            for name, value in self._take(self.pending_observes):
                by_name.setdefault(name, []).append(value)
            for name, values in by_name.items():
                self._histogram(name).observe_all(values)

    def fold_spans(self) -> None:
        """Turn closed spans into ``spans`` records and feed their
        durations to ``histograms``."""
        with self.lock:
            spans = self._spans
            by_name: dict[str, list[float]] = {}
            for name, (sid, parent, start), end in self._take(self.pending_spans):
                duration = end - start
                # tuple.__new__ skips the named tuple's Python-level __new__
                spans.append(_new_tuple(SpanRecord, (name, sid, parent, sid, start, duration)))
                by_name.setdefault(name, []).append(duration)
            for name, values in by_name.items():
                self._histogram(name).observe_all(values)

    def fold(self) -> None:
        """Fold every write-behind buffer."""
        self.fold_adds()
        self.fold_observes()
        self.fold_spans()

    @property
    def counters(self) -> dict[str, int]:
        """name -> accumulated int (folds buffered adds first)."""
        if self.pending_adds:
            self.fold_adds()
        return self._counters

    @property
    def spans(self) -> list[SpanRecord]:
        """Closed spans in close order (folds newly closed ones first)."""
        if self.pending_spans:
            self.fold_spans()
        return self._spans

    @property
    def histograms(self) -> dict[str, Any]:
        """name -> :class:`Histogram` (folds buffered observations and
        closed spans first)."""
        if self.pending_observes:
            self.fold_observes()
        if self.pending_spans:
            self.fold_spans()
        return self._histograms

    # -- aggregation ------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[float, int]]:
        """Aggregate closed spans: name -> (total seconds, count)."""
        out: dict[str, tuple[float, int]] = {}
        for s in self.spans:
            tot, cnt = out.get(s.name, (0.0, 0))
            out[s.name] = (tot + s.duration, cnt + 1)
        return out

    def phase_times(self, prefix: str = "") -> dict[str, float]:
        """Total seconds per span name, optionally filtered by ``prefix``
        (which is stripped from the returned keys)."""
        out: dict[str, float] = {}
        for name, (tot, _) in self.span_totals().items():
            if name.startswith(prefix):
                key = name[len(prefix):]
                out[key] = out.get(key, 0.0) + tot
        return out

    def finish(self) -> None:
        """Seal the session: fix wall time, fold the buffers and flush the
        trace file."""
        self.wall_seconds = time.perf_counter() - self.started
        self.fold()
        if self.trace_path is not None:
            self.write_trace(self.trace_path)

    def as_dict(self) -> dict[str, Any]:
        """Machine-readable summary (the fuzz report's telemetry block)."""
        return {
            "schema": TRACE_SCHEMA,
            "label": self.label,
            "wall_seconds": round(self.wall_seconds, 6),
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "span_seconds": {
                name: round(tot, 6)
                for name, (tot, _) in sorted(self.span_totals().items())
            },
            "span_counts": {
                name: cnt for name, (_, cnt) in sorted(self.span_totals().items())
            },
            "latency_quantiles": {
                name: {
                    "count": h.count,
                    "p50": round(h.percentile(0.50), 9),
                    "p90": round(h.percentile(0.90), 9),
                    "p99": round(h.percentile(0.99), 9),
                }
                for name, h in sorted(self.histograms.items())
            },
            "events": len(self.events),
        }

    # -- trace serialization ----------------------------------------------

    def trace_lines(self) -> list[dict[str, Any]]:
        """The session as JSONL-ready dicts (see docs/OBSERVABILITY.md)."""
        lines: list[dict[str, Any]] = [
            {
                "type": "header",
                "schema": TRACE_SCHEMA,
                "tool": "repro-obs",
                "label": self.label,
            }
        ]
        for s in sorted(self.spans, key=lambda s: s.seq):
            lines.append(
                {
                    "type": "span",
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "seq": s.seq,
                    "name": s.name,
                    "start": round(s.start - self.started, 9),
                    "dur": round(s.duration, 9),
                }
            )
        # Sorted by seq: a background publisher thread (metrics heartbeats)
        # may append out of order relative to the main thread.
        for ev in sorted(self.events, key=lambda ev: ev.get("seq", 0)):
            lines.append({"type": "event", **ev})
        lines.append(
            {"type": "counters", "values": dict(sorted(self.counters.items()))}
        )
        lines.append({"type": "gauges", "values": dict(sorted(self.gauges.items()))})
        if self.histograms:
            lines.append(
                {
                    "type": "histograms",
                    "bounds": list(BUCKET_BOUNDS),
                    "values": {
                        name: h.as_dict()
                        for name, h in sorted(self.histograms.items())
                    },
                }
            )
        lines.append(
            {
                "type": "summary",
                "wall_seconds": round(
                    self.wall_seconds
                    or (time.perf_counter() - self.started),
                    9,
                ),
                "spans": len(self.spans),
                "events": len(self.events),
            }
        )
        return lines

    def write_trace(self, path: str | Path) -> None:
        """Serialize the session as one JSON object per line."""
        text = "\n".join(json.dumps(line) for line in self.trace_lines())
        Path(path).write_text(text + "\n")
