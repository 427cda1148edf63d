"""Solver-wide telemetry: spans, counters, structured event traces.

A zero-dependency observability layer that makes the paper's quantitative
claims auditable on every run. The solver core, path algorithms, flow
layer, and LPs are instrumented with:

* **spans** (:mod:`repro.obs.spans`) — nestable named timed regions;
* **counters/gauges** (:mod:`repro.obs.counters`) — deterministic work
  measures (Dijkstra pops, Bellman–Ford rounds, bicameral cycles,
  cancellation iterations, LP solves/pivots, residual rebuilds);
* **histograms** (:mod:`repro.obs.hist`) — fixed log-bucket latency
  histograms per span name (mergeable across sessions and processes;
  p50/p90/p99 in ``repro trace``);
* **events** (:mod:`repro.obs.events`) — a structured per-iteration audit
  trail of the cancellation loop;
* **reports** (:mod:`repro.obs.report`) — phase tables, hot-span trees,
  JSON output, and trace-schema validation behind ``repro trace``;
* **export** (:mod:`repro.obs.promtext`, :mod:`repro.obs.server`,
  :mod:`repro.obs.flamegraph`, :mod:`repro.obs.diff`) — Prometheus
  text-format exposition with a push-aggregating ``/metrics`` server
  (``repro metrics serve``), collapsed-stack flamegraph export, and
  counter-drift trace diffing (``repro trace --diff``).

Nothing records until a session is opened, so instrumentation is free in
production paths::

    from repro import obs

    with obs.session(trace_path="out.jsonl") as tel:
        sol = solve_krsp(g, s, t, k, D)
    print(tel.counters["cancellation.iterations"])

Sessions nest; every record reaches all active sessions, so an outer
session (e.g. a fuzz run) aggregates across the per-solve sessions inside
it. See docs/OBSERVABILITY.md for the span taxonomy, counter glossary,
and trace file schema.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.obs import _state
from repro.obs._state import TRACE_SCHEMA, Telemetry
from repro.obs.counters import add, gauge, inc, observe, snapshot
from repro.obs.events import emit, events
from repro.obs.hist import BUCKET_BOUNDS, Histogram
from repro.obs.spans import SpanRecord, current_span_id, span


def enabled() -> bool:
    """True when at least one telemetry session is collecting."""
    return bool(_state._SESSIONS)


def current() -> Telemetry | None:
    """The innermost active session, or ``None``."""
    return _state.current()


@contextmanager
def session(
    trace_path: str | Path | None = None, label: str | None = None
) -> Iterator[Telemetry]:
    """Open a telemetry capture session.

    Everything recorded while the session is active (spans, counters,
    gauges, events) lands on the yielded :class:`Telemetry`; if
    ``trace_path`` is given, the session is serialized there as a JSONL
    trace on exit (even when the body raises — a failed run's trace is
    the one you want most).
    """
    tel = Telemetry(trace_path=trace_path, label=label)
    _state.push(tel)
    try:
        yield tel
    finally:
        _state.pop(tel)
        tel.finish()


__all__ = [
    "TRACE_SCHEMA",
    "Telemetry",
    "SpanRecord",
    "session",
    "enabled",
    "current",
    "span",
    "current_span_id",
    "add",
    "inc",
    "gauge",
    "snapshot",
    "observe",
    "Histogram",
    "BUCKET_BOUNDS",
    "emit",
    "events",
]
