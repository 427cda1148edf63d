"""Cheap named counters, gauges and histogram observations with a no-op
fast path.

Counters measure solver *work* in units the paper's analysis talks about
(Dijkstra pops, Bellman–Ford rounds, bicameral cycles found, cancellation
iterations, LP solves/pivots, residual rebuilds — full glossary in
docs/OBSERVABILITY.md). Unlike wall time they are **deterministic**: the
same seed and instance must produce identical counter values, which makes
them the auditable side of every quantitative claim.

Hot loops should accumulate into a local int and flush once per call::

    pops += 1            # inside the loop
    ...
    add("dijkstra.pops", pops)   # once, on the way out

so the disabled cost is literally zero function calls per loop iteration,
and the enabled cost is one list append per instrumented call: the
session folds its buffers into ``counters``/``histograms`` when they are
read (see :class:`repro.obs.Telemetry`).
"""

from __future__ import annotations

from repro.obs import _state
from repro.obs._state import FOLD_AT

#: The active sessions (mutated in place by ``repro.obs.session``, never
#: rebound), aliased for the hot path.
_SESSIONS = _state._SESSIONS


def add(name: str, n: int = 1) -> None:
    """Accumulate ``n`` into counter ``name`` on every active session.

    No-op (and near-free) when tracing is disabled; silently drops
    ``n == 0`` to keep flush sites unconditional.
    """
    if not _SESSIONS or n == 0:
        return
    item = (name, n)
    for tel in _SESSIONS:
        buf = tel.pending_adds
        buf.append(item)
        if len(buf) >= FOLD_AT:
            tel.fold_adds()


def inc(name: str) -> None:
    """Shorthand for ``add(name, 1)``."""
    if not _SESSIONS:
        return
    item = (name, 1)
    for tel in _SESSIONS:
        buf = tel.pending_adds
        buf.append(item)
        if len(buf) >= FOLD_AT:
            tel.fold_adds()


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (last write wins per session)."""
    sessions = _state._SESSIONS
    if not sessions:
        return
    value = float(value)
    for tel in sessions:
        tel.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record ``value`` (seconds) into histogram ``name`` on every active
    session. No-op when tracing is disabled."""
    if not _SESSIONS:
        return
    item = (name, value)
    for tel in _SESSIONS:
        buf = tel.pending_observes
        buf.append(item)
        if len(buf) >= FOLD_AT:
            tel.fold_observes()


def snapshot() -> dict[str, int]:
    """Copy of the innermost session's counters (``{}`` when disabled)."""
    tel = _state.current()
    return dict(tel.counters) if tel is not None else {}
