"""Nestable named spans: wall time, monotonic order, parent links.

A *span* is one timed region of solver work. Spans nest: a thread-local
stack links each span to its enclosing one, so a trace reconstructs the
call-tree shape of a run (phase-1 LP inside the solve, ratio searches
inside the bicameral sweep, ...). Usable both ways::

    with span("krsp.phase1"):
        ...

    @span("search.bicameral")
    def find_bicameral_cycle(...):
        ...

When no telemetry session is active (:func:`repro.obs.session`), entering
a span records nothing and costs one attribute read — instrumentation
left in hot paths is free while tracing is disabled.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Any, Callable

from repro.obs import _state
from repro.obs._state import SpanRecord  # noqa: F401  (re-exported)

# Hot-path aliases: the session list, span stack and sequence are
# mutated in place, never rebound.
_SESSIONS = _state._SESSIONS
_SPAN_STACK = _state.SPAN_STACK
_SEQ = _state._SEQ


class span:
    """Context manager *and* decorator marking one named timed region.

    Re-entrant and reusable: each ``with`` entry opens a fresh span, and
    decorating a function opens one per call.
    """

    __slots__ = ("name", "_open")

    def __init__(self, name: str) -> None:
        self.name = name
        self._open: tuple[int, int | None, float] | None = None

    def __enter__(self) -> "span":
        if not _SESSIONS:  # fast path: tracing disabled
            self._open = None
            return self
        stack = _SPAN_STACK.open
        opened = self._open = (
            next(_SEQ), stack[-1][0] if stack else None, perf_counter()
        )
        stack.append(opened)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        opened = self._open
        if opened is None:
            return False
        end = perf_counter()
        self._open = None
        stack = _SPAN_STACK.open
        if stack and stack[-1] is opened:
            stack.pop()
        elif opened in stack:  # pragma: no cover - misnested close
            stack.remove(opened)
        item = (self.name, opened, end)
        for tel in _SESSIONS:
            tel.pending_spans.append(item)  # a SpanRecord on the next fold
        return False

    def __call__(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(self.name):
                return fn(*args, **kwargs)

        return wrapper


def current_span_id() -> int | None:
    """Id of the innermost open span on this thread (``None`` outside)."""
    stack = _SPAN_STACK.open
    return stack[-1][0] if stack else None
