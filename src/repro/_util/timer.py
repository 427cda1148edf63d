"""Lightweight wall-clock timing with named sub-sections (compat shim).

Historically this was the solver's only observability; it is now a thin
facade over :mod:`repro.obs`: every ``section`` also opens an obs span
(named ``<span_prefix>.<name>``), so legacy ``Timer`` call sites feed the
telemetry layer for free while keeping their local per-section totals.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager

from repro.obs.spans import span as _obs_span


class Timer:
    """Accumulates wall-clock seconds per named section.

    >>> t = Timer()
    >>> with t.section("lp"):
    ...     pass
    >>> t.as_dict()["lp"] >= 0.0
    True
    """

    def __init__(self, span_prefix: str = "timer") -> None:
        self._acc: dict[str, float] = {}
        self._span_prefix = span_prefix

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            with _obs_span(f"{self._span_prefix}.{name}"):
                yield
        finally:
            elapsed = time.perf_counter() - start
            self._acc[name] = self._acc.get(name, 0.0) + elapsed

    def as_dict(self) -> dict[str, float]:
        """Snapshot of all accumulated (closed-section) totals."""
        return dict(self._acc)
