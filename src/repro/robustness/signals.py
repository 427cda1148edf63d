"""Graceful SIGINT/SIGTERM handling for long-running solves and sweeps.

Policy (the classic two-strike shutdown):

* **first** signal: set a flag. Cooperative loops (the cancellation loop
  via its checkpoint hook, the parallel harness between completions) poll
  it and stop, their durable state — the journal, the trial JSONL —
  already on disk, and exit with the conventional code ``128 + signum``
  (130 for SIGINT, 143 for SIGTERM) after printing where the checkpoint
  landed;
* **second** signal: the user means it — hard-exit immediately with
  ``os._exit(128 + signum)`` (covers loops stuck in non-cooperative code,
  e.g. a long HiGHS solve).

Handlers are installed only inside the :class:`GracefulShutdown` context
manager and restored on exit, so library use never hijacks a host
application's signal disposition.
"""

from __future__ import annotations

import os
import signal
from types import FrameType


class GracefulShutdown:
    """Install two-strike SIGINT/SIGTERM handlers for a scoped region.

    Usage::

        with GracefulShutdown() as shutdown:
            ...long work, polling shutdown.signum...
        # handlers restored here

    ``signum`` is ``None`` until the first signal arrives, then the signal
    number. :meth:`exit_code` maps it to ``128 + signum``.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.signum: int | None = None
        self._previous: dict[int, object] = {}

    # -- context management ----------------------------------------------

    def __enter__(self) -> "GracefulShutdown":
        for sig in self.SIGNALS:
            self._previous[sig] = signal.signal(sig, self._handle)
        return self

    def __exit__(self, *exc) -> None:
        for sig, old in self._previous.items():
            signal.signal(sig, old)
        self._previous.clear()

    # -- signal handling --------------------------------------------------

    def _handle(self, signum: int, frame: FrameType | None) -> None:
        if self.signum is not None:
            os._exit(128 + signum)  # second strike: hard exit, now
        self.signum = signum

    @property
    def triggered(self) -> bool:
        return self.signum is not None

    def exit_code(self) -> int:
        """The conventional exit code for the received signal (0 if none)."""
        return 0 if self.signum is None else 128 + self.signum
