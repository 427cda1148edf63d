"""Robustness layer: solve budgets, anytime results, fallback chain.

Production solving must never trade a late answer for no answer. This
package is the seam the whole stack routes through to guarantee that:

* :mod:`repro.robustness.budget` — :class:`SolveBudget` (wall-clock
  deadline, iteration cap, candidate-search node cap) and the cooperative
  :class:`BudgetMeter`. ``solve_krsp`` and ``resolve`` arm one (or an
  outer harness does: the fallback chain, the parallel trial runner) and
  install it with :func:`metered`; the cancellation loop, the bicameral
  search and the phase-1/LP layers read it from there, never from an
  argument;
* :mod:`repro.robustness.anytime` — the ``ok | degraded |
  budget_exhausted`` status taxonomy and the quality
  :class:`Certificate` every degraded answer carries;
* :mod:`repro.robustness.fallback` — the deadline-sliced
  ``bicameral → lp_rounding_2_2 → greedy_sequential`` degradation chain
  with retry/backoff (``repro solve --deadline S --fallback``);
* :mod:`repro.robustness.journal` / :mod:`repro.robustness.checkpointing`
  — crash safety: a CRC-framed, fsync'd write-ahead journal of the
  cancellation loop and :func:`resume_krsp`, which replays it to
  reconstruct a killed solve and finishes it bit-identically
  (``repro solve --checkpoint J`` / ``repro resume J``);
* :mod:`repro.robustness.signals` — two-strike SIGINT/SIGTERM handling
  (:class:`GracefulShutdown`): the first signal stops the solve, every
  committed step already durable, and exits ``128 + signum``; the second
  hard-exits.

Typical use::

    from repro.core import solve_krsp
    from repro.robustness import SolveBudget

    sol = solve_krsp(g, s, t, k, D, budget=SolveBudget(deadline_seconds=2))
    assert sol.status in ("ok", "degraded", "budget_exhausted")
    print(sol.certificate.delay_slack, sol.certificate.cost_bound_ratio)

See docs/ROBUSTNESS.md for the full semantics.
"""

from repro.robustness.anytime import (
    STATUS_BUDGET_EXHAUSTED,
    STATUS_DEGRADED,
    STATUS_OK,
    STATUSES,
    Certificate,
    make_certificate,
)
from repro.robustness.budget import (
    BudgetMeter,
    SolveBudget,
    checkpoint,
    current_meter,
    metered,
)
from repro.robustness.fallback import (
    DEFAULT_CHAIN,
    TIER_GUARANTEES,
    FallbackResult,
    TierReport,
    solve_with_fallback,
)
from repro.robustness.journal import (
    JOURNAL_FORMAT_VERSION,
    JournalDoc,
    JournalWriter,
    read_journal,
)
from repro.robustness.signals import GracefulShutdown

# checkpointing sits *above* the solver facade (it imports repro.core.krsp),
# while this package is imported *by* solver internals (budget, anytime) —
# so it must load lazily to keep the import graph acyclic (PEP 562).
_CHECKPOINTING_NAMES = {
    "CheckpointHook",
    "resume_krsp",
    "solve_checkpointed",
}


def __getattr__(name: str):
    if name in _CHECKPOINTING_NAMES:
        from repro.robustness import checkpointing

        return getattr(checkpointing, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BudgetMeter",
    "Certificate",
    "CheckpointHook",
    "DEFAULT_CHAIN",
    "GracefulShutdown",
    "JOURNAL_FORMAT_VERSION",
    "JournalDoc",
    "JournalWriter",
    "FallbackResult",
    "STATUSES",
    "STATUS_BUDGET_EXHAUSTED",
    "STATUS_DEGRADED",
    "STATUS_OK",
    "SolveBudget",
    "TIER_GUARANTEES",
    "TierReport",
    "checkpoint",
    "current_meter",
    "make_certificate",
    "metered",
    "read_journal",
    "resume_krsp",
    "solve_checkpointed",
    "solve_with_fallback",
]
