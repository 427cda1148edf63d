"""Cooperative solve budgets: deadline, iteration cap, search-node cap.

The paper's Lemma 13 iteration bound (``D * sum(c) * sum(d)``) is
astronomically loose, so production solves need an *operational* stopping
rule that does not throw work away. A :class:`SolveBudget` is the immutable
policy (how much the caller is willing to spend); starting it yields a
:class:`BudgetMeter`, the mutable clock/odometer that the solver layers
consult cooperatively:

* :func:`repro.core.krsp.solve_krsp` and :func:`repro.online.resolve`
  arm one (or adopt the ambient one) and install it with :func:`metered`
  past the mandatory feasibility work,
* :func:`repro.core.cancellation.cancel_to_feasibility` checks once per
  iteration and counts each committed iteration,
* :mod:`repro.core.search` charges auxiliary-graph nodes against the node
  cap through :func:`charge_search_nodes`,
* the search's ratio cycles, the phase-1 Lagrangian loop and the LP
  layers call :func:`checkpoint`.

Below the entry points the meter travels only ambiently: the two helpers
read it from a context variable and are no-ops unless a meter is
installed (mirroring how :mod:`repro.obs` keeps disabled telemetry free).

A tripped check raises :class:`~repro.errors.BudgetExhaustedError`, which
the anytime layer catches and converts into a degraded-but-valid result —
see :mod:`repro.robustness.anytime` and docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

from repro.errors import BudgetExhaustedError


@dataclass(frozen=True)
class SolveBudget:
    """How much work one solve may spend. ``None`` means unlimited.

    Attributes
    ----------
    deadline_seconds:
        Wall-clock budget, measured from :meth:`start`.
    max_iterations:
        Cancellation-iteration cap (anytime counterpart of the legacy
        ``max_iterations`` argument, which *raises* on exhaustion).
    max_search_nodes:
        Cap on auxiliary-graph nodes built by the candidate search across
        the whole solve — the search's dominant memory/time driver.
    """

    deadline_seconds: float | None = None
    max_iterations: int | None = None
    max_search_nodes: int | None = None

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be nonnegative")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.max_search_nodes is not None and self.max_search_nodes < 0:
            raise ValueError("max_search_nodes must be nonnegative")

    @property
    def unlimited(self) -> bool:
        return (
            self.deadline_seconds is None
            and self.max_iterations is None
            and self.max_search_nodes is None
        )

    def start(self) -> "BudgetMeter":
        """Arm the budget: the deadline clock starts now."""
        return BudgetMeter(self)

    def sliced(self, fraction: float) -> "SolveBudget":
        """A budget with ``fraction`` of this one's deadline (caps kept).

        Used by the fallback chain to give each tier its own slice of the
        overall deadline.
        """
        if self.deadline_seconds is None:
            return self
        return SolveBudget(
            deadline_seconds=self.deadline_seconds * fraction,
            max_iterations=self.max_iterations,
            max_search_nodes=self.max_search_nodes,
        )


class BudgetMeter:
    """Runtime state of one armed :class:`SolveBudget`.

    Not thread-safe; one meter per solve. All checks are cheap (an integer
    compare, plus one ``perf_counter`` call when a deadline is set) so
    sprinkling them through hot loops is fine.
    """

    def __init__(self, budget: SolveBudget):
        self.budget = budget
        self.started_at = time.perf_counter()
        self.iterations_used = 0
        self.search_nodes_used = 0
        #: Set once a check trips — later checks keep raising the same way.
        self.exhausted_reason: str | None = None

    # -- inspection ------------------------------------------------------

    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self.started_at

    def remaining_seconds(self) -> float | None:
        """Deadline headroom (``None`` without a deadline; floored at 0)."""
        if self.budget.deadline_seconds is None:
            return None
        return max(0.0, self.budget.deadline_seconds - self.elapsed_seconds())

    def usage(self) -> dict:
        """Plain-data snapshot for certificates and telemetry."""
        return {
            "elapsed_seconds": self.elapsed_seconds(),
            "iterations_used": self.iterations_used,
            "search_nodes_used": self.search_nodes_used,
            "exhausted_reason": self.exhausted_reason,
        }

    # -- charging & checking --------------------------------------------

    def _trip(self, reason: str, where: str) -> None:
        self.exhausted_reason = reason
        raise BudgetExhaustedError(reason, where)

    def check(self, where: str = "") -> None:
        """Raise :class:`BudgetExhaustedError` if any limit is exceeded."""
        b = self.budget
        if self.exhausted_reason is not None:
            raise BudgetExhaustedError(self.exhausted_reason, where)
        if (
            b.deadline_seconds is not None
            and self.elapsed_seconds() >= b.deadline_seconds
        ):
            self._trip("deadline", where)
        if b.max_iterations is not None and self.iterations_used >= b.max_iterations:
            self._trip("iterations", where)
        if (
            b.max_search_nodes is not None
            and self.search_nodes_used >= b.max_search_nodes
        ):
            self._trip("search_nodes", where)

    def charge_iteration(self, where: str = "cancel") -> None:
        """Count one cancellation iteration, then re-check."""
        self.iterations_used += 1
        self.check(where)

    def charge_search_nodes(self, n: int, where: str = "search") -> None:
        """Count ``n`` auxiliary-graph nodes, then re-check."""
        self.search_nodes_used += int(n)
        self.check(where)


# -- ambient meter (contextvar) -----------------------------------------
#
# Every layer below the public entry points consults the ambient meter, so
# budget threading forces no signature change on any solver function.

_ACTIVE_METER: ContextVar[BudgetMeter | None] = ContextVar(
    "repro_budget_meter", default=None
)


def current_meter() -> BudgetMeter | None:
    """The ambient meter installed by :func:`metered`, if any."""
    return _ACTIVE_METER.get()


@contextmanager
def metered(meter: BudgetMeter | None) -> Iterator[BudgetMeter | None]:
    """Install ``meter`` as the ambient budget for the enclosed solve."""
    token = _ACTIVE_METER.set(meter)
    try:
        yield meter
    finally:
        _ACTIVE_METER.reset(token)


def checkpoint(where: str = "") -> None:
    """Cooperative cancellation point: check the ambient meter.

    Free when no budget is armed (one contextvar read)."""
    meter = _ACTIVE_METER.get()
    if meter is not None:
        meter.check(where)


def charge_search_nodes(n: int, where: str = "search") -> None:
    """Charge ``n`` auxiliary-graph nodes to the ambient meter, then check.

    Free when no budget is armed (one contextvar read)."""
    meter = _ACTIVE_METER.get()
    if meter is not None:
        meter.charge_search_nodes(n, where)
