"""Deadline-sliced fallback chain with retry/backoff.

The ROADMAP's north star is serving heavy traffic, where a late answer
must still be an answer. The budgeted bicameral solver already degrades
gracefully on *time*; this module degrades gracefully on *faults*: when a
tier dies (numerical solver failure, injected fault, internal invariant
violation), the chain drops to the next-weaker guarantee, each tier under
its own slice of the remaining wall-clock deadline:

1. ``bicameral`` — the paper's (1, 2) algorithm (anytime under budget);
2. ``lp_rounding_2_2`` — phase 1 alone, Guo FAW 2014's bifactor (2, 2)
   (exactly the weaker-guarantee tier the related work suggests);
3. ``greedy_sequential`` — folklore sequential QoS routing, no guarantee.

Non-final tiers get half the remaining deadline; the final tier gets all
of it. Transient failures (:class:`~repro.errors.SolverError`, unexpected
exceptions) are retried once per tier with exponential backoff; structural
infeasibility from an *authoritative* tier (bicameral, LP rounding — both
certify via the fractional relaxation) stops the chain immediately, while
the greedy tier's failures are heuristic and merely advance the chain.

Exposed on the CLI as ``repro solve INSTANCE --deadline S --fallback``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from typing import TYPE_CHECKING

from repro import obs
from repro.errors import (
    BudgetExhaustedError,
    InfeasibleInstanceError,
    ReproError,
)
from repro.graph.digraph import DiGraph

if TYPE_CHECKING:  # solver/baseline imports are deferred to call time:
    # this module sits below repro.lp in the import graph (the LP layer
    # imports repro.robustness.budget for its cooperative checkpoint).
    from repro.core.krsp import KRSPSolution
from repro.robustness.anytime import (
    STATUS_DEGRADED,
    STATUS_OK,
    Certificate,
    make_certificate,
)
from repro.robustness.budget import SolveBudget, metered

#: Default tier order: strongest guarantee first.
DEFAULT_CHAIN: tuple[str, ...] = (
    "bicameral",
    "lp_rounding_2_2",
    "greedy_sequential",
)

#: Bifactor guarantee carried by each tier's answers (see
#: :data:`repro.baselines.GUARANTEES` for the baseline tags).
TIER_GUARANTEES = {
    "bicameral": "(1, 2) / (1+eps, 2+eps)",
    "lp_rounding_2_2": "(2, 2)",
    "greedy_sequential": "none",
}

def _authoritative_infeasible() -> frozenset[str]:
    """Tiers whose InfeasibleInstanceError is a *proof* (stops the chain);
    the rest treat it as a tier failure and fall through."""
    from repro.baselines import GUARANTEES

    return frozenset(
        name
        for name, tag in GUARANTEES.items()
        if tag in ("cost_anchor", "lemma5")
    ) | {"bicameral"}


@dataclass
class TierReport:
    """What one tier did: outcome per attempt, for the audit trail."""

    tier: str
    outcome: str  # "ok" | "degraded" | "infeasible" | "exhausted" | "error"
    seconds: float
    attempts: int
    deadline_slice: float | None
    error: str | None = None


@dataclass
class FallbackResult:
    """Outcome of :func:`solve_with_fallback`.

    ``paths`` is always a valid set of ``k`` edge-disjoint ``s``-``t``
    paths unless the chain proved infeasibility (then the call raised).
    ``status`` is ``"ok"`` only when the bicameral tier finished its full
    pipeline; any fallback or budget exhaustion reports ``"degraded"`` /
    ``"budget_exhausted"`` with the winning tier named in ``tier``.
    """

    paths: list[list[int]]
    cost: int
    delay: int
    delay_bound: int
    delay_feasible: bool
    status: str
    tier: str
    guarantee: str
    certificate: Certificate
    tiers: list[TierReport] = field(default_factory=list)
    solution: "KRSPSolution | None" = None  # set when the bicameral tier won


def _slice_deadline(remaining: float | None, tiers_left: int) -> float | None:
    """Non-final tiers get half the remaining deadline; the last gets all."""
    if remaining is None:
        return None
    if tiers_left <= 1:
        return remaining
    return remaining / 2.0


def solve_with_fallback(
    g: DiGraph,
    s: int,
    t: int,
    k: int,
    delay_bound: int,
    deadline_seconds: float | None = None,
    chain: tuple[str, ...] = DEFAULT_CHAIN,
    max_attempts: int = 2,
    backoff_base: float = 0.05,
    fault_hook: Callable[[str], None] | None = None,
    **solve_kwargs,
) -> FallbackResult:
    """Solve kRSP through the degradation chain under one overall deadline.

    Parameters
    ----------
    deadline_seconds:
        Overall wall-clock budget split across tiers (``None`` = no
        deadline; tiers then only fall through on faults).
    chain:
        Tier names, strongest first. ``"bicameral"`` runs
        :func:`repro.core.krsp.solve_krsp` (with an anytime budget when a
        deadline is set); every other name must be a registered baseline.
    max_attempts, backoff_base:
        Per-tier retry policy for transient failures: attempt ``i`` sleeps
        ``backoff_base * 2**(i-1)`` seconds first (skipped when it would
        eat the remaining deadline).
    fault_hook:
        Test seam: called with ``"{tier}.attempt{i}"`` before each attempt;
        the fault-injection plan (:mod:`repro.oracle.faults`) raises or
        sleeps here to drive the degradation paths deterministically.
    solve_kwargs:
        Extra keyword arguments for the bicameral tier's
        :func:`solve_krsp` (``phase1``, ``eps``, ...).

    Raises
    ------
    InfeasibleInstanceError
        When an authoritative tier proves the instance infeasible.
    ReproError
        When every tier failed and no valid answer exists to degrade to.
    """
    started = time.perf_counter()
    reports: list[TierReport] = []
    # (rank, result) candidates from tiers that answered but missed the
    # delay budget — returned only if no later tier does better.
    candidates: list[tuple[tuple[int, int], FallbackResult]] = []
    last_error: ReproError | None = None
    authoritative = _authoritative_infeasible()

    def remaining() -> float | None:
        if deadline_seconds is None:
            return None
        return max(0.0, deadline_seconds - (time.perf_counter() - started))

    for idx, tier in enumerate(chain):
        tiers_left = len(chain) - idx
        slice_s = _slice_deadline(remaining(), tiers_left)
        tier_started = time.perf_counter()
        attempts = 0
        error_text = None
        outcome = "error"
        answer: FallbackResult | None = None

        for attempt in range(1, max_attempts + 1):
            attempts = attempt
            if attempt > 1:
                pause = backoff_base * 2 ** (attempt - 2)
                rem = remaining()
                if rem is not None and pause >= rem:
                    break  # backing off would eat the whole deadline
                time.sleep(pause)
            try:
                if fault_hook is not None:
                    fault_hook(f"{tier}.attempt{attempt}")
                answer = _run_tier(
                    g, s, t, k, delay_bound, tier, slice_s, solve_kwargs
                )
                outcome = answer.status if tier == "bicameral" else "ok"
                break
            except InfeasibleInstanceError as exc:
                if tier in authoritative:
                    obs.emit("fallback.tier", tier=tier, outcome="infeasible")
                    raise
                # Heuristic failure (e.g. greedy painted into a corner):
                # the next tier may still answer.
                outcome, error_text = "infeasible", str(exc)
                last_error = exc
                break
            except BudgetExhaustedError as exc:
                # A baseline tier ran out of its slice mid-solve (the
                # bicameral tier absorbs its budget internally).
                outcome, error_text = "exhausted", str(exc)
                last_error = exc
                break
            except Exception as exc:  # noqa: BLE001 — the chain exists to
                # survive unexpected tier failures (that's the fault model).
                outcome, error_text = "error", f"{type(exc).__name__}: {exc}"
                if isinstance(exc, ReproError):
                    last_error = exc

        reports.append(
            TierReport(
                tier=tier,
                outcome=outcome,
                seconds=time.perf_counter() - tier_started,
                attempts=attempts,
                deadline_slice=slice_s,
                error=error_text,
            )
        )
        obs.emit(
            "fallback.tier",
            tier=tier,
            outcome=outcome,
            attempts=attempts,
            deadline_slice=slice_s,
        )

        if answer is not None:
            answer.tiers = reports
            if answer.delay_feasible:
                obs.inc("fallback.answered")
                obs.gauge("fallback.tier_index", idx)
                return answer
            # Valid but over budget: keep as a candidate, try the next tier.
            overshoot = answer.delay - delay_bound
            candidates.append(((max(0, overshoot), answer.cost), answer))

    if candidates:
        best = min(candidates, key=lambda rc: rc[0])[1]
        best.tiers = reports
        obs.inc("fallback.answered_infeasible")
        return best
    obs.inc("fallback.no_answer")
    if last_error is not None:
        raise last_error
    raise ReproError("every fallback tier failed without a usable answer")


def _run_tier(
    g: DiGraph,
    s: int,
    t: int,
    k: int,
    delay_bound: int,
    tier: str,
    slice_seconds: float | None,
    solve_kwargs: dict,
) -> FallbackResult:
    """Run one tier under its deadline slice, normalizing the result.

    One meter is armed for the slice and installed ambiently; every tier
    is called the same way and reads it from there."""
    from repro.baselines import BASELINES, GUARANTEES
    from repro.core.krsp import solve_krsp

    if tier != "bicameral" and tier not in BASELINES:
        raise KeyError(f"unknown fallback tier {tier!r}")
    meter = (
        SolveBudget(deadline_seconds=slice_seconds).start()
        if slice_seconds is not None
        else None
    )
    with metered(meter):
        if tier == "bicameral":
            sol = solve_krsp(g, s, t, k, delay_bound, **solve_kwargs)
        else:
            res = BASELINES[tier](g, s, t, k, delay_bound)
    if tier == "bicameral":
        return FallbackResult(
            paths=sol.paths,
            cost=sol.cost,
            delay=sol.delay,
            delay_bound=delay_bound,
            delay_feasible=sol.delay_feasible,
            status=sol.status,
            tier=tier,
            guarantee=TIER_GUARANTEES[tier],
            certificate=sol.certificate,
            solution=sol,
        )
    cert = make_certificate(
        res.cost,
        res.delay,
        delay_bound,
        None,
        exhausted_reason=None,
        usage=meter.usage() if meter is not None else None,
    )
    return FallbackResult(
        paths=[list(p) for p in res.paths],
        cost=res.cost,
        delay=res.delay,
        delay_bound=delay_bound,
        delay_feasible=res.delay <= delay_bound,
        status=STATUS_DEGRADED,
        tier=tier,
        guarantee=TIER_GUARANTEES.get(tier, GUARANTEES.get(tier, "none")),
        certificate=cert,
    )
