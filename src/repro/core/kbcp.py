"""kBCP: k disjoint bi-constrained paths, solved through the kRSP engine.

Section 1.2 of the paper defines the *k disjoint bi-constrained path
problem* (kBCP): find ``k`` edge-disjoint ``s -> t`` paths with **both**
``sum c(P_i) <= C`` and ``sum d(P_i) <= D`` — no objective, two budgets —
and observes that "kBCP is a weaker version of kRSP, and hence all
approximations of kRSP can be adopted to solve kBCP, but not the other way
around".

This module is that adoption, made concrete: run the kRSP
``(1 + eps1, 2 + eps2)`` algorithm with the delay budget; its output
violates the cost budget by at most the kRSP cost factor whenever the kBCP
instance is feasible (any feasible kBCP solution is a delay-feasible kRSP
solution of cost ``<= C``, so ``C_OPT <= C``). The result is a bifactor
kBCP approximation: delay within ``(1 + eps1) * D``, cost within
``(2 + eps2) * C``. For comparison, [12] achieves
``(1 + beta, max(2, 1 + ln(1/beta)))`` — the kRSP route matches its cost
factor at ``beta = 1`` while keeping the delay factor arbitrarily close
to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.krsp import KRSPSolution, solve_krsp
from repro.core.phase1 import DEFAULT_PROVIDER
from repro.errors import InfeasibleInstanceError
from repro.graph.digraph import DiGraph


@dataclass
class KBCPSolution:
    """Outcome of :func:`solve_kbcp`.

    Attributes
    ----------
    paths, cost, delay:
        As in :class:`~repro.core.krsp.KRSPSolution`.
    cost_bound, delay_bound:
        The instance's two budgets.
    cost_within_factor:
        ``cost / C`` — guaranteed ``<= 2 + eps2`` when the instance is
        feasible.
    delay_within_factor:
        ``delay / D`` — guaranteed ``<= 1 + eps1``.
    krsp:
        The underlying kRSP solution (full instrumentation).
    """

    paths: list[list[int]]
    cost: int
    delay: int
    cost_bound: int
    delay_bound: int
    cost_within_factor: float
    delay_within_factor: float
    krsp: KRSPSolution


def solve_kbcp(
    g: DiGraph,
    s: int,
    t: int,
    k: int,
    cost_bound: int,
    delay_bound: int,
    eps: tuple[float, float] | float | None = None,
    phase1: str = DEFAULT_PROVIDER,
) -> KBCPSolution:
    """Approximate kBCP via the kRSP engine.

    Guarantee: when ``k`` disjoint paths with ``cost <= C`` and
    ``delay <= D`` exist, the returned paths satisfy
    ``delay <= (1 + eps1) * D`` and ``cost <= (2 + eps2) * C``
    (``eps = None`` gives the pseudo-polynomial exact-budget variant with
    ``delay <= D`` and ``cost <= 2 * C``).

    Raises
    ------
    InfeasibleInstanceError
        When no ``k`` disjoint paths meet the delay budget at all, or when
        the kRSP output exceeds the certified kBCP cost factor — which
        certifies that no solution within both budgets exists (the kRSP
        cost is at most factor * C_OPT <= factor * C for feasible
        instances).
    """
    if cost_bound < 0 or delay_bound < 0:
        raise InfeasibleInstanceError("budgets must be nonnegative")
    sol = solve_krsp(g, s, t, k, delay_bound, phase1=phase1, eps=eps)
    if isinstance(eps, tuple):
        eps2 = eps[1]
    elif eps is None:
        eps2 = 0.0
    else:
        eps2 = float(eps)
    factor = 2.0 + eps2
    if sol.cost > factor * cost_bound:
        # kRSP returned cost > factor * C. For a feasible kBCP instance the
        # kRSP optimum is <= C, so the algorithm's cost would have been
        # <= factor * C — contradiction. Infeasibility is certified.
        raise InfeasibleInstanceError(
            f"no k disjoint paths with cost <= {cost_bound} and delay <= "
            f"{delay_bound}: the kRSP relaxation already costs {sol.cost} "
            f"(> {factor:g} * C)"
        )
    return KBCPSolution(
        paths=sol.paths,
        cost=sol.cost,
        delay=sol.delay,
        cost_bound=cost_bound,
        delay_bound=delay_bound,
        cost_within_factor=sol.cost / cost_bound if cost_bound else float("inf"),
        delay_within_factor=sol.delay / delay_bound if delay_bound else float("inf"),
        krsp=sol,
    )
