"""Independent solution verification and certification.

An approximation solver should be auditable without trusting it:
:func:`verify_solution` re-derives everything about a claimed solution
from scratch — structural validity, exact totals, budget feasibility, and
(optionally) certified quality bounds via the exact flow-LP optimum and,
on small instances, the exact MILP. The solver's own outputs are *not* consulted.

The returned :class:`VerificationReport` is plain data, printable, and
safe to persist next to results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.instance import KRSPInstance
from repro.core.phase1 import flow_lp_bound
from repro.errors import GraphError, InfeasibleInstanceError
from repro.graph.digraph import DiGraph
from repro.graph.validate import check_disjoint_paths


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_solution`.

    Attributes
    ----------
    valid:
        Paths are structurally well-formed (k disjoint s-t paths).
    delay_feasible:
        Totals respect the delay budget.
    cost, delay:
        Exact recomputed totals (present whenever ``valid``).
    cost_lower_bound:
        Flow-LP lower bound ``C_LP`` on the optimal cost, computed exactly
        and reported as a float (``None`` if skipped or infeasible LP —
        which itself would contradict validity).
    approximation_ratio_upper_bound:
        ``cost / cost_lower_bound`` — an upper bound on the true ratio.
    opt_cost:
        Exact optimum when the MILP oracle ran (``None`` otherwise).
    exact_ratio:
        ``cost / opt_cost`` when the optimum is known.
    issues:
        Human-readable problems found (empty for a clean pass).
    """

    valid: bool
    delay_feasible: bool
    cost: int | None = None
    delay: int | None = None
    cost_lower_bound: float | None = None
    approximation_ratio_upper_bound: float | None = None
    opt_cost: int | None = None
    exact_ratio: float | None = None
    issues: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Structurally valid, budget-feasible, and issue-free."""
        return self.valid and self.delay_feasible and not self.issues


def verify_solution(
    g: DiGraph,
    s: int,
    t: int,
    k: int,
    delay_bound: int,
    paths: list[list[int]],
    check_bounds: bool = True,
    use_milp: bool = False,
    milp_time_limit: float | None = 30.0,
    claimed_cost: int | None = None,
    claimed_delay: int | None = None,
) -> VerificationReport:
    """Audit a claimed kRSP solution from first principles.

    Parameters
    ----------
    paths:
        The claimed ``k`` disjoint paths (edge-id lists).
    check_bounds:
        Compute the flow-LP optimum ``C_LP`` exactly
        (:func:`repro.core.phase1.flow_lp_bound`) as a certified quality
        denominator.
    use_milp:
        Additionally compute the exact optimum (small instances only).
    claimed_cost, claimed_delay:
        Totals the solver *reported* alongside the paths. When given they
        are cross-checked against the recomputed totals; a mismatch is a
        tampered-totals issue (the paths and the report disagree).

    Never raises for a *bad solution* — problems land in
    ``report.issues``; raises only for malformed inputs (e.g. a graph
    with negative weights, which voids the problem statement itself).
    """
    g.require_nonnegative()
    issues: list[str] = []
    try:
        check_disjoint_paths(g, [list(p) for p in paths], s, t, k=k)
        valid = True
    except GraphError as exc:
        issues.append(f"structural: {exc}")
        valid = False
    if not valid:
        return VerificationReport(valid=False, delay_feasible=False, issues=issues)

    flat = [e for p in paths for e in p]
    cost = g.cost_of(flat)
    delay = g.delay_of(flat)
    feasible = delay <= delay_bound
    if not feasible:
        issues.append(f"delay {delay} exceeds budget {delay_bound}")
    if claimed_cost is not None and claimed_cost != cost:
        issues.append(
            f"claimed cost {claimed_cost} does not match recomputed cost {cost}"
        )
    if claimed_delay is not None and claimed_delay != delay:
        issues.append(
            f"claimed delay {claimed_delay} does not match recomputed delay {delay}"
        )

    lb = None
    ratio_ub = None
    opt_cost = None
    exact_ratio = None
    if check_bounds:
        try:
            c_lp = flow_lp_bound(KRSPInstance(g, s, t, k, delay_bound))[0]
        except InfeasibleInstanceError:
            issues.append(
                "flow LP infeasible although a solution was presented — "
                "inconsistent instance data"
            )
        else:
            lb = float(c_lp)
            if c_lp > 0:
                ratio_ub = float(cost / c_lp)
                if cost < c_lp:
                    issues.append(
                        "claimed cost beats the LP lower bound — "
                        "inconsistent instance data"
                    )
    if use_milp:
        from repro.lp.milp import solve_krsp_milp

        exact = solve_krsp_milp(g, s, t, k, delay_bound, time_limit=milp_time_limit)
        if exact is None:
            issues.append(
                "MILP reports infeasible although a solution was presented"
            )
        else:
            opt_cost = exact.cost
            if opt_cost > 0:
                exact_ratio = cost / opt_cost
            if cost < opt_cost:
                issues.append("claimed cost beats the proven optimum")

    return VerificationReport(
        valid=True,
        delay_feasible=feasible,
        cost=cost,
        delay=delay,
        cost_lower_bound=lb,
        approximation_ratio_upper_bound=ratio_ub,
        opt_cost=opt_cost,
        exact_ratio=exact_ratio,
        issues=issues,
    )
