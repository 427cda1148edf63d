"""The solve's feasibility gate solves the cheapest k-flow first.

A least-cost k-flow that meets ``D`` is optimal and proves the instance
feasible, so such a solve runs one min-cost flow and nothing else. Only
when it misses ``D`` is the min-delay flow solved, as the ``D`` gate, and
every flow the gate holds is handed on rather than solved again. Flow
work is counted with ``mincost.augmentations``: every k-flow takes
exactly ``k`` augmentations.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro import obs
from repro.core.krsp import solve_krsp
from repro.core.phase1 import PROVIDERS
from repro.errors import InfeasibleInstanceError
from repro.graph import from_edges, parallel_chains
from repro.robustness import SolveBudget, read_journal, resume_krsp, solve_checkpointed


def _diamond():
    """Three s-t routes, (cost, delay): a (2, 10), b (4, 2), direct (10, 1).
    With k = 2 the cheapest flow is a + b at (6, 12) and the min-delay
    flow is b + direct at (14, 3)."""
    g, ids = from_edges(
        [
            ("s", "a", 1, 5), ("a", "t", 1, 5),
            ("s", "b", 2, 1), ("b", "t", 2, 1),
            ("s", "t", 10, 1),
        ]
    )
    return g, ids["s"], ids["t"], 2


def _counted_solve(*args, **kwargs):
    with obs.session(label="gate") as tel:
        sol = solve_krsp(*args, **kwargs)
    return sol, tel.counters


def test_cheapest_flow_that_fits_is_the_whole_solve():
    g, s, t, k = _diamond()
    sol, counters = _counted_solve(g, s, t, k, 20)
    assert counters["mincost.augmentations"] == k  # one flow
    assert (sol.cost, sol.delay, sol.status, sol.iterations) == (6, 12, "ok", 0)
    assert sol.cost_lower_bound == sol.cost
    assert sol.multiplier == 0


def test_cheapest_flow_that_misses_solves_no_flow_twice():
    """The gate's two flows plus one flow per Lagrangian step: the same
    count as a solve that gated on the min-delay flow first."""
    g, s, t, k = _diamond()
    sol, counters = _counted_solve(g, s, t, k, 11)
    steps = counters.get("phase1.larac.steps", 0)
    assert counters["mincost.augmentations"] == k * (2 + steps) == 6
    assert sol.delay <= 11 and sol.status == "ok"
    assert sol.multiplier == Fraction(8, 9)


def test_zero_deadline_degrades_to_the_cheapest_flow():
    """Phase 1 still trips a zero deadline before its first metered step;
    the answer is the delay-feasible flow the gate holds."""
    g, s, t, k = _diamond()
    sol = solve_krsp(g, s, t, k, 20, budget=SolveBudget(deadline_seconds=0))
    assert sol.status == "budget_exhausted"
    assert sol.certificate.exhausted_reason == "deadline"
    assert sol.delay <= 20
    assert sol.cost == 6


@pytest.mark.parametrize("provider", sorted(PROVIDERS))
def test_every_provider_keeps_the_infeasibility_verdicts(provider):
    g, s, t = parallel_chains(2, 3)
    with pytest.raises(
        InfeasibleInstanceError, match="fewer than k=3 edge-disjoint s-t paths exist"
    ):
        solve_krsp(g, s, t, 3, 100, phase1=provider)
    g, s, t = parallel_chains(2, 2)
    g = g.with_weights(np.ones(g.m, np.int64), np.full(g.m, 9, np.int64))
    with pytest.raises(
        InfeasibleInstanceError,
        match="minimum achievable total delay 36 exceeds the budget 35",
    ):
        solve_krsp(g, s, t, 2, 35, phase1=provider)


def test_checkpointed_cheapest_fit_caps_at_its_cost(tmp_path):
    g, s, t, k = _diamond()
    path = tmp_path / "fit.journal"
    sol = solve_checkpointed(g, s, t, k, 20, journal_path=path)
    records = read_journal(path).records
    prelude = next(r for r in records if r["kind"] == "prelude")
    assert prelude["cost_cap"] == sol.cost == 6

    def fp(x):
        return ([list(p) for p in x.paths], x.cost, x.delay, x.status, x.iterations)

    assert fp(resume_krsp(path)) == fp(sol)
    cut = tmp_path / "cut.journal"
    raw = path.read_bytes()
    cut.write_bytes(raw[: raw.rindex(b"\n", 0, len(raw) - 1) + 1])  # drop final
    assert read_journal(cut).records[-1]["kind"] == "prelude"
    assert fp(resume_krsp(cut)) == fp(sol)
