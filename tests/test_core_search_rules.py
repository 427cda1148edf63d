"""Unit tests for the search driver's certification/anti-trap rules and
failure-injection tests for the solver layers.

These target the decision logic directly with synthetic candidates, rather
than through whole instances — the complement of the end-to-end property
suite.
"""

import numpy as np
import pytest

from repro.core import build_residual
from repro.core.bicameral import CandidateCycle, CycleType
from repro.core.search import SearchStats, find_bicameral_cycle
from repro.errors import SolverError
from repro.graph import from_edges


def trap_graph():
    """Two ways out of a slow pair: a small good swap and a huge trap swap
    (a miniature of the Figure 1 phenomenon)."""
    return from_edges(
        [
            ("s", "a", 0, 10),  # 0 in solution
            ("a", "t", 0, 10),  # 1 in solution
            ("s", "b", 3, 1),  # 2 good: cycle cost 6, delay -18
            ("b", "t", 3, 1),  # 3
            ("s", "c", 50, 0),  # 4 trap: cycle cost 100, delay -20
            ("c", "t", 50, 0),  # 5
        ]
    )


class TestAntiTrapRule:
    def test_good_cycle_chosen_over_trap(self):
        g, ids = trap_graph()
        res = build_residual(g, [0, 1])
        # No strict estimate; soft bound generous (the trap would pass it).
        picked = find_bicameral_cycle(
            res,
            delta_d=-10,
            delta_c_estimate=None,
            cost_cap=None,
            delta_c_soft=1000,
        )
        assert picked is not None
        cand, ctype = picked
        assert cand.cost == 6 and cand.delay == -18

    def test_strict_certification_short_circuits(self):
        g, ids = trap_graph()
        res = build_residual(g, [0, 1])
        stats = SearchStats()
        picked = find_bicameral_cycle(
            res,
            delta_d=-18,
            delta_c_estimate=10,  # good cycle: -18/6 <= -18/10? -3 <= -1.8 yes
            cost_cap=None,
            stats=stats,
        )
        assert picked is not None and picked[1] is CycleType.TYPE1
        assert picked[0].cost == 6

    def test_cost_cap_excludes_trap_entirely(self):
        g, ids = trap_graph()
        res = build_residual(g, [0, 1])
        picked = find_bicameral_cycle(
            res,
            delta_d=-10,
            delta_c_estimate=None,
            cost_cap=20,  # trap cost 100 filtered by the cap
            delta_c_soft=1000,
        )
        assert picked is not None
        assert picked[0].cost == 6


def _failing_solve(message):
    """Stand-in for the HiGHS adapter that reports numerical trouble."""
    from repro.lp.engine import LPResult

    def solve(*args, **kwargs):
        return LPResult(status=4, success=False, x=None, fun=None, nit=0, message=message)

    return solve


class TestFailureInjection:
    def test_lp_failure_surfaces_as_solver_error(self, monkeypatch):
        """A misbehaving LP solver must raise SolverError, not corrupt."""
        from repro.lp import engine

        g, ids = trap_graph()
        res = build_residual(g, [0, 1])
        monkeypatch.setattr(engine, "_run_highs", _failing_solve("injected failure"))
        from repro.core.auxgraph import build_aux_shifted
        from repro.core.auxlp import solve_lp6

        aux = build_aux_shifted(res.graph, 8)
        with pytest.raises(SolverError, match="injected"):
            solve_lp6(aux, -1)

    def test_milp_failure_surfaces_as_solver_error(self, monkeypatch):
        import scipy.optimize

        from repro.lp.milp import solve_krsp_milp

        class FakeResult:
            status = 1
            success = False
            message = "injected milp failure"
            x = None

        monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **k: FakeResult())
        g, ids = trap_graph()
        with pytest.raises(SolverError, match="injected"):
            solve_krsp_milp(g, ids["s"], ids["t"], 1, 100)

    def test_flow_lp_failure_surfaces(self, monkeypatch):
        from repro.lp import engine
        from repro.lp.flow_lp import solve_flow_lp

        monkeypatch.setattr(
            engine, "_run_highs", _failing_solve("injected flow lp failure")
        )
        g, ids = trap_graph()
        with pytest.raises(SolverError, match="injected"):
            solve_flow_lp(g, ids["s"], ids["t"], 1, 100)

    def test_corrupt_rounding_input_rejected(self):
        from repro.lp.basis import round_flow_score_monotone

        g, ids = trap_graph()
        with pytest.raises(SolverError, match="length mismatch"):
            round_flow_score_monotone(g, np.zeros(2), 1.0, 1.0)
