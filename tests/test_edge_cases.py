"""Numerical and structural edge cases across the whole stack.

Degenerate weights (all-zero cost, all-zero delay), boundary budgets
(D = 0, D = exact minimum), extreme magnitudes near int64, k at the exact
max-flow, and multigraph quirks — the corners where off-by-ones and
overflow live.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import solve_krsp
from repro.errors import InfeasibleInstanceError, GraphError
from repro.flow import max_flow_value, min_cost_k_flow
from repro.graph import from_edges, gnp_digraph, parallel_chains, uniform_weights
from repro.graph.validate import check_disjoint_paths
from repro.lp.milp import solve_krsp_milp
from repro.paths import rsp_exact


class TestZeroWeights:
    def test_all_zero_cost(self):
        """Cost-free instances: any feasible routing is optimal (cost 0)."""
        g, s, t = parallel_chains(2, 2)
        g = g.with_weights(np.zeros(g.m, np.int64), np.arange(1, g.m + 1, dtype=np.int64))
        total = int(g.delay.sum())
        sol = solve_krsp(g, s, t, 2, total)
        assert sol.cost == 0 and sol.delay <= total

    def test_all_zero_delay(self):
        """Delay-free instances collapse to min-sum; D = 0 is feasible."""
        g, s, t = parallel_chains(2, 2)
        g = g.with_weights(np.arange(1, g.m + 1, dtype=np.int64), np.zeros(g.m, np.int64))
        sol = solve_krsp(g, s, t, 2, 0)
        assert sol.delay == 0
        exact = solve_krsp_milp(g, s, t, 2, 0)
        assert sol.cost == exact.cost

    def test_all_zero_everything(self):
        g, s, t = parallel_chains(3, 2)
        sol = solve_krsp(g, s, t, 3, 0)
        assert sol.cost == 0 and sol.delay == 0


class TestBoundaryBudgets:
    def test_budget_exactly_at_minimum(self):
        g, ids = from_edges(
            [("s", "a", 1, 3), ("a", "t", 1, 4), ("s", "t", 9, 2)]
        )
        # min total delay for k=2 is 3+4+2 = 9.
        sol = solve_krsp(g, ids["s"], ids["t"], 2, 9)
        assert sol.delay == 9
        with pytest.raises(InfeasibleInstanceError):
            solve_krsp(g, ids["s"], ids["t"], 2, 8)

    def test_budget_zero_infeasible_with_positive_delays(self):
        g, s, t = parallel_chains(1, 2)
        g = g.with_weights(np.ones(g.m, np.int64), np.ones(g.m, np.int64))
        with pytest.raises(InfeasibleInstanceError):
            solve_krsp(g, s, t, 1, 0)

    def test_huge_budget_reduces_to_minsum(self):
        for seed in range(5):
            g = uniform_weights(gnp_digraph(9, 0.45, rng=seed), rng=seed + 1)
            huge = int(g.delay.sum()) + 1
            try:
                sol = solve_krsp(g, 0, 8, 2, huge)
            except InfeasibleInstanceError:
                continue
            from repro.flow import suurballe_k_paths

            paths = suurballe_k_paths(g, 0, 8, 2)
            assert sol.cost == sum(g.cost_of(p) for p in paths)
            assert sol.iterations == 0


class TestExtremeMagnitudes:
    def test_large_weights_no_overflow(self):
        big = 10**12
        g, ids = from_edges(
            [
                ("s", "a", big, big),
                ("a", "t", big, big),
                ("s", "t", 2 * big + 1, 1),
            ]
        )
        # k=1, budget forces the expensive fast edge.
        sol = solve_krsp(g, ids["s"], ids["t"], 1, big)
        assert sol.cost == 2 * big + 1 and sol.delay == 1

    def test_blended_weights_beyond_int64(self):
        """Costs and delays near 10^13: the lexicographic (delay, cost)
        weight ``d * (sum c + 1) + c`` leaves int64. Once raised
        ``GraphError: min_cost_k_flow requires nonnegative weights``."""
        a, b = 2395849982794, 8439125338365
        g, ids = from_edges(
            [("s", "a", a, a), ("a", "t", b, b), ("s", "t", a + b + 1, 1)]
        )
        s, t, D = ids["s"], ids["t"], b
        sol = solve_krsp(g, s, t, 1, D)
        assert sol.status == "ok"
        assert sol.paths == [[2]]
        assert (sol.cost, sol.delay) == (a + b + 1, 1)
        # The exact flow-LP optimum: the mixture of both routes with delay D.
        theta = Fraction(D - 1, a + b - 1)
        assert sol.cost_lower_bound == theta * (a + b) + (1 - theta) * (a + b + 1)

    def test_rsp_dp_guard_against_huge_budget(self):
        """The DP allocates (D+1) x n — callers must scale first; verify a
        moderate-but-large budget still works exactly."""
        g, ids = from_edges([("s", "t", 3, 1000), ("s", "t", 7, 10)])
        assert rsp_exact(g, ids["s"], ids["t"], 1000)[0] == 3
        assert rsp_exact(g, ids["s"], ids["t"], 999)[0] == 7


class TestKBoundaries:
    def test_k_equals_max_flow(self):
        g = gnp_digraph(9, 0.4, rng=12)
        g = uniform_weights(g, rng=13)
        mf = max_flow_value(g, 0, 8)
        if mf == 0:
            pytest.skip("disconnected seed")
        huge = int(g.delay.sum()) + 1
        sol = solve_krsp(g, 0, 8, mf, huge)
        check_disjoint_paths(g, sol.paths, 0, 8, k=mf)
        with pytest.raises(InfeasibleInstanceError):
            solve_krsp(g, 0, 8, mf + 1, huge)

    def test_k_one_matches_rsp(self):
        for seed in range(6):
            g = uniform_weights(gnp_digraph(8, 0.4, rng=seed), rng=seed + 1)
            dp = rsp_exact(g, 0, 7, 25)
            if dp is None:
                continue
            sol = solve_krsp(g, 0, 7, 1, 25, opt_cost=dp[0])
            assert sol.cost <= 2 * dp[0] and sol.delay <= 25


class TestMultigraphQuirks:
    def test_parallel_edges_in_solution(self):
        g, ids = from_edges(
            [("s", "t", 1, 5), ("s", "t", 1, 5), ("s", "t", 9, 1)]
        )
        sol = solve_krsp(g, ids["s"], ids["t"], 2, 10)
        assert sol.cost == 2  # both cheap parallels
        assert sorted(e for p in sol.paths for e in p) == [0, 1]

    def test_parallel_edges_forced_split(self):
        g, ids = from_edges(
            [("s", "t", 1, 8), ("s", "t", 1, 8), ("s", "t", 9, 1)]
        )
        # Budget 10 cannot host both slow parallels (16): must mix.
        sol = solve_krsp(g, ids["s"], ids["t"], 2, 10)
        assert sol.delay <= 10 and sol.cost == 10

    def test_self_loop_never_used(self):
        g, ids = from_edges(
            [("s", "t", 5, 5), ("s", "s", 0, 0), ("t", "t", 0, 0)]
        )
        sol = solve_krsp(g, ids["s"], ids["t"], 1, 10)
        assert sol.paths == [[0]]


class TestValidationHardening:
    def test_terminal_out_of_range(self):
        g, s, t = parallel_chains(1, 1)
        with pytest.raises(GraphError):
            solve_krsp(g, 0, 99, 1, 10)

    def test_negative_k(self):
        g, s, t = parallel_chains(1, 1)
        with pytest.raises(GraphError):
            solve_krsp(g, s, t, -1, 10)

    def test_mincost_flow_rejects_bad_k(self):
        g, s, t = parallel_chains(2, 2)
        with pytest.raises(GraphError):
            min_cost_k_flow(g, s, t, -1)
