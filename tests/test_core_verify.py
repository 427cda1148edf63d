"""Tests for the independent solution verifier."""

import pytest

from repro import obs
from repro.core import solve_krsp, verify_solution
from repro.errors import GraphError, InfeasibleInstanceError
from repro.graph import from_edges, gnp_digraph, anticorrelated_weights


def instance(seed=4):
    g = anticorrelated_weights(gnp_digraph(10, 0.45, rng=seed), rng=seed + 1)
    return g, 0, 9, 2, 45


class TestCleanSolutions:
    def test_solver_output_verifies_clean(self):
        checked = 0
        for seed in range(10):
            g, s, t, k, D = instance(seed)
            try:
                sol = solve_krsp(g, s, t, k, D)
            except InfeasibleInstanceError:
                continue
            rep = verify_solution(g, s, t, k, D, sol.paths, use_milp=True)
            assert rep.clean, rep.issues
            assert rep.cost == sol.cost and rep.delay == sol.delay
            assert rep.approximation_ratio_upper_bound is not None
            assert rep.exact_ratio is not None and rep.exact_ratio <= 2.0 + 1e-9
            checked += 1
        assert checked >= 3

    def test_bounds_optional(self):
        g, s, t, k, D = instance()
        try:
            sol = solve_krsp(g, s, t, k, D)
        except InfeasibleInstanceError:
            pytest.skip("infeasible seed")
        rep = verify_solution(g, s, t, k, D, sol.paths, check_bounds=False)
        assert rep.clean and rep.cost_lower_bound is None


class TestBadSolutions:
    def test_overlapping_paths_flagged(self):
        g, ids = from_edges([("s", "t", 1, 1), ("s", "t", 2, 2)])
        rep = verify_solution(g, ids["s"], ids["t"], 2, 10, [[0], [0]])
        assert not rep.valid
        assert any("structural" in i for i in rep.issues)

    def test_wrong_k_flagged(self):
        g, ids = from_edges([("s", "t", 1, 1), ("s", "t", 2, 2)])
        rep = verify_solution(g, ids["s"], ids["t"], 2, 10, [[0]])
        assert not rep.valid

    def test_budget_violation_flagged(self):
        g, ids = from_edges([("s", "t", 1, 9)])
        rep = verify_solution(g, ids["s"], ids["t"], 1, 5, [[0]])
        assert rep.valid and not rep.delay_feasible
        assert not rep.clean
        assert any("exceeds budget" in i for i in rep.issues)

    def test_negative_weight_instance_rejected(self):
        g, ids = from_edges([("s", "t", -1, 1)])
        with pytest.raises(GraphError):
            verify_solution(g, ids["s"], ids["t"], 1, 5, [[0]])

    def test_not_a_path_flagged(self):
        g, ids = from_edges([("s", "a", 1, 1), ("a", "t", 1, 1)])
        rep = verify_solution(g, ids["s"], ids["t"], 1, 10, [[1, 0]])
        assert not rep.valid


class TestAdversarialClaims:
    """The verifier against a lying solver: every tampered report must be
    flagged with a specific issue, never waved through."""

    def two_route(self):
        g, ids = from_edges(
            [("s", "a", 1, 4), ("a", "t", 1, 4), ("s", "b", 3, 2), ("b", "t", 3, 2)]
        )
        return g, ids["s"], ids["t"]

    def test_honest_claims_are_clean(self):
        g, s, t = self.two_route()
        rep = verify_solution(
            g, s, t, 2, 12, [[0, 1], [2, 3]],
            check_bounds=False, claimed_cost=8, claimed_delay=12,
        )
        assert rep.clean and rep.cost == 8 and rep.delay == 12

    def test_tampered_cost_flagged(self):
        g, s, t = self.two_route()
        rep = verify_solution(
            g, s, t, 2, 12, [[0, 1], [2, 3]],
            check_bounds=False, claimed_cost=5, claimed_delay=12,
        )
        assert rep.valid and not rep.clean
        assert any(
            "claimed cost 5 does not match recomputed cost 8" in i
            for i in rep.issues
        )

    def test_tampered_delay_flagged(self):
        g, s, t = self.two_route()
        rep = verify_solution(
            g, s, t, 2, 12, [[0, 1], [2, 3]],
            check_bounds=False, claimed_cost=8, claimed_delay=3,
        )
        assert not rep.clean
        assert any(
            "claimed delay 3 does not match recomputed delay 12" in i
            for i in rep.issues
        )

    def test_nondisjoint_paths_flagged(self):
        g, s, t = self.two_route()
        rep = verify_solution(g, s, t, 2, 12, [[0, 1], [0, 1]], check_bounds=False)
        assert not rep.valid and not rep.clean
        assert any("structural" in i and "share edge" in i for i in rep.issues)

    def test_empty_path_list_flagged(self):
        g, s, t = self.two_route()
        rep = verify_solution(g, s, t, 2, 12, [], check_bounds=False)
        assert not rep.valid and not rep.clean
        assert any("expected 2 paths, got 0" in i for i in rep.issues)

    def test_empty_inner_path_flagged(self):
        g, s, t = self.two_route()
        rep = verify_solution(g, s, t, 2, 12, [[0, 1], []], check_bounds=False)
        assert not rep.valid and not rep.clean
        assert any("structural" in i for i in rep.issues)

    def test_overbudget_and_tampered_both_reported(self):
        g, s, t = self.two_route()
        # Budget 5 is violated (true delay 12) *and* the totals are forged.
        rep = verify_solution(
            g, s, t, 2, 5, [[0, 1], [2, 3]],
            check_bounds=False, claimed_cost=8, claimed_delay=5,
        )
        assert rep.valid and not rep.delay_feasible and not rep.clean
        assert any("delay 12 exceeds budget 5" in i for i in rep.issues)
        assert any("claimed delay 5" in i for i in rep.issues)


class TestExactLowerBound:
    def test_integral_lp_bound_is_exact_and_solves_no_lp(self):
        # D = 4 picks the middle route whole: the walk ends on the tie at
        # lambda* = 1/3 with C_LP = 4, and a solution of cost 4 meets it.
        g, ids = from_edges(
            [("s", "t", 2, 10), ("s", "t", 4, 4), ("s", "t", 10, 1)]
        )
        with obs.session():
            rep = verify_solution(g, ids["s"], ids["t"], 1, 4, [[1]])
            snap = obs.snapshot()
        assert rep.clean, rep.issues
        assert rep.cost_lower_bound == 4 and isinstance(rep.cost_lower_bound, float)
        assert rep.approximation_ratio_upper_bound == 1.0
        assert snap.get("lp.flow_lp.solves", 0) == 0

    def test_lp_infeasible_instance_is_an_issue_not_an_exception(self):
        # Paths that miss D do not prove the flow LP feasible: the only
        # issue is the missed budget, not inconsistent instance data.
        g, ids = from_edges([("s", "t", 1, 9)])
        rep = verify_solution(g, ids["s"], ids["t"], 1, 5, [[0]])
        assert rep.valid and not rep.delay_feasible
        assert rep.cost_lower_bound is None
        assert rep.issues == ["delay 9 exceeds budget 5"]

    def test_paths_missing_d_may_cost_less_than_the_bounds(self):
        # C_LP = 29/9 and OPT = 5 bound delay-feasible solutions only; the
        # cheap route misses D = 5 and costs 1 without contradicting them.
        g, ids = from_edges([("s", "t", 1, 10), ("s", "t", 5, 1)])
        rep = verify_solution(g, ids["s"], ids["t"], 1, 5, [[0]], use_milp=True)
        assert rep.cost_lower_bound == pytest.approx(29 / 9)
        assert rep.opt_cost == 5
        assert rep.issues == ["delay 10 exceeds budget 5"]


class TestOracleCrossChecks:
    def test_milp_consistency(self):
        g, ids = from_edges(
            [("s", "a", 1, 9), ("a", "t", 1, 9), ("s", "b", 5, 1), ("b", "t", 5, 1)]
        )
        # Optimal at D=2: the pricey pair (cost 10).
        rep = verify_solution(
            g, ids["s"], ids["t"], 1, 2, [[2, 3]], use_milp=True
        )
        assert rep.clean and rep.exact_ratio == 1.0

    def test_suboptimal_but_clean(self):
        g, ids = from_edges(
            [("s", "t", 1, 1), ("s", "t", 9, 1)]
        )
        rep = verify_solution(g, ids["s"], ids["t"], 1, 5, [[1]], use_milp=True)
        assert rep.clean
        assert rep.exact_ratio == 9.0  # verifier reports, doesn't judge
