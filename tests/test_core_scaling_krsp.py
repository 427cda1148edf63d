"""Tests for Theorem 4 scaling and the end-to-end solve_krsp facade."""

import math

import numpy as np
import pytest
from fractions import Fraction

from repro import obs
from repro.core import (
    KRSPInstance,
    mapped_back_delay_bound,
    scale_instance,
    solve_krsp,
)
from repro.core.phase1 import feasibility_gate, lemma5_walk
from repro.errors import GraphError, InfeasibleInstanceError
from repro.graph import (
    from_edges,
    gnp_digraph,
    anticorrelated_weights,
    parallel_chains,
)
from repro.graph.validate import check_disjoint_paths
from repro.lp.milp import solve_krsp_milp


def make(seed, n=11, total=40, D=80):
    g = anticorrelated_weights(gnp_digraph(n, 0.4, rng=seed), total=total, rng=seed + 1)
    return g, 0, n - 1, D


class TestScaling:
    def _inst(self):
        g, s, t, D = make(7, total=60, D=200)
        return KRSPInstance(g, s, t, 2, D)

    def test_topology_preserved(self):
        inst = self._inst()
        scaled = scale_instance(inst, 0.5, 0.5, 100)
        assert scaled.instance.graph.m == inst.graph.m
        assert np.array_equal(scaled.instance.graph.tail, inst.graph.tail)

    def test_floors_shrink(self):
        inst = self._inst()
        scaled = scale_instance(inst, 0.5, 0.5, 100)
        if scaled.theta_d > 1:
            assert (scaled.instance.graph.delay <= inst.graph.delay).all()
        if scaled.theta_c > 1:
            assert (scaled.instance.graph.cost <= inst.graph.cost).all()

    def test_feasible_solutions_stay_feasible(self):
        """Exact floor arithmetic: d'(P) <= D' for any d(P) <= D."""
        inst = self._inst()
        scaled = scale_instance(inst, 0.5, 0.5, 100)
        exact = solve_krsp_milp(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
        )
        if exact is None:
            pytest.skip("infeasible seed")
        flat = [e for p in exact.paths for e in p]
        assert scaled.instance.graph.delay_of(flat) <= scaled.instance.delay_bound

    def test_mapped_back_bound(self):
        inst = self._inst()
        scaled = scale_instance(inst, 0.5, 0.5, 100)
        limit = mapped_back_delay_bound(scaled)
        assert limit <= Fraction(3, 2) * inst.delay_bound

    def test_degenerate_thetas_identity(self):
        g, ids = from_edges([("s", "t", 1, 1), ("s", "t", 1, 1)])
        inst = KRSPInstance(g, ids["s"], ids["t"], 2, 5)
        scaled = scale_instance(inst, 0.1, 0.1, 2)  # thetas < 1
        assert scaled.theta_d == 1 and scaled.theta_c == 1
        assert scaled.instance.delay_bound == 5

    def test_scaling_shares_unscaled_arrays(self):
        g = anticorrelated_weights(gnp_digraph(8, 0.5, rng=2), rng=2)
        inst = KRSPInstance(g, 0, 7, 2, 10)
        scaled = scale_instance(inst, 0.5, 0.5, cost_estimate=1)
        # Tiny thetas: neither criterion is scaled, so both arrays share.
        assert np.shares_memory(scaled.instance.graph.cost, g.cost)
        assert np.shares_memory(scaled.instance.graph.delay, g.delay)

    def test_bad_eps_rejected(self):
        inst = self._inst()
        with pytest.raises(GraphError):
            scale_instance(inst, 0.0, 0.5, 10)


class TestSolveKrsp:
    def test_end_to_end_bifactor(self):
        checked = 0
        for seed in range(20):
            g, s, t, D = make(seed, D=45)
            exact = solve_krsp_milp(g, s, t, 2, D)
            if exact is None or exact.cost == 0:
                continue
            for provider in ("lp_rounding", "lagrangian", "minsum"):
                sol = solve_krsp(g, s, t, 2, D, phase1=provider)
                assert sol.delay <= D, (seed, provider)
                assert sol.cost <= 2 * exact.cost, (seed, provider)
                assert sol.delay_feasible
                check_disjoint_paths(g, sol.paths, s, t, k=2)
            checked += 1
        assert checked >= 6

    def test_scaled_end_to_end(self):
        checked = 0
        for seed in range(10):
            g, s, t, D = make(seed + 50, total=60, D=150)
            exact = solve_krsp_milp(g, s, t, 2, D)
            if exact is None or exact.cost == 0:
                continue
            sol = solve_krsp(g, s, t, 2, D, phase1="minsum", eps=0.5)
            assert sol.delay <= 1.5 * D
            assert sol.cost <= 2.5 * exact.cost
            check_disjoint_paths(g, sol.paths, s, t, k=2)
            checked += 1
        assert checked >= 3

    def test_scaled_bound_reuses_the_gate_flow(self):
        """A scaled solve runs each instance's walk once, from that
        instance's gate flows: every min-cost k-flow it solves is a gate
        flow or a walk step, so none is solved twice."""
        g, s, t, D = make(12, n=10, D=60)
        inst = KRSPInstance(g, s, t, 2, D)
        cheapest, fastest = feasibility_gate(inst)
        assert fastest is not None  # the original instance's walk runs
        c_lp = lemma5_walk(inst, cheapest, fastest).bound
        scaled = scale_instance(inst, 0.5, 0.5, max(1, math.ceil(c_lp))).instance
        gate_flows = sum(
            f is not None
            for f in (cheapest, fastest, *feasibility_gate(scaled))
        )
        with obs.session() as tel:
            sol = solve_krsp(g, s, t, 2, D, eps=0.5)
        steps = tel.counters["phase1.larac.steps"]
        assert steps > 0
        # Every k-flow takes exactly k = 2 augmentations.
        assert tel.counters["mincost.augmentations"] == 2 * (gate_flows + steps)
        assert sol.cost_lower_bound == c_lp

    def test_structural_infeasibility(self):
        g, s, t = parallel_chains(2, 3)
        with pytest.raises(InfeasibleInstanceError, match="fewer than"):
            solve_krsp(g, s, t, 3, 100)

    def test_budget_infeasibility(self):
        g, s, t = parallel_chains(2, 2)
        g = g.with_weights(np.ones(g.m, np.int64), np.full(g.m, 9, np.int64))
        with pytest.raises(InfeasibleInstanceError, match="delay"):
            solve_krsp(g, s, t, 2, 35)  # needs 36

    def test_lower_bound_certified(self):
        for seed in range(10):
            g, s, t, D = make(seed, D=45)
            exact = solve_krsp_milp(g, s, t, 2, D)
            if exact is None:
                continue
            sol = solve_krsp(g, s, t, 2, D)
            assert sol.cost_lower_bound is not None
            assert sol.cost_lower_bound <= exact.cost

    def test_timings_populated(self):
        g, s, t, D = make(1, D=45)
        exact = solve_krsp_milp(g, s, t, 2, D)
        if exact is None:
            pytest.skip("infeasible seed")
        sol = solve_krsp(g, s, t, 2, D)
        assert {"feasibility", "phase1", "cancel"} <= set(sol.timings)

    def test_k1_matches_rsp_dp(self):
        from repro.paths.rsp_exact import rsp_exact

        for seed in range(12):
            g, s, t, D = make(seed + 200, D=30)
            dp = rsp_exact(g, s, t, D)
            try:
                sol = solve_krsp(g, s, t, 1, D)
            except InfeasibleInstanceError:
                assert dp is None
                continue
            assert dp is not None
            assert sol.delay <= D
            assert sol.cost <= 2 * dp[0] if dp[0] else sol.cost == 0
