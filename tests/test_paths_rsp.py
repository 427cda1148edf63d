"""Tests for the exact RSP DP and the RSP FPTAS.

The exact DP is validated against brute-force path enumeration; the FPTAS
is then validated against the exact DP.
"""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import from_edges, gnp_digraph, to_networkx, uniform_weights
from repro.graph.validate import is_path
from repro.paths import rsp_exact, rsp_fptas


def brute_force_rsp(g, s, t, D):
    """Reference: enumerate all simple paths, keep delay-feasible minimum."""
    nxg = to_networkx(g)
    best = None
    if s == t:
        return (0, [])
    for node_path in nx.all_simple_paths(nxg, s, t):
        # Expand node path into all parallel-edge choices.
        options = []
        for u, v in zip(node_path, node_path[1:]):
            options.append([d["eid"] for d in nxg[u][v].values()])
        for combo in itertools.product(*options):
            cost = g.cost_of(list(combo))
            delay = g.delay_of(list(combo))
            if delay <= D and (best is None or cost < best[0]):
                best = (cost, list(combo))
    return best


class TestRspExact:
    def test_diamond_budget_switches_route(self, diamond):
        g, ids = diamond
        s, t = ids["s"], ids["t"]
        # Loose budget: cheap slow route (cost 2, delay 20).
        assert rsp_exact(g, s, t, 20)[0] == 2
        # Tight budget: forced onto the fast route (cost 20, delay 2).
        assert rsp_exact(g, s, t, 19)[0] == 20
        assert rsp_exact(g, s, t, 2)[0] == 20
        assert rsp_exact(g, s, t, 1) is None

    def test_returns_actual_path(self, diamond):
        g, ids = diamond
        cost, path = rsp_exact(g, ids["s"], ids["t"], 2)
        assert is_path(g, path, ids["s"], ids["t"])
        assert g.cost_of(path) == cost and g.delay_of(path) <= 2

    def test_s_equals_t(self, diamond):
        g, ids = diamond
        assert rsp_exact(g, ids["s"], ids["s"], 0) == (0, [])

    def test_negative_bound_infeasible(self, diamond):
        g, ids = diamond
        assert rsp_exact(g, ids["s"], ids["t"], -1) is None

    def test_zero_delay_edges(self):
        g, ids = from_edges(
            [("s", "a", 5, 0), ("a", "t", 5, 0), ("s", "t", 100, 0)]
        )
        assert rsp_exact(g, ids["s"], ids["t"], 0) == (10, [0, 1])

    def test_zero_delay_cycle_does_not_loop(self):
        g, ids = from_edges(
            [("s", "a", 1, 0), ("a", "b", 0, 0), ("b", "a", 0, 0), ("a", "t", 1, 0)]
        )
        cost, path = rsp_exact(g, ids["s"], ids["t"], 0)
        assert cost == 2

    def test_unreachable(self):
        g, ids = from_edges([("s", "a", 1, 1)], nodes=["s", "a", "t"])
        assert rsp_exact(g, ids["s"], ids["t"], 10) is None

    def test_prefers_smaller_delay_among_equal_cost(self):
        g, ids = from_edges([("s", "t", 5, 9), ("s", "t", 5, 3)])
        cost, path = rsp_exact(g, ids["s"], ids["t"], 10)
        assert cost == 5 and g.delay_of(path) == 3


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 100_000), st.integers(0, 30))
def test_rsp_exact_matches_brute_force(seed, D):
    g = uniform_weights(gnp_digraph(7, 0.35, rng=seed), (1, 8), (1, 8), rng=seed + 1)
    got = rsp_exact(g, 0, 6, D)
    expected = brute_force_rsp(g, 0, 6, D)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        cost, path = got
        assert cost == expected[0]
        assert is_path(g, path, 0, 6)
        assert g.cost_of(path) == cost and g.delay_of(path) <= D


class TestFptas:
    def test_exact_when_min_cost_feasible(self, diamond):
        g, ids = diamond
        assert rsp_fptas(g, ids["s"], ids["t"], 20, 0.5)[0] == 2

    def test_infeasible(self, diamond):
        g, ids = diamond
        assert rsp_fptas(g, ids["s"], ids["t"], 1, 0.5) is None

    def test_eps_validation(self, diamond):
        g, ids = diamond
        with pytest.raises(Exception):
            rsp_fptas(g, ids["s"], ids["t"], 5, 0.0)

    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.1])
    def test_ratio_guarantee_random(self, eps):
        for seed in range(25):
            g = uniform_weights(
                gnp_digraph(9, 0.3, rng=seed), (1, 30), (1, 30), rng=seed + 100
            )
            D = 35
            exact = rsp_exact(g, 0, 8, D)
            approx = rsp_fptas(g, 0, 8, D, eps)
            assert (exact is None) == (approx is None)
            if exact is not None:
                cost_a, path = approx
                assert g.delay_of(path) <= D  # strict feasibility
                assert cost_a <= (1 + eps) * exact[0] + 1e-9

