"""Tests for min-cost k-flow and Suurballe paths vs networkx/brute force."""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st

from repro.errors import GraphError
from repro.flow import min_cost_k_flow, suurballe_k_paths
from repro.flow.mincost import lexicographic_weights
from repro.graph import from_edges, gnp_digraph, parallel_chains, uniform_weights
from repro.graph.validate import check_disjoint_paths
from tests.mincost_oracle import numpy_min_cost_k_flow


def nx_min_cost_k_flow(g, s, t, k, weight):
    """Reference via networkx max_flow_min_cost on a unit-capacity copy.

    Requires a simple digraph (networkx flow rejects multigraphs); the
    random instances used here have no parallel edges.
    """
    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(g.n))
    for e in range(g.m):
        u, v = int(g.tail[e]), int(g.head[e])
        assert not nxg.has_edge(u, v), "reference needs a simple digraph"
        nxg.add_edge(u, v, capacity=1, weight=int(weight[e]))
    nxg.add_node("super_t")
    nxg.add_edge(t, "super_t", capacity=k, weight=0)
    flow = nx.max_flow_min_cost(nxg, s, "super_t")
    value = flow.get(t, {}).get("super_t", 0)
    if value < k:
        return None
    cost = 0
    for u in flow:
        for v, amt in flow[u].items():
            if v != "super_t" and amt:
                cost += nxg[u][v]["weight"] * amt
    return cost


class TestMinCostKFlow:
    def test_picks_cheapest_combination(self):
        g, s, t = parallel_chains(3, 1)
        g = g.with_weights(np.array([5, 1, 3]), np.zeros(3, dtype=np.int64))
        res = min_cost_k_flow(g, s, t, 2)
        assert res.weight == 4
        assert sorted(np.nonzero(res.used)[0].tolist()) == [1, 2]

    def test_requires_rerouting(self):
        # Cheapest single path uses the middle edge; two disjoint paths
        # must push back across it (Suurballe's classic example).
        g, ids = from_edges(
            [
                ("s", "a", 1, 0),
                ("a", "t", 8, 0),
                ("s", "b", 8, 0),
                ("b", "t", 1, 0),
                ("a", "b", 1, 0),
            ]
        )
        res = min_cost_k_flow(g, ids["s"], ids["t"], 2)
        # Optimal: s-a-t (9) + s-b-t (9) = 18; using a->b would strand flow.
        assert res.weight == 18

    def test_infeasible_returns_none(self):
        g, s, t = parallel_chains(2, 3)
        assert min_cost_k_flow(g, s, t, 3) is None

    def test_k_zero(self):
        g, s, t = parallel_chains(2, 2)
        res = min_cost_k_flow(g, s, t, 0)
        assert res.weight == 0 and not res.used.any()

    def test_negative_weight_rejected(self):
        g, s, t = parallel_chains(2, 2)
        with pytest.raises(GraphError):
            min_cost_k_flow(g, s, t, 1, weight=-np.ones(g.m, dtype=np.int64))

    def test_s_eq_t_rejected(self):
        g, s, t = parallel_chains(2, 2)
        with pytest.raises(GraphError):
            min_cost_k_flow(g, s, s, 1)

    def test_custom_weight_array(self):
        g, s, t = parallel_chains(2, 1)
        g = g.with_weights(np.array([1, 9]), np.array([9, 1]))
        by_cost = min_cost_k_flow(g, s, t, 1)
        by_delay = min_cost_k_flow(g, s, t, 1, weight=g.delay)
        assert np.nonzero(by_cost.used)[0].tolist() == [0]
        assert np.nonzero(by_delay.used)[0].tolist() == [1]


class TestSuurballe:
    def test_returns_valid_disjoint_paths(self):
        g, ids = from_edges(
            [
                ("s", "a", 1, 0),
                ("a", "t", 8, 0),
                ("s", "b", 8, 0),
                ("b", "t", 1, 0),
                ("a", "b", 1, 0),
            ]
        )
        paths = suurballe_k_paths(g, ids["s"], ids["t"], 2)
        check_disjoint_paths(g, paths, ids["s"], ids["t"], k=2)
        assert sum(g.cost_of(p) for p in paths) == 18

    def test_none_when_infeasible(self):
        g, s, t = parallel_chains(2, 2)
        assert suurballe_k_paths(g, s, t, 3) is None

    def test_weight_override(self):
        g, s, t = parallel_chains(3, 1)
        g = g.with_weights(np.array([5, 1, 3]), np.array([1, 5, 3]))
        by_delay = suurballe_k_paths(g, s, t, 2, weight=g.delay)
        total_delay = sum(g.delay_of(p) for p in by_delay)
        assert total_delay == 4


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 100_000), st.integers(1, 3))
def test_matches_networkx_min_cost(seed, k):
    g = uniform_weights(gnp_digraph(10, 0.3, rng=seed), (0, 12), (1, 5), rng=seed + 1)
    s, t = 0, g.n - 1
    res = min_cost_k_flow(g, s, t, k)
    expected = nx_min_cost_k_flow(g, s, t, k, g.cost)
    if expected is None:
        assert res is None
    else:
        assert res is not None and res.weight == expected
        # And the flow decomposes into k valid disjoint paths.
        paths = suurballe_k_paths(g, s, t, k)
        check_disjoint_paths(g, paths, s, t, k=k)
        assert sum(g.cost_of(p) for p in paths) <= expected


@settings(max_examples=60)
@given(
    seed=st.integers(0, 100_000),
    n=st.integers(3, 14),
    p=st.sampled_from([0.2, 0.35, 0.5, 0.7]),
    k=st.integers(1, 4),
    span=st.integers(0, 4),
)
def test_list_flow_matches_numpy_oracle(seed, n, p, k, span):
    """The list-based flow returns the numpy implementation's exact mask and
    weight; weights drawn from ``0..span`` make ties the common case."""
    g = uniform_weights(gnp_digraph(n, p, rng=seed), (0, span), (0, span), rng=seed + 1)
    note(f"seed={seed} n={n} p={p} k={k} span={span} m={g.m}")
    lex, _ = lexicographic_weights(g.delay, g.cost)
    for name, weight in (("cost", g.cost), ("delay", g.delay), ("lex", lex)):
        new = min_cost_k_flow(g, 0, n - 1, k, weight=weight)
        old = numpy_min_cost_k_flow(g, 0, n - 1, k, weight=np.array(weight))
        note(f"{name}: list={None if new is None else new.weight} "
             f"numpy={None if old is None else old.weight}")
        assert (new is None) == (old is None)
        if new is not None:
            assert new.weight == old.weight
            assert np.array_equal(new.used, old.used)


def test_lexicographic_weights_recover_the_primary_minimum():
    g = uniform_weights(gnp_digraph(12, 0.4, rng=5), (0, 9), (0, 9), rng=6)
    weight, big = lexicographic_weights(g.delay, g.cost)
    lex = min_cost_k_flow(g, 0, 11, 2, weight=weight)
    by_delay = min_cost_k_flow(g, 0, 11, 2, weight=g.delay)
    assert lex.weight // big == by_delay.weight
    assert lex.weight % big == int(g.cost[lex.used].sum())


def test_python_int_weights_beyond_int64():
    # Weights whose path sums leave int64 stay exact as Python ints.
    g, ids = from_edges([("s", "a", 0, 0), ("a", "t", 0, 0), ("s", "t", 0, 0)])
    huge = 1 << 70
    res = min_cost_k_flow(g, ids["s"], ids["t"], 1, weight=[huge, huge, 3 * huge])
    assert res.weight == 2 * huge
    assert res.used.tolist() == [True, True, False]
