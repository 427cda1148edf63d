"""Tests for Bellman–Ford and negative-cycle extraction."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NegativeCycleError
from repro.graph import DiGraph, from_edges, gnp_digraph, to_networkx, uniform_weights
from repro.graph.validate import is_cycle
from repro.paths import INF, bellman_ford, find_negative_cycle, negative_cycle_value
from repro.paths.dijkstra import dijkstra


class TestShortestPaths:
    def test_agrees_with_dijkstra_on_nonnegative(self):
        g = uniform_weights(gnp_digraph(15, 0.3, rng=7), rng=8)
        d1, _ = dijkstra(g, 0)
        d2, _ = bellman_ford(g, 0)
        assert np.array_equal(d1, d2)

    def test_handles_negative_edges_without_cycles(self):
        g, ids = from_edges(
            [("a", "b", 5, 0), ("b", "c", -3, 0), ("a", "c", 4, 0)]
        )
        dist, _ = bellman_ford(g, ids["a"])
        assert dist[ids["c"]] == 2

    def test_unreachable(self):
        g, ids = from_edges([("a", "b", 1, 0)], nodes=["a", "b", "z"])
        dist, _ = bellman_ford(g, ids["a"])
        assert dist[ids["z"]] == INF

    def test_negative_cycle_raises_with_witness(self):
        g, ids = from_edges(
            [("s", "a", 1, 0), ("a", "b", -5, 0), ("b", "a", 2, 0), ("a", "t", 1, 0)]
        )
        with pytest.raises(NegativeCycleError) as exc:
            bellman_ford(g, ids["s"])
        cyc = exc.value.cycle
        assert cyc is not None and is_cycle(g, cyc)
        assert negative_cycle_value(g, cyc) < 0

    def test_unreachable_negative_cycle_ignored(self):
        # Negative cycle exists but s cannot reach it.
        g, ids = from_edges(
            [("s", "t", 1, 0), ("x", "y", -2, 0), ("y", "x", 1, 0)]
        )
        dist, _ = bellman_ford(g, ids["s"])
        assert dist[ids["t"]] == 1


class TestFindNegativeCycle:
    def test_none_when_absent(self):
        g = uniform_weights(gnp_digraph(12, 0.3, rng=3), rng=4)
        assert find_negative_cycle(g) is None

    def test_finds_isolated_cycle(self):
        g, ids = from_edges(
            [("s", "t", 1, 0), ("x", "y", -2, 0), ("y", "x", 1, 0)]
        )
        cyc = find_negative_cycle(g)
        assert cyc is not None and is_cycle(g, cyc)
        assert negative_cycle_value(g, cyc) < 0

    def test_zero_weight_cycle_not_reported(self):
        g, ids = from_edges([("x", "y", 1, 0), ("y", "x", -1, 0)])
        assert find_negative_cycle(g) is None

    def test_self_loop_negative(self):
        g, ids = from_edges([("x", "x", -1, 0)])
        cyc = find_negative_cycle(g)
        assert cyc == [0]

    def test_alternative_weight(self):
        g, ids = from_edges([("x", "y", 1, -3), ("y", "x", 1, 1)])
        assert find_negative_cycle(g) is None  # cost view positive
        cyc = find_negative_cycle(g, weight=g.delay)
        assert cyc is not None
        assert negative_cycle_value(g, cyc, weight=g.delay) < 0

    def test_empty_graph(self):
        assert find_negative_cycle(DiGraph.empty(3)) is None


class TestLongCycleGadgets:
    def test_bellman_ford_long_negative_cycle(self):
        n = 600
        tails = np.arange(n, dtype=np.int64)
        g = DiGraph(
            n, tails, (tails + 1) % n,
            -np.ones(n, dtype=np.int64), np.ones(n, dtype=np.int64),
        )
        cyc = find_negative_cycle(g)
        assert cyc is not None and len(cyc) == n
        assert int(g.cost[np.asarray(cyc)].sum()) == -n


def _random_graph_maybe_negative(seed: int, n: int = 10) -> DiGraph:
    rng = np.random.default_rng(seed)
    g = gnp_digraph(n, 0.3, rng=int(rng.integers(1 << 30)))
    cost = rng.integers(-4, 15, size=g.m).astype(np.int64)
    return g.with_weights(cost, np.zeros(g.m, dtype=np.int64))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 100_000))
def test_detection_matches_networkx(seed):
    """find_negative_cycle agrees with networkx on the existence question,
    and any reported cycle is a genuine negative cycle."""
    g = _random_graph_maybe_negative(seed)
    nxg = to_networkx(g)
    expected = nx.negative_edge_cycle(nxg, weight="cost")
    cyc = find_negative_cycle(g)
    assert (cyc is not None) == expected
    if cyc is not None:
        assert is_cycle(g, cyc)
        assert negative_cycle_value(g, cyc) < 0


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 100_000))
def test_bf_distances_match_networkx_when_no_cycle(seed):
    g = _random_graph_maybe_negative(seed)
    nxg = to_networkx(g)
    if nx.negative_edge_cycle(nxg, weight="cost"):
        return
    dist, pred = bellman_ford(g, 0)
    nx_dist = nx.single_source_bellman_ford_path_length(nxg, 0, weight="cost")
    for v in range(g.n):
        if v in nx_dist:
            assert int(dist[v]) == nx_dist[v]
        else:
            assert dist[v] == INF
