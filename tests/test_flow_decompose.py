"""Tests for flow decomposition into paths + cycles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.flow import decompose_flow, flow_from_paths, strip_improving_cycles
from repro.graph import DiGraph, from_edges, gnp_digraph, parallel_chains
from repro.graph.validate import check_disjoint_paths, is_cycle


class TestDecompose:
    def test_pure_paths(self):
        g, s, t = parallel_chains(2, 2)
        paths, cycles = decompose_flow(g, range(g.m), s, t)
        assert len(paths) == 2 and cycles == []
        check_disjoint_paths(g, paths, s, t, k=2)

    def test_pure_cycle(self):
        g, ids = from_edges([("a", "b", 1, 1), ("b", "a", 1, 1)], nodes=["s", "t", "a", "b"])
        paths, cycles = decompose_flow(g, [0, 1], ids["s"], ids["t"])
        assert paths == [] and len(cycles) == 1
        assert is_cycle(g, cycles[0])

    def test_path_plus_cycle(self):
        g, ids = from_edges(
            [
                ("s", "t", 1, 1),  # 0: the path
                ("a", "b", 1, 1),  # 1
                ("b", "a", 1, 1),  # 2
            ]
        )
        paths, cycles = decompose_flow(g, [0, 1, 2], ids["s"], ids["t"])
        assert paths == [[0]] and len(cycles) == 1

    def test_deterministic_lowest_edge_first(self):
        # Two ways to route 2 units through a shared middle vertex; the
        # peel must always pick the lowest edge id available.
        g, ids = from_edges(
            [
                ("s", "m", 1, 1),  # 0
                ("s", "m", 1, 1),  # 1
                ("m", "t", 1, 1),  # 2
                ("m", "t", 1, 1),  # 3
            ]
        )
        paths, _ = decompose_flow(g, [0, 1, 2, 3], ids["s"], ids["t"])
        assert paths == [[0, 2], [1, 3]]

    def test_rejects_imbalanced(self):
        g, ids = from_edges([("s", "a", 1, 1), ("a", "t", 1, 1)])
        with pytest.raises(GraphError):
            decompose_flow(g, [0], ids["s"], ids["t"])

    def test_rejects_duplicates(self):
        g, s, t = parallel_chains(1, 1)
        with pytest.raises(GraphError):
            decompose_flow(g, [0, 0], s, t)

    def test_s_eq_t_balanced_only(self):
        g, ids = from_edges([("a", "b", 1, 1), ("b", "a", 1, 1)])
        paths, cycles = decompose_flow(g, [0, 1], ids["a"], ids["a"])
        assert paths == [] and len(cycles) == 1
        with pytest.raises(GraphError):
            decompose_flow(g, [0], ids["a"], ids["a"])

    def test_empty(self):
        g, s, t = parallel_chains(1, 1)
        assert decompose_flow(g, [], s, t) == ([], [])


class TestFlowFromPaths:
    def test_round_trip(self):
        g, s, t = parallel_chains(3, 2)
        paths, _ = decompose_flow(g, range(g.m), s, t)
        assert flow_from_paths(paths) == sorted(range(g.m))

    def test_rejects_overlap(self):
        with pytest.raises(GraphError):
            flow_from_paths([[0, 1], [1, 2]])


class TestStripCycles:
    def test_accepts_nonnegative_cycles(self):
        g, ids = from_edges([("a", "b", 1, 0), ("b", "a", 0, 1)])
        assert strip_improving_cycles(g, [[5]], [[0, 1]]) == [[5]]

    def test_rejects_negative_cycles(self):
        g, ids = from_edges([("a", "b", -1, 0), ("b", "a", 0, 0)])
        with pytest.raises(GraphError):
            strip_improving_cycles(g, [], [[0, 1]])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 100_000), st.integers(1, 3))
def test_decompose_preserves_edge_multiset(seed, k):
    """paths + cycles partition the input edge set exactly."""
    from repro.flow import max_disjoint_paths

    g = gnp_digraph(10, 0.35, rng=seed)
    s, t = 0, g.n - 1
    used = max_disjoint_paths(g, s, t, limit=k)
    eids = np.nonzero(used)[0]
    paths, cycles = decompose_flow(g, eids, s, t)
    got = sorted(e for p in paths for e in p) + sorted(e for c in cycles for e in c)
    assert sorted(got) == sorted(eids.tolist())
    for c in cycles:
        assert is_cycle(g, c)


class TestLongCycleGadgets:
    N = 4000

    def test_decompose_flow_many_cycles(self):
        # 2-cycles between (2i, 2i+1) and no s-t path.
        pairs = self.N // 2
        tails = np.empty(self.N, dtype=np.int64)
        heads = np.empty(self.N, dtype=np.int64)
        tails[0::2] = np.arange(pairs) * 2
        heads[0::2] = np.arange(pairs) * 2 + 1
        tails[1::2] = np.arange(pairs) * 2 + 1
        heads[1::2] = np.arange(pairs) * 2
        w = np.ones(self.N, dtype=np.int64)
        g = DiGraph(self.N, tails, heads, w, w)
        paths, cycles = decompose_flow(g, list(range(self.N)), 0, 0)
        assert paths == []
        assert len(cycles) == pairs
