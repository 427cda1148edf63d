"""Tests for Yen's KSP, the KSP-filtering baseline, and node splitting."""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import ksp_filtering_baseline
from repro.errors import GraphError, InfeasibleInstanceError
from repro.graph import (
    from_edges,
    gnp_digraph,
    anticorrelated_weights,
    parallel_chains,
    split_vertices,
    solve_krsp_vertex_disjoint,
    to_networkx,
    uniform_weights,
)
from repro.graph.validate import check_disjoint_paths, is_simple_path
from repro.lp.milp import solve_krsp_milp
from repro.paths import yen_k_shortest_paths


class TestYen:
    def test_first_path_is_shortest(self):
        g, ids = from_edges(
            [("s", "a", 1, 0), ("a", "t", 1, 0), ("s", "t", 5, 0)]
        )
        paths = yen_k_shortest_paths(g, ids["s"], ids["t"], 2)
        assert paths[0] == [0, 1] and paths[1] == [2]

    def test_nondecreasing_weights(self):
        g = uniform_weights(gnp_digraph(10, 0.4, rng=3), rng=4)
        paths = yen_k_shortest_paths(g, 0, 9, 8)
        weights = [g.cost_of(p) for p in paths]
        assert weights == sorted(weights)

    def test_all_loopless_and_distinct(self):
        g = uniform_weights(gnp_digraph(10, 0.4, rng=3), rng=4)
        paths = yen_k_shortest_paths(g, 0, 9, 10)
        seen = set()
        for p in paths:
            assert is_simple_path(g, p, 0, 9)
            assert tuple(p) not in seen
            seen.add(tuple(p))

    def test_exhausts_small_graph(self):
        g, ids = from_edges([("s", "t", 1, 0), ("s", "t", 2, 0)])
        paths = yen_k_shortest_paths(g, ids["s"], ids["t"], 10)
        assert len(paths) == 2

    def test_unreachable(self):
        g, ids = from_edges([("s", "a", 1, 0)], nodes=["s", "a", "t"])
        assert yen_k_shortest_paths(g, ids["s"], ids["t"], 3) == []

    def test_s_eq_t(self):
        g, ids = from_edges([("s", "t", 1, 0)])
        assert yen_k_shortest_paths(g, ids["s"], ids["s"], 2) == [[]]

    def test_bad_k(self):
        g, ids = from_edges([("s", "t", 1, 0)])
        with pytest.raises(GraphError):
            yen_k_shortest_paths(g, ids["s"], ids["t"], 0)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 50_000))
    def test_matches_networkx_enumeration(self, seed):
        g = uniform_weights(gnp_digraph(8, 0.4, rng=seed), (1, 9), (1, 9), rng=seed + 1)
        K = 6
        got = yen_k_shortest_paths(g, 0, 7, K)
        # networkx's shortest_simple_paths rejects multigraphs; gnp graphs
        # are simple, so collapse the container type.
        nxg = nx.DiGraph(to_networkx(g))
        try:
            expected = list(
                itertools.islice(
                    nx.shortest_simple_paths(nxg, 0, 7, weight="cost"), K
                )
            )
        except nx.NetworkXNoPath:
            assert got == []
            return
        assert len(got) == min(K, len(expected)) or len(got) <= K
        # Weight sequences must match (path identities may differ on ties).
        def node_path_weight(np_):
            return sum(nxg[u][v]["cost"] for u, v in zip(np_, np_[1:]))

        got_w = [g.cost_of(p) for p in got]
        exp_w = [node_path_weight(p) for p in expected]
        assert got_w == exp_w[: len(got_w)]


class TestKspFiltering:
    def test_solves_tradeoff(self):
        g, ids = from_edges(
            [
                ("s", "a", 1, 9),
                ("a", "t", 1, 9),
                ("s", "b", 5, 1),
                ("b", "t", 5, 1),
            ]
        )
        res = ksp_filtering_baseline(g, ids["s"], ids["t"], 2, 30)
        assert res.meets_delay_bound
        check_disjoint_paths(g, res.paths, ids["s"], ids["t"], k=2)

    def test_fails_when_budget_unreachable(self):
        g, ids = from_edges(
            [("s", "t", 1, 9), ("s", "t", 1, 9)]
        )
        with pytest.raises(InfeasibleInstanceError):
            ksp_filtering_baseline(g, ids["s"], ids["t"], 2, 10)

    def test_pool_too_small(self):
        g, s, t = parallel_chains(2, 2)
        with pytest.raises(InfeasibleInstanceError):
            ksp_filtering_baseline(g, s, t, 3, 100)

    def test_random_instances_feasible_when_it_answers(self):
        for seed in range(10):
            g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=seed), rng=seed + 1)
            exact = solve_krsp_milp(g, 0, 9, 2, 40)
            if exact is None:
                continue
            try:
                res = ksp_filtering_baseline(g, 0, 9, 2, 40)
            except InfeasibleInstanceError:
                continue  # heuristic miss — legitimate
            assert res.delay <= 40
            assert res.cost >= exact.cost  # never beats the optimum
            check_disjoint_paths(g, res.paths, 0, 9, k=2)


class TestSplitVertices:
    def test_structure(self):
        g, ids = from_edges(
            [("s", "a", 1, 2), ("a", "t", 3, 4), ("s", "t", 5, 6)]
        )
        split = split_vertices(g, ids["s"], ids["t"])
        # One gate (vertex a) + three original edges.
        assert split.graph.m == 1 + 3
        gates = np.nonzero(split.orig_eid < 0)[0]
        assert len(gates) == 1
        assert split.graph.cost[gates[0]] == 0

    def test_rejects_bad_terminals(self):
        g, ids = from_edges([("s", "t", 1, 1)])
        with pytest.raises(GraphError):
            split_vertices(g, ids["s"], ids["s"])

    def test_vertex_disjointness_enforced(self):
        # Two edge-disjoint routes share the middle vertex m; the
        # vertex-disjoint solver must refuse k=2.
        g, ids = from_edges(
            [
                ("s", "m", 1, 1),
                ("m", "t", 1, 1),
                ("s", "m", 1, 1),
                ("m", "t", 1, 1),
            ]
        )
        # Edge-disjoint version is fine:
        from repro.core import solve_krsp

        assert solve_krsp(g, ids["s"], ids["t"], 2, 100).cost == 4
        # Vertex-disjoint is impossible:
        with pytest.raises(InfeasibleInstanceError):
            solve_krsp_vertex_disjoint(g, ids["s"], ids["t"], 2, 100)

    def test_projected_paths_vertex_disjoint(self):
        for seed in range(8):
            g = anticorrelated_weights(gnp_digraph(10, 0.5, rng=seed), rng=seed + 1)
            try:
                sol = solve_krsp_vertex_disjoint(g, 0, 9, 2, 60)
            except InfeasibleInstanceError:
                continue
            assert sol.delay <= 60
            check_disjoint_paths(g, sol.paths, 0, 9, k=2)
            # Internal vertices are pairwise disjoint.
            interiors = []
            for p in sol.paths:
                verts = [int(g.head[e]) for e in p[:-1]]
                interiors.append(set(verts))
            assert not (interiors[0] & interiors[1])

    def test_weights_preserved_through_projection(self):
        g, ids = from_edges([("s", "a", 2, 3), ("a", "t", 4, 5)])
        split = split_vertices(g, ids["s"], ids["t"])
        from repro.core import solve_krsp

        sol = solve_krsp(split.graph, split.s, split.t, 1, 100)
        projected = split.project_path(sol.paths[0])
        assert g.cost_of(projected) == sol.cost
        assert g.delay_of(projected) == sol.delay


class TestTransformCopyOnWrite:
    def test_inject_no_edges_shares_arrays(self):
        from repro.graph.transform import inject_parallel_edges

        g = gnp_digraph(8, 0.4, rng=0)
        child = inject_parallel_edges(g, [])
        assert np.shares_memory(child.cost, g.cost)
        assert np.shares_memory(child.delay, g.delay)
        assert np.shares_memory(child.tail, g.tail)

    def test_subdivide_no_edges_shares_arrays(self):
        from repro.graph.transform import subdivide_edges

        g = gnp_digraph(8, 0.4, rng=0)
        child = subdivide_edges(g, [])
        assert np.shares_memory(child.cost, g.cost)

    def test_mutating_child_never_changes_parent(self):
        """A COW child handed to a mutating helper must leave the parent
        (and the COW sibling) untouched — fresh arrays on every mutation."""
        from repro.graph.transform import inject_parallel_edges, subdivide_edges

        g = anticorrelated_weights(gnp_digraph(8, 0.5, rng=3), rng=3)
        child = inject_parallel_edges(g, [])  # shares g's arrays
        before = (g.tail.copy(), g.head.copy(), g.cost.copy(), g.delay.copy())
        grandchild = subdivide_edges(child, [0, 1])
        assert grandchild.m == child.m + 2
        mutated = inject_parallel_edges(child, [0], cost_jitter=2, rng=1)
        assert mutated.m == child.m + 1
        for arr, ref in zip(("tail", "head", "cost", "delay"), before):
            assert np.array_equal(getattr(g, arr), ref), arr
