"""Tests for residual graphs (Definition 6), oplus, and Propositions 7/8."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    apply_residual_cycles,
    build_residual,
    decompose_into_cycles,
    residual_weight_of,
    split_closed_walk,
)
from repro.errors import GraphError
from repro.flow import decompose_flow, max_disjoint_paths, suurballe_k_paths
from repro.graph import DiGraph, from_edges, gnp_digraph, uniform_weights
from repro.graph.validate import check_disjoint_paths, is_cycle


@pytest.fixture
def square():
    g, ids = from_edges(
        [
            ("s", "a", 1, 2),  # 0
            ("a", "t", 3, 4),  # 1
            ("s", "b", 5, 6),  # 2
            ("b", "t", 7, 8),  # 3
            ("a", "b", 9, 10),  # 4
        ]
    )
    return g, ids


class TestBuildResidual:
    def test_reverses_solution_edges(self, square):
        g, ids = square
        res = build_residual(g, [0, 1])
        # Edge 0 (s->a) becomes a->s with negated weights.
        assert int(res.graph.tail[0]) == ids["a"]
        assert int(res.graph.head[0]) == ids["s"]
        assert int(res.graph.cost[0]) == -1 and int(res.graph.delay[0]) == -2
        # Non-solution edges untouched.
        assert int(res.graph.tail[2]) == ids["s"]
        assert int(res.graph.cost[2]) == 5
        assert res.reversed_mask.tolist() == [True, True, False, False, False]

    def test_empty_solution_identity(self, square):
        g, _ = square
        res = build_residual(g, [])
        assert res.graph == g

    def test_rejects_bad_ids(self, square):
        g, _ = square
        with pytest.raises(GraphError):
            build_residual(g, [99])
        with pytest.raises(GraphError):
            build_residual(g, [0, 0])

    def test_weight_of(self, square):
        g, _ = square
        res = build_residual(g, [0])
        c, d = residual_weight_of(res, [0, 2])
        assert c == -1 + 5 and d == -2 + 6


class TestApplyCycles:
    def test_reroute_swaps_paths(self, square):
        g, ids = square
        # Solution {s-a-t}; cycle uses a->b (fwd), b->t (fwd), rev(a->t).
        res = build_residual(g, [0, 1])
        cycle = [4, 3, 1]  # a->b, b->t, t->a(reversed edge 1)
        assert is_cycle(res.graph, [4, 3, 1]) or is_cycle(res.graph, [1, 4, 3])
        new = apply_residual_cycles([0, 1], res, [[4, 3, 1]])
        assert new == [0, 3, 4]  # s->a->b->t

    def test_rejects_nondisjoint_cycles(self, square):
        g, _ = square
        res = build_residual(g, [0, 1])
        with pytest.raises(GraphError):
            apply_residual_cycles([0, 1], res, [[4, 3, 1], [4, 3, 1]])

    def test_rejects_inconsistent_membership(self, square):
        g, _ = square
        res = build_residual(g, [0, 1])
        # Edge 2 forward but pretend it's already in solution.
        with pytest.raises(GraphError):
            apply_residual_cycles([0, 1, 2], res, [[2]])


class TestProposition8:
    """{P*} ⊕ {reversed P} decomposes into cycles exactly."""

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 100_000))
    def test_symmetric_difference_is_cycles(self, seed):
        g = uniform_weights(gnp_digraph(9, 0.4, rng=seed), rng=seed + 1)
        s, t = 0, g.n - 1
        used = max_disjoint_paths(g, s, t, limit=2)
        if int(used.sum()) == 0:
            return
        paths_a, _ = decompose_flow(g, np.nonzero(used)[0], s, t)
        k = len(paths_a)
        paths_b = suurballe_k_paths(g, s, t, k)
        if paths_b is None:
            return
        set_a = set(e for p in paths_a for e in p)
        set_b = set(e for p in paths_b for e in p)
        res = build_residual(g, sorted(set_a))
        # Residual edge set representing B ⊕ reversed(A):
        diff = sorted((set_b - set_a) | (set_a - set_b))
        cycles = decompose_into_cycles(res.graph, diff)
        # Every decomposed element is a genuine residual cycle and the
        # union applies back to exactly solution B.
        for c in cycles:
            assert is_cycle(res.graph, c)
        new = apply_residual_cycles(sorted(set_a), res, cycles)
        assert set(new) == set_b


class TestProposition7:
    """Applying residual cycles to a k-flow yields a k-flow."""

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 100_000))
    def test_oplus_preserves_flow(self, seed):
        from repro.paths.bellman_ford import find_negative_cycle

        g = uniform_weights(gnp_digraph(9, 0.45, rng=seed), rng=seed + 1)
        s, t = 0, g.n - 1
        paths = suurballe_k_paths(g, s, t, 2, weight=g.delay)
        if paths is None:
            return
        sol = sorted(e for p in paths for e in p)
        res = build_residual(g, sol)
        cyc = find_negative_cycle(res.graph, weight=res.graph.cost)
        if cyc is None:
            return
        new = apply_residual_cycles(sol, res, [cyc])
        new_paths, cycles = decompose_flow(g, new, s, t)
        assert len(new_paths) == 2
        check_disjoint_paths(g, new_paths, s, t, k=2)
        # Totals moved exactly by the cycle's residual weights.
        c_delta, d_delta = residual_weight_of(res, cyc)
        assert g.cost_of(new) == g.cost_of(sol) + c_delta
        assert g.delay_of(new) == g.delay_of(sol) + d_delta


class TestSplitClosedWalk:
    def test_simple_cycle_passthrough(self, square):
        g, ids = square
        res = build_residual(g, [0, 1])
        out = split_closed_walk(res.graph, [4, 3, 1])
        assert len(out) == 1 and sorted(out[0]) == [1, 3, 4]

    def test_figure_eight_splits(self):
        g, ids = from_edges(
            [
                ("a", "b", 1, 1),  # 0
                ("b", "a", 1, 1),  # 1
                ("a", "c", 1, 1),  # 2
                ("c", "a", 1, 1),  # 3
            ]
        )
        out = split_closed_walk(g, [0, 1, 2, 3])
        assert len(out) == 2
        assert sorted(sorted(c) for c in out) == [[0, 1], [2, 3]]

    def test_rejects_open_walk(self, square):
        g, _ = square
        with pytest.raises(GraphError):
            split_closed_walk(g, [0, 4])

    def test_rejects_discontiguous(self, square):
        g, _ = square
        with pytest.raises(GraphError):
            split_closed_walk(g, [0, 3])

    def test_empty(self, square):
        g, _ = square
        assert split_closed_walk(g, []) == []

    def test_preserves_edge_multiset(self):
        g, ids = from_edges(
            [
                ("a", "b", 1, 1),
                ("b", "c", 1, 1),
                ("c", "a", 1, 1),
                ("b", "d", 1, 1),
                ("d", "b", 1, 1),
            ]
        )
        walk = [0, 3, 4, 1, 2]  # a->b->d->b->c->a
        out = split_closed_walk(g, walk)
        flat = sorted(e for c in out for e in c)
        assert flat == sorted(walk)
        assert len(out) == 2


class TestLongCycleGadgets:
    """Cycle decomposition stays fast and exact on cycles of thousands of
    edges and on thousands of short cycles."""

    N = 4000

    def test_decompose_into_cycles_single_long_cycle(self):
        tails = np.arange(self.N, dtype=np.int64)
        w = np.ones(self.N, dtype=np.int64)
        g = DiGraph(self.N, tails, (tails + 1) % self.N, w, w)
        cycles = decompose_into_cycles(g, list(range(self.N)))
        assert len(cycles) == 1 and len(cycles[0]) == self.N

    def test_decompose_into_cycles_many_disjoint_cycles(self):
        # 2-cycles between (2i, 2i+1): the old per-cycle min-scan was
        # quadratic in the number of cycles on exactly this shape.
        pairs = self.N // 2
        tails = np.empty(self.N, dtype=np.int64)
        heads = np.empty(self.N, dtype=np.int64)
        tails[0::2] = np.arange(pairs) * 2
        heads[0::2] = np.arange(pairs) * 2 + 1
        tails[1::2] = np.arange(pairs) * 2 + 1
        heads[1::2] = np.arange(pairs) * 2
        w = np.ones(self.N, dtype=np.int64)
        g = DiGraph(self.N, tails, heads, w, w)
        cycles = decompose_into_cycles(g, list(range(self.N)))
        assert len(cycles) == pairs
        assert all(len(c) == 2 for c in cycles)

    def test_split_closed_walk_long_figure_eight(self):
        # Two long petals sharing vertex 0: the walk revisits 0 once.
        n = self.N
        half = n // 2
        tails, heads = [], []
        # Petal A: 0 -> 1 -> ... -> half-1 -> 0.
        for i in range(half):
            tails.append(i)
            heads.append(i + 1 if i + 1 < half else 0)
        # Petal B: 0 -> half -> half+1 -> ... -> n-1 -> 0.
        tails.append(0)
        heads.append(half)
        for i in range(half, n - 1):
            tails.append(i)
            heads.append(i + 1)
        tails.append(n - 1)
        heads.append(0)
        m = len(tails)
        g = DiGraph(
            n,
            np.array(tails, dtype=np.int64),
            np.array(heads, dtype=np.int64),
            np.ones(m, dtype=np.int64),
            np.ones(m, dtype=np.int64),
        )
        cycles = split_closed_walk(g, list(range(m)))
        assert sorted(len(c) for c in cycles) == sorted([half, m - half])
