"""Tests for the core DiGraph container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph import DiGraph, from_edges


def small():
    g, _ = from_edges(
        [("a", "b", 1, 2), ("b", "c", 3, 4), ("a", "c", 5, 6), ("c", "a", 7, 8)]
    )
    return g


class TestConstruction:
    def test_basic_shape(self):
        g = small()
        assert g.n == 3 and g.m == 4
        assert g.tail.dtype == np.int64 and g.cost.dtype == np.int64

    def test_empty(self):
        g = DiGraph.empty(5)
        assert g.n == 5 and g.m == 0
        assert g.total_cost() == 0 and g.total_delay() == 0

    def test_mismatched_arrays_rejected(self):
        z = np.zeros(2, dtype=np.int64)
        with pytest.raises(GraphError):
            DiGraph(3, z, z, z, np.zeros(3, dtype=np.int64))

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            DiGraph(
                2,
                np.array([0]),
                np.array([2]),
                np.array([0]),
                np.array([0]),
            )

    def test_negative_vertex_count_rejected(self):
        z = np.zeros(0, dtype=np.int64)
        with pytest.raises(GraphError):
            DiGraph(-1, z, z, z, z)

    def test_parallel_edges_and_self_loops_allowed(self):
        g, _ = from_edges([("a", "b", 1, 1), ("a", "b", 2, 2), ("a", "a", 3, 3)])
        assert g.m == 3

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(small())


class TestAdjacency:
    def test_out_edges(self):
        g = small()
        # vertex 0 = 'a' has out-edges 0 (a->b) and 2 (a->c)
        assert sorted(g.out_edges(0).tolist()) == [0, 2]
        assert g.out_degree(0) == 2
        assert g.out_degree(1) == 1

    def test_in_edges(self):
        g = small()
        # vertex 2 = 'c' receives edges 1 (b->c) and 2 (a->c)
        assert sorted(g.in_edges(2).tolist()) == [1, 2]
        assert g.in_degree(2) == 2
        assert g.in_degree(0) == 1  # c->a

    def test_csr_cached(self):
        g = small()
        a = g.out_csr()
        b = g.out_csr()
        assert a is b


class TestWeights:
    def test_cost_delay_of(self):
        g = small()
        assert g.cost_of([0, 1]) == 4
        assert g.delay_of([0, 1]) == 6
        assert g.cost_of([]) == 0 and g.delay_of([]) == 0
        assert g.cost_of(np.array([2, 3])) == 12

    def test_totals(self):
        g = small()
        assert g.total_cost() == 1 + 3 + 5 + 7
        assert g.total_delay() == 2 + 4 + 6 + 8

    def test_require_nonnegative(self):
        g = small()
        assert g.require_nonnegative() is g
        bad = g.with_weights(g.cost * -1, g.delay)
        with pytest.raises(GraphError):
            bad.require_nonnegative()
        bad2 = g.with_weights(g.cost, g.delay * -1)
        with pytest.raises(GraphError):
            bad2.require_nonnegative()


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = small()
        h = g.copy()
        h.cost[0] = 99
        assert g.cost[0] == 1
        assert g == small() and h != g

    def test_with_weights_shares_topology(self):
        g = small()
        h = g.with_weights(g.cost * 2, g.delay * 3)
        assert h.n == g.n and h.m == g.m
        assert h.cost_of([0]) == 2 and h.delay_of([0]) == 6

    def test_subgraph_edges_renumbers(self):
        g = small()
        sub = g.subgraph_edges(np.array([1, 3]))
        assert sub.m == 2
        assert int(sub.tail[0]) == 1 and int(sub.head[0]) == 2  # old edge 1
        assert int(sub.cost[1]) == 7  # old edge 3

    def test_edges_iterator(self):
        g = small()
        rows = list(g.edges())
        assert rows[0] == (0, 0, 1, 1, 2)
        assert len(rows) == 4


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=40,
            ),
        )
    )
)
def test_csr_covers_every_edge_exactly_once(case):
    """CSR out/in indices partition edge ids for arbitrary multigraphs."""
    n, pairs = case
    m = len(pairs)
    tail = np.array([p[0] for p in pairs], dtype=np.int64)
    head = np.array([p[1] for p in pairs], dtype=np.int64)
    g = DiGraph(n, tail, head, np.zeros(m, np.int64), np.zeros(m, np.int64))
    seen_out = sorted(e for u in range(n) for e in g.out_edges(u).tolist())
    seen_in = sorted(e for v in range(n) for e in g.in_edges(v).tolist())
    assert seen_out == list(range(m))
    assert seen_in == list(range(m))
    for u in range(n):
        for e in g.out_edges(u):
            assert int(g.tail[e]) == u
    for v in range(n):
        for e in g.in_edges(v):
            assert int(g.head[e]) == v


def _random_multigraph(rng, m_low, m_high):
    n = int(rng.integers(3, 12))
    m = int(rng.integers(m_low, m_high))
    return DiGraph(
        n,
        rng.integers(0, n, size=m),
        rng.integers(0, n, size=m),
        rng.integers(-5, 9, size=m),
        rng.integers(-5, 9, size=m),
    )


def _assert_csr_matches_fresh_build(g):
    fresh = DiGraph(g.n, g.tail.copy(), g.head.copy(), g.cost.copy(), g.delay.copy())
    for v in range(g.n):
        assert np.array_equal(g.out_edges(v), fresh.out_edges(v)), v
        assert np.array_equal(g.in_edges(v), fresh.in_edges(v)), v


class TestInPlaceEdits:
    """``remove_edges`` / ``add_edges``, the online churn seam: after an
    edit the CSR indices (built before it) equal a fresh build's."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_remove_edges_idmap_and_csr_match_fresh_build(self, seed):
        rng = np.random.default_rng(seed)
        g = _random_multigraph(rng, 2, 30)
        m = g.m
        g.out_edges(0)
        g.in_edges(0)
        doomed = sorted(
            int(e)
            for e in rng.choice(m, size=int(rng.integers(1, m)), replace=False)
        )
        id_map = g.remove_edges(doomed)
        # id-map semantics: -1 for removed, dense renumbering otherwise.
        removed = np.zeros(m, dtype=bool)
        removed[doomed] = True
        expect = np.where(removed, -1, np.cumsum(~removed) - 1)
        assert np.array_equal(id_map, expect)
        assert g.m == m - len(doomed)
        _assert_csr_matches_fresh_build(g)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_add_edges_csr_matches_fresh_build(self, seed):
        rng = np.random.default_rng(seed)
        g = _random_multigraph(rng, 1, 25)
        m = g.m
        g.out_edges(0)
        g.in_edges(0)
        extra = int(rng.integers(1, 6))
        new_ids = g.add_edges(
            rng.integers(0, g.n, size=extra),
            rng.integers(0, g.n, size=extra),
            rng.integers(0, 9, size=extra),
            rng.integers(0, 9, size=extra),
        )
        assert list(new_ids) == list(range(m, m + extra))
        _assert_csr_matches_fresh_build(g)

    def test_remove_edges_rejects_bad_ids(self):
        g = DiGraph(2, [0], [1], [3], [4])
        with pytest.raises(GraphError):
            g.remove_edges([1])
        # Duplicates collapse (np.unique); empty removal is the identity.
        g2 = DiGraph(3, [0, 1], [1, 2], [3, 4], [5, 6])
        assert list(g2.remove_edges([0, 0])) == [-1, 0]
        assert list(g2.remove_edges([])) == [0]
