"""Tests for auxiliary graphs (Algorithm 2) and Lemma 15 correspondence."""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import build_aux_paper, build_aux_shifted, build_residual
from repro.errors import GraphError
from repro.graph import from_edges, gnp_digraph, to_networkx, uniform_weights
from repro.graph.validate import is_cycle


@pytest.fixture
def residual_example():
    """Residual of a 4-cycle instance with one reversed path."""
    g, ids = from_edges(
        [
            ("s", "a", 2, 3),  # 0 (in solution)
            ("a", "t", 1, 4),  # 1 (in solution)
            ("s", "b", 1, 1),  # 2
            ("b", "t", 1, 1),  # 3
            ("a", "b", 1, 1),  # 4
            ("b", "a", 2, 1),  # 5
        ]
    )
    return g, ids, build_residual(g, [0, 1])


class TestShiftedConstruction:
    def test_sizes(self, residual_example):
        g, ids, res = residual_example
        B = 3
        aux = build_aux_shifted(res.graph, B)
        assert aux.graph.n == g.n * (2 * B + 1)
        assert aux.n_layers == 2 * B + 1 and aux.offset == B
        # Wraps: per vertex, 2 per c0 in 1..B.
        assert int(aux.is_wrap().sum()) == g.n * 2 * B

    def test_node_indexing(self, residual_example):
        g, ids, res = residual_example
        aux = build_aux_shifted(res.graph, 2)
        assert aux.node(0, 0) == 0 * 5 + 2
        assert aux.node(1, -2) == 1 * 5 + 0
        with pytest.raises(GraphError):
            aux.node(0, 3)

    def test_edges_shift_layers_by_cost(self, residual_example):
        g, ids, res = residual_example
        B = 3
        aux = build_aux_shifted(res.graph, B)
        h = aux.graph
        for he in range(h.m):
            oe = int(aux.orig_eid[he])
            if oe < 0:
                continue
            tail_layer = int(h.tail[he]) % aux.n_layers
            head_layer = int(h.head[he]) % aux.n_layers
            assert head_layer - tail_layer == int(res.graph.cost[oe])
            assert int(h.tail[he]) // aux.n_layers == int(res.graph.tail[oe])
            assert int(h.head[he]) // aux.n_layers == int(res.graph.head[oe])
            assert int(h.delay[he]) == int(res.graph.delay[oe])

    def test_wraps_are_zero_delay(self, residual_example):
        g, ids, res = residual_example
        aux = build_aux_shifted(res.graph, 2)
        wraps = aux.is_wrap()
        assert (aux.graph.delay[wraps] == 0).all()
        assert (np.abs(aux.wrap_cost[wraps]) >= 1).all()

    def test_b_validation(self, residual_example):
        g, ids, res = residual_example
        with pytest.raises(GraphError):
            build_aux_shifted(res.graph, 0)


class TestPaperConstruction:
    def test_plus_layers_and_wraps(self, residual_example):
        g, ids, res = residual_example
        B = 4
        aux = build_aux_paper(res.graph, ids["a"], B, +1)
        assert aux.graph.n == g.n * (B + 1)
        wraps = np.nonzero(aux.is_wrap())[0]
        assert len(wraps) == B
        # All wraps anchored at vertex a, targeting layer 0.
        for we in wraps:
            assert int(aux.graph.tail[we]) // (B + 1) == ids["a"]
            assert int(aux.graph.head[we]) == ids["a"] * (B + 1)

    def test_minus_wraps_target_layer_B(self, residual_example):
        g, ids, res = residual_example
        B = 4
        aux = build_aux_paper(res.graph, ids["b"], B, -1)
        wraps = np.nonzero(aux.is_wrap())[0]
        assert len(wraps) == B
        for we in wraps:
            assert int(aux.graph.head[we]) == ids["b"] * (B + 1) + B
        assert (aux.wrap_cost[wraps] < 0).all()

    def test_sign_validation(self, residual_example):
        g, ids, res = residual_example
        with pytest.raises(GraphError):
            build_aux_paper(res.graph, 0, 3, 0)


def enumerate_residual_cycles(res_g):
    """All simple cycles of the residual graph as edge-id lists (first
    parallel edge per hop plus per-combination expansion)."""
    nxg = to_networkx(res_g)
    out = []
    for node_cycle in nx.simple_cycles(nxg):
        hops = list(zip(node_cycle, node_cycle[1:] + [node_cycle[0]]))
        options = []
        ok = True
        for a, b in hops:
            if not nxg.has_edge(a, b):
                ok = False
                break
            options.append([d["eid"] for d in nxg[a][b].values()])
        if not ok:
            continue
        for combo in itertools.product(*options):
            out.append(list(combo))
    return out


class TestLemma15:
    """Cycle correspondence between residual graph and H (both variants)."""

    def _h_has_cycle_matching(self, aux, res_g, cycle, start_vertex):
        """Check the H-representability of `cycle` started at start_vertex
        by walking layers explicitly."""
        level = 0
        # rotate cycle to start at start_vertex
        tails = [int(res_g.tail[e]) for e in cycle]
        if start_vertex not in tails:
            return False
        i = tails.index(start_vertex)
        rotated = cycle[i:] + cycle[:i]
        try:
            node = aux.node(start_vertex, 0)
        except GraphError:
            return False
        for e in rotated:
            level += int(res_g.cost[e])
            try:
                aux.node(int(res_g.head[e]), level)
            except GraphError:
                return False
        return True

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 50_000))
    def test_shifted_represents_all_cycles_at_full_radius(self, seed):
        g = uniform_weights(gnp_digraph(6, 0.4, rng=seed), (1, 4), (1, 4), rng=seed + 1)
        res = build_residual(g, [])
        cycles = enumerate_residual_cycles(res.graph)
        if not cycles:
            return
        B = int(np.abs(res.graph.cost).sum())
        aux = build_aux_shifted(res.graph, max(B, 1))
        for cyc in cycles:
            # At full radius every cycle is representable from any start.
            start = int(res.graph.tail[cyc[0]])
            assert self._h_has_cycle_matching(aux, res.graph, cyc, start)

    def test_paper_plus_requires_nonnegative_prefix(self, residual_example):
        g, ids, res = residual_example
        # Cycle through reversed edges has negative prefixes from some
        # starts; the paper H^+ (layers 0..B) cannot host those.
        B = 6
        aux = build_aux_paper(res.graph, ids["a"], B, +1)
        # Cycle a->b (cost 1), b->a via edge 5 (cost 2): all-positive costs,
        # prefix stays in [0, 3] — representable.
        assert self._h_has_cycle_matching_paper(aux, res.graph, [4, 5], ids["a"])

    def _h_has_cycle_matching_paper(self, aux, res_g, cycle, start_vertex):
        level = 0
        tails = [int(res_g.tail[e]) for e in cycle]
        if start_vertex not in tails:
            return False
        i = tails.index(start_vertex)
        rotated = cycle[i:] + cycle[:i]
        for e in rotated:
            level += int(res_g.cost[e])
            if not 0 <= level <= aux.B:
                return False
        return True

    def test_projection_round_trip(self, residual_example):
        """H cycles project back to residual closed walks exactly."""
        g, ids, res = residual_example
        aux = build_aux_shifted(res.graph, 4)
        # Construct an H cycle manually for residual cycle [4, 5] (a->b->a)
        # starting at a, levels 0 -> 1 -> 3, then wrap (a,3)->(a,0).
        h = aux.graph
        lvl = 0
        h_edges = []
        cur = ids["a"]
        for e in (4, 5):
            nxt_lvl = lvl + int(res.graph.cost[e])
            tail_node = aux.node(cur, lvl)
            head_node = aux.node(int(res.graph.head[e]), nxt_lvl)
            matches = [
                he
                for he in range(h.m)
                if int(h.tail[he]) == tail_node
                and int(h.head[he]) == head_node
                and int(aux.orig_eid[he]) == e
            ]
            assert matches, "expected layered copy missing"
            h_edges.append(matches[0])
            cur = int(res.graph.head[e])
            lvl = nxt_lvl
        # wrap back
        wrap = [
            he
            for he in range(h.m)
            if aux.orig_eid[he] < 0
            and int(h.tail[he]) == aux.node(ids["a"], lvl)
            and int(h.head[he]) == aux.node(ids["a"], 0)
        ]
        assert wrap
        h_cycle = h_edges + [wrap[0]]
        assert is_cycle(h, h_cycle)
        walk = aux.to_residual_walk(h_cycle)
        assert walk == [4, 5]


class TestVariantEquivalence:
    """Cycles representable in the paper's H_v^+(B) are always representable
    in the shifted H(B) — the generalization never loses coverage."""

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 50_000))
    def test_shifted_covers_paper_representable(self, seed):
        g = uniform_weights(gnp_digraph(6, 0.4, rng=seed), (1, 4), (1, 4), rng=seed + 1)
        res = build_residual(g, [])
        cycles = enumerate_residual_cycles(res.graph)
        if not cycles:
            return
        B = 6
        aux_shifted = build_aux_shifted(res.graph, B)
        for cyc in cycles:
            for start_idx in range(len(cyc)):
                rotated = cyc[start_idx:] + cyc[:start_idx]
                start = int(res.graph.tail[rotated[0]])
                # Paper representability: prefixes within [0, B].
                prefix, ok_paper = 0, True
                for e in rotated:
                    prefix += int(res.graph.cost[e])
                    if not 0 <= prefix <= B:
                        ok_paper = False
                        break
                if not ok_paper:
                    continue
                # Then the shifted graph must host it from the same start
                # (its window [-B, B] contains [0, B]).
                lvl, ok_shifted = 0, True
                for e in rotated:
                    lvl += int(res.graph.cost[e])
                    if not -B <= lvl <= B:
                        ok_shifted = False
                        break
                assert ok_shifted
