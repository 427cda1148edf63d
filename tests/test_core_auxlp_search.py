"""Tests for the one-wrap ratio search, fractional peeling, and the search driver."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st

from repro import obs
from repro.core import (
    CycleType,
    build_aux_shifted,
    build_residual,
    classify,
    find_bicameral_candidates,
    find_bicameral_cycle,
    reversed_edge_anchors,
)
from repro.core.auxgraph import AuxGraph
from repro.core.auxlp import (
    candidates_from_cycles,
    min_ratio_cycles,
    peel_fractional_cycles,
)
from repro.core.search import SearchStats, _level_test
from repro.errors import BudgetExhaustedError, SolverError
from repro.graph import DiGraph, from_edges, gnp_digraph, anticorrelated_weights
from repro.graph.validate import is_cycle
from repro.paths.bellman_ford import find_negative_cycle
from repro.robustness.budget import SolveBudget, metered
from repro._util.intmath import ratio_cmp


@pytest.fixture
def tradeoff_residual():
    """Residual with a clean type-1 cycle: swap slow-cheap for fast-pricey."""
    g, ids = from_edges(
        [
            ("s", "a", 1, 9),  # 0 in solution (cheap, slow)
            ("a", "t", 1, 9),  # 1 in solution
            ("s", "b", 5, 1),  # 2 (pricey, fast)
            ("b", "t", 5, 1),  # 3
        ]
    )
    return g, ids, build_residual(g, [0, 1])


def _full_radius(res):
    return build_aux_shifted(res.graph, int(np.abs(res.graph.cost).sum()))


def _ratio_candidates(aux, res, sign):
    cyc = min_ratio_cycles(aux, reversed_edge_anchors(res), aux.B).get(sign)
    return None if cyc is None else candidates_from_cycles(aux, res.graph, [cyc])


def _ratio_of(aux, cyc) -> Fraction:
    """``d(C) / |wrap cost|`` of a one-wrap H-cycle."""
    return Fraction(int(aux.graph.delay[cyc].sum()), int(np.abs(aux.wrap_cost[cyc]).sum()))


def _hand_aux(tail, head, delay, wrap_cost):
    """An aux graph given edge by edge, one layer, so every node is its own
    base vertex (non-wraps map to residual edge i)."""
    wrap_cost = np.asarray(wrap_cost)
    m, n = len(tail), max(max(tail), max(head)) + 1
    g = DiGraph(n, tail, head, np.zeros(m, dtype=np.int64), np.asarray(delay))
    orig_eid = np.where(wrap_cost == 0, np.arange(m), -1)
    return AuxGraph(g, n, 1, 0, 1, orig_eid, wrap_cost)


def _layered_oracle(aux, anchors, c_max):
    """The search's answer recomputed in plain integers: ``"type0"`` when
    the non-wrap edges hold a negative cycle that the heads of the
    anchors' wraps reach, else per sign the least ``d/c0`` over the
    admitted wraps, each from a Bellman–Ford run from its head alone (no
    potentials, no Dijkstra)."""
    h = aux.graph
    wraps = [
        e for e in np.flatnonzero(aux.orig_eid < 0).tolist()
        if int(h.head[e]) // aux.n_layers in anchors
    ]
    sources = {int(h.head[e]) for e in wraps}
    flow = [
        (int(u), int(v), int(d))
        for u, v, d, o in zip(h.tail, h.head, h.delay, aux.orig_eid)
        if o >= 0
    ]

    def bellman_ford(dist):
        for _ in range(h.n + 1):
            changed = False
            for u, v, d in flow:
                if dist[u] is not None and (dist[v] is None or dist[u] + d < dist[v]):
                    dist[v] = dist[u] + d
                    changed = True
            if not changed:
                return dist
        return None  # still improving after n rounds: a negative cycle

    if bellman_ford([0 if v in sources else None for v in range(h.n)]) is None:
        return "type0"
    best = {}
    for e in wraps:
        c = int(aux.wrap_cost[e])
        src, end = int(h.head[e]), int(h.tail[e])
        if abs(c) > c_max:
            continue
        dist = bellman_ford([0 if v == src else None for v in range(h.n)])
        if dist[end] is None:
            continue
        ratio = Fraction(dist[end] + int(h.delay[e]), abs(c))
        sign = 1 if c > 0 else -1
        best[sign] = min(best.get(sign, ratio), ratio)
    return best


def _simple_cycles(g):
    """Every simple cycle of a small multigraph, as edge-id lists, each
    listed once from its least vertex."""
    out_edges = {}
    for e in range(g.m):
        out_edges.setdefault(int(g.tail[e]), []).append(e)
    found = []

    def extend(start, v, path, visited):
        for e in out_edges.get(v, ()):
            w = int(g.head[e])
            if w == start:
                found.append(path + [e])
            elif w > start and w not in visited:
                extend(start, w, path + [e], visited | {w})

    for start in range(g.n):
        extend(start, start, [], {start})
    return found


class TestRatioLp:
    """The one-wrap search over the shifted graph (formerly the ratio LP)."""

    def test_finds_positive_cost_cycle(self, tradeoff_residual):
        g, ids, res = tradeoff_residual
        cands = _ratio_candidates(_full_radius(res), res, +1)
        assert cands
        # The reroute cycle: 2,3 forward + 0,1 reversed = cost 8, delay -16.
        best = min(cands, key=lambda c: c.delay / c.cost if c.cost > 0 else 0)
        assert best.cost == 8 and best.delay == -16

    def test_negative_sign_finds_reverse_cycle(self, tradeoff_residual):
        g, ids, res = tradeoff_residual
        # Flip the solution: now the pricey path is held, so the cycle that
        # swaps back has negative cost.
        res2 = build_residual(g, [2, 3])
        cands = _ratio_candidates(_full_radius(res2), res2, -1)
        assert cands and any(c.cost < 0 for c in cands)

    def test_none_when_no_cycles(self):
        g, ids = from_edges([("s", "a", 1, 1), ("a", "t", 1, 1)])
        res = build_residual(g, [])
        assert min_ratio_cycles(build_aux_shifted(res.graph, 2), [0, 1, 2], 2) == {}

    def test_ratio_optimality(self):
        """The search finds a min-ratio cycle among several options."""
        g, ids = from_edges(
            [
                ("s", "a", 1, 6),  # 0 in solution
                ("a", "t", 1, 6),  # 1 in solution
                ("s", "b", 2, 1),  # 2: reroute A, cycle cost 2, delay -10
                ("b", "t", 2, 1),  # 3
                ("s", "c", 9, 1),  # 4: reroute B, cycle cost 16, delay -10
                ("c", "t", 9, 1),  # 5
            ]
        )
        res = build_residual(g, [0, 1])
        cands = _ratio_candidates(_full_radius(res), res, +1)
        pos = [c for c in cands if c.cost > 0 and c.delay < 0]
        assert pos
        best = min(pos, key=lambda c: c.delay / c.cost)
        # Best ratio is reroute A: -10/2 = -5.
        assert ratio_cmp(best.delay, best.cost, -10, 2) <= 0


class TestMinRatioCycle:
    """Hand-built cases for each step of the one-wrap search."""

    def test_no_chosen_wrap_returns_none_without_a_pass(self):
        # 0 <-> 1 closed only by a -2 wrap: nothing for the + sign, and
        # nothing at all once the cap excludes that wrap.
        aux = _hand_aux([0, 1], [1, 0], [-3, 0], [0, -2])
        assert min_ratio_cycles(aux, [0, 1], 2) == {-1: [0, 1]}
        assert min_ratio_cycles(aux, [0, 1], 1) == {}
        # With no wrap whose head is an anchor, no potential pass runs.
        with obs.session():
            assert min_ratio_cycles(aux, [1], 2) == {}
            snap = obs.snapshot()
        assert "search.ratio.potential_rounds" not in snap

    def test_cost_zero_negative_delay_cycle_comes_first(self):
        # 0 <-> 1 is a wrap-free cycle of delay -1 (cost 0, type 0); the
        # wrap cycle 0 -> 2 -> 0 has the far better ratio -50/1, but the
        # potential pass meets the cost-0 cycle first.
        aux = _hand_aux([0, 1, 0, 2], [1, 0, 2, 0], [-2, 1, -50, 0], [0, 0, 0, 1])
        with obs.session():
            cycles = min_ratio_cycles(aux, [0, 1, 2], 1)
            snap = obs.snapshot()
        assert {sign: sorted(c) for sign, c in cycles.items()} == {+1: [0, 1], -1: [0, 1]}
        assert snap.get("search.ratio.zero_cost_cycles") == 1

    def test_tie_returns_an_optimal_ratio(self):
        # Three wrap cycles through vertex 0: ratios -5/1, -10/2 (tied
        # optimum) and -6/3.
        aux = _hand_aux(
            [0, 1, 0, 2, 0, 3],
            [1, 0, 2, 0, 3, 0],
            [-5, 0, -10, 0, -6, 0],
            [0, 1, 0, 2, 0, 3],
        )
        cyc = min_ratio_cycles(aux, [0], 3)[+1]
        assert _ratio_of(aux, cyc) == -5

    def test_cycle_costlier_than_b_waits_for_its_level(self):
        # 0 -> 1 -> 0 costs 2. With wraps at every vertex, H(1) closes it
        # through two cost-1 wraps; a one-wrap cycle needs B >= 2 and a cap
        # of at least 2.
        g = DiGraph(2, [0, 1], [1, 0], [1, 1], [-10, -10])
        assert min_ratio_cycles(build_aux_shifted(g, 1), [0, 1], 1) == {}
        aux = build_aux_shifted(g, 2)
        assert min_ratio_cycles(aux, [0, 1], 1) == {}
        cyc = min_ratio_cycles(aux, [0, 1], 2)[+1]
        assert is_cycle(aux.graph, cyc) and _ratio_of(aux, cyc) == -10
        assert (aux.orig_eid[cyc] < 0).sum() == 1

    def test_parallel_edges(self):
        # Two parallel 0 -> 1 edges closed by one +1 wrap: the CSR keeps
        # only the faster one (scipy would sum duplicates), and the path
        # read back from the predecessors uses it.
        aux = _hand_aux([0, 0, 1], [1, 1, 0], [-4, -7, 0], [0, 0, 1])
        assert sorted(min_ratio_cycles(aux, [0], 1)[+1]) == [1, 2]

    def test_weights_that_could_overflow_int64_raise(self):
        # |d| = 2^52 on 2 nodes: 2 * n * max |d| = 2^54 passes the 2^53
        # float64 exactness bound, so the search refuses rather than round.
        aux = _hand_aux([0, 1], [1, 0], [-(1 << 52), 0], [0, 1])
        with pytest.raises(SolverError, match="float64"):
            min_ratio_cycles(aux, [0], 1)

    def test_armed_deadline_stops_the_search(self, tradeoff_residual):
        g, ids, res = tradeoff_residual
        aux = _full_radius(res)
        meter = SolveBudget(deadline_seconds=0.0).start()
        with metered(meter), pytest.raises(BudgetExhaustedError) as info:
            min_ratio_cycles(aux, reversed_edge_anchors(res), aux.B)
        assert info.value.reason == "deadline"
        assert "search.ratio_cycle" in str(info.value)

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 8),
        p=st.sampled_from([0.25, 0.35, 0.45, 0.6]),
        cap=st.sampled_from([None, 1, 3, 6]),
    )
    def test_released_ratio_matches_layered_bellman_ford(self, seed, n, p, cap):
        # Costs in 1..6, so the small levels hold cycles of both signs.
        g = anticorrelated_weights(gnp_digraph(n, p, rng=seed), total=7, rng=seed + 1)
        res = build_residual(g, [int(e) for e in range(0, g.m, 3)])
        anchors = reversed_edge_anchors(res)
        cycles_of = _simple_cycles(res.graph) if n <= 6 else None
        note(f"seed={seed} n={n} p={p} cap={cap} residual m={res.graph.m}")
        for B in (1, 2, 5, 8):
            aux = build_aux_shifted(res.graph, B)
            c_max = B if cap is None else min(B, cap)
            got = min_ratio_cycles(aux, anchors, c_max)
            want = _layered_oracle(aux, anchors, c_max)
            note(f"B={B} got={got} want={want}")
            if want == "type0":
                cyc = got[+1]
                assert got[-1] == cyc and is_cycle(aux.graph, cyc)
                assert (aux.orig_eid[cyc] >= 0).all()
                assert int(aux.graph.delay[cyc].sum()) < 0
                continue
            assert set(got) == set(want)
            for sign, cyc in got.items():
                assert is_cycle(aux.graph, cyc)
                wraps = np.asarray(cyc)[aux.orig_eid[cyc] < 0]
                assert len(wraps) == 1
                c = int(aux.wrap_cost[wraps[0]])
                assert c * sign > 0 and abs(c) <= c_max
                assert _ratio_of(aux, cyc) == want[sign]
            if cycles_of is None:
                continue
            # No simple residual cycle through an anchor that H(B) holds
            # with one admitted wrap beats the released ratio.
            for cyc in cycles_of:
                cost = res.graph.cost[cyc]
                total = int(cost.sum())
                if total == 0 or abs(total) > c_max:
                    continue
                tails = res.graph.tail[cyc]
                for i in range(len(cyc)):
                    if int(tails[i]) not in anchors:
                        continue
                    running = np.cumsum(np.roll(cost, -i))
                    if np.abs(running).max() > B:
                        continue
                    sign = 1 if total > 0 else -1
                    ratio = Fraction(int(res.graph.delay[cyc].sum()), abs(total))
                    assert sign in got and want[sign] <= ratio, (cyc, i)

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 9),
        p=st.sampled_from([0.25, 0.35, 0.45, 0.6]),
        every=st.integers(2, 4),
    )
    def test_residual_rule_out_keeps_every_searchable_level(self, seed, n, p, every):
        # The sweep skips (B, sign) when the residual restricted to
        # |c| <= 2B has no cycle with sign * c > 0. That must never drop a
        # level where the one-wrap search, from every vertex, closes a
        # cycle of that sign, and the test must agree with plain
        # Bellman-Ford on the restriction.
        g = anticorrelated_weights(gnp_digraph(n, p, rng=seed), rng=seed + 1)
        res = build_residual(g, [int(e) for e in range(0, g.m, every)]).graph
        note(f"seed={seed} n={n} p={p} every={every} residual m={res.m}")
        test = _level_test(res)
        for B in (1, 2, 3, 5, 8, 13):
            keep = np.abs(res.cost) <= 2 * B
            sub = DiGraph(res.n, res.tail[keep], res.head[keep], res.cost[keep], res.delay[keep])
            aux = build_aux_shifted(res, B)
            cycles = min_ratio_cycles(aux, list(range(res.n)), B)
            for sign in (+1, -1):
                has = test(B, sign)
                cyc = cycles.get(sign)
                searchable = cyc is not None and bool((aux.orig_eid[cyc] < 0).any())
                note(f"B={B} sign={sign} test={has} searchable={searchable}")
                assert has == (find_negative_cycle(sub, weight=-sign * sub.cost) is not None)
                assert has or not searchable


class TestPeel:
    def test_integral_circulation(self):
        g, ids = from_edges([("a", "b", 1, 1), ("b", "a", 1, 1)])
        cycles = peel_fractional_cycles(g, np.array([1.0, 1.0]))
        assert len(cycles) == 1 and sorted(cycles[0]) == [0, 1]

    def test_fractional_overlapping(self):
        # Two cycles sharing vertex a with different mass.
        g, ids = from_edges(
            [
                ("a", "b", 1, 1),  # 0
                ("b", "a", 1, 1),  # 1
                ("a", "c", 1, 1),  # 2
                ("c", "a", 1, 1),  # 3
            ]
        )
        x = np.array([0.75, 0.75, 0.25, 0.25])
        cycles = peel_fractional_cycles(g, x)
        keys = sorted(tuple(sorted(c)) for c in cycles)
        assert keys == [(0, 1), (2, 3)]

    def test_empty(self):
        g, ids = from_edges([("a", "b", 1, 1)])
        assert peel_fractional_cycles(g, np.zeros(1)) == []

    def test_noise_below_tolerance_ignored(self):
        g, ids = from_edges([("a", "b", 1, 1), ("b", "a", 1, 1)])
        assert peel_fractional_cycles(g, np.array([1e-9, 1e-9])) == []


class TestSearchDriver:
    def test_type0_short_circuit(self):
        # Solution on pricey-fast path; the cheap-slow alternative would be
        # a (negative cost, positive delay) swap: no type-0. Make one:
        # parallel edge strictly better in both criteria.
        g, ids = from_edges(
            [
                ("s", "t", 9, 9),  # 0 in solution
                ("s", "t", 1, 1),  # 1 dominating alternative
            ]
        )
        res = build_residual(g, [0])
        stats = SearchStats()
        cands = find_bicameral_candidates(res, stats=stats)
        assert stats.short_circuited_type0
        assert any(
            classify(c.cost, c.delay, -1, None, None) is CycleType.TYPE0 for c in cands
        )
        # Probe-only: no LP was ever built.
        assert stats.lp_solves == 0

    def test_find_cycle_returns_certified_type1(self, ):
        g, ids = from_edges(
            [
                ("s", "a", 1, 9),
                ("a", "t", 1, 9),
                ("s", "b", 5, 1),
                ("b", "t", 5, 1),
            ]
        )
        res = build_residual(g, [0, 1])
        # delta_d = -16 (need to shed 16), delta_c = 100 (plenty of slack).
        picked = find_bicameral_cycle(res, -16, 100, None)
        assert picked is not None
        cand, ctype = picked
        assert ctype is CycleType.TYPE1
        assert cand.cost == 8 and cand.delay == -16

    def test_find_cycle_none_when_no_cycles(self):
        g, ids = from_edges([("s", "a", 1, 1), ("a", "t", 1, 1)])
        res = build_residual(g, [])
        assert find_bicameral_cycle(res, -5, 10, None) is None

    def test_sweep_skips_ruled_out_levels(self, tradeoff_residual):
        # Residual costs 5, 5, -1, -1 and one cycle (cost 8, delay -16), so
        # b_max = 12 and the levels are 1, 2, 4, 8, 12. Sign -1 has no
        # cycle: ruled out everywhere. Sign +1: |c| <= 2 and <= 4 close no
        # cycle (ruled out, H(1), H(2) never built); H(4) cannot close a
        # cost-8 cycle with one wrap; H(8) finds it; H(12) finds it again.
        g, ids, res = tradeoff_residual
        stats = SearchStats()
        with obs.session() as tel:
            cands = find_bicameral_candidates(res, stats=stats)
            snap = obs.snapshot()
        assert [(c.cost, c.delay) for c in cands] == [(8, -16)]
        assert stats.b_values == [1, 2, 4, 8, 12] and stats.lp_solves == 10
        assert stats.aux_nodes_built == res.graph.n * (9 + 17 + 25)
        assert snap.get("search.ratio.level_skips") == 7
        assert snap.get("search.ratio.potential_rounds", 0) > 0
        assert [s.name for s in tel.spans].count("search.ratio_cycle") == 3

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 50_000))
    def test_candidates_are_genuine_cycles(self, seed):
        g = anticorrelated_weights(gnp_digraph(8, 0.4, rng=seed), rng=seed + 1)
        from repro.flow import suurballe_k_paths

        paths = suurballe_k_paths(g, 0, 7, 2)
        if paths is None:
            return
        sol = sorted(e for p in paths for e in p)
        res = build_residual(g, sol)
        cands = find_bicameral_candidates(res)
        for c in cands:
            assert is_cycle(res.graph, list(c.edges))
            assert res.graph.cost_of(list(c.edges)) == c.cost
            assert res.graph.delay_of(list(c.edges)) == c.delay
