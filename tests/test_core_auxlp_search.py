"""Tests for the exact ratio search, fractional peeling, and the search driver."""

import math
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
)
from repro.core.auxgraph import AuxGraph
from repro.core.auxlp import (
    MASS_CAP,
    candidates_from_cycles,
    circulation_edges,
    min_ratio_cycle,
    peel_fractional_cycles,
)
from repro.core.search import SearchStats, _level_test
from repro.errors import BudgetExhaustedError, SolverError
from repro.graph import DiGraph, from_edges, gnp_digraph, anticorrelated_weights
from repro.graph.validate import is_cycle
from repro.paths.bellman_ford import find_negative_cycle
from repro.robustness.budget import SolveBudget, metered
from repro._util.intmath import ratio_cmp
from tests.ratio_oracle import solve_ratio_lp


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
    cyc = min_ratio_cycle(aux, sign)
    return None if cyc is None else candidates_from_cycles(aux, res.graph, [cyc])


def _ratio_of(aux, cyc, sign) -> tuple[int, int]:
    """``(d(C), W(C))`` of an H-cycle: delay, and |wrap cost| on chosen wraps."""
    wraps = aux.wrap_cost[cyc]
    return int(aux.graph.delay[cyc].sum()), int(np.abs(wraps[wraps * sign > 0]).sum())


def _hand_aux(tail, head, delay, wrap_cost):
    """An aux graph given edge by edge (non-wraps map to residual edge i)."""
    wrap_cost = np.asarray(wrap_cost)
    m, n = len(tail), max(max(tail), max(head)) + 1
    g = DiGraph(n, tail, head, np.zeros(m, dtype=np.int64), np.asarray(delay))
    orig_eid = np.where(wrap_cost == 0, np.arange(m), -1)
    return AuxGraph(g, n, 1, 0, 1, orig_eid, wrap_cost)


class TestRatioLp:
    """The ratio search over the shifted graph (formerly the ratio LP)."""

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
        assert min_ratio_cycle(build_aux_shifted(res.graph, 2), +1) is None

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
    """Hand-built cases for each step of the Newton search."""

    def test_no_chosen_wrap_returns_none_without_a_pass(self):
        # 0 <-> 1 closed only by a -2 wrap: nothing for the + sign.
        aux = _hand_aux([0, 1], [1, 0], [-3, 0], [0, -2])
        with obs.session() as tel:
            assert min_ratio_cycle(aux, +1) is None
            snap = obs.snapshot()
        assert snap.get("search.ratio.skipped") == 1
        assert "search.ratio.newton_steps" not in snap
        assert "search.ratio_cycle" not in {s.name for s in tel.spans}
        assert sorted(min_ratio_cycle(aux, -1)) == [0, 1]

    def test_cost_zero_negative_delay_cycle_comes_first(self):
        # 0 <-> 1 is a wrap-free cycle of delay -1 (cost 0, type 0); the
        # wrap cycle 0 -> 2 -> 0 has the far better ratio -50/1, and the
        # start pass meets it first.
        aux = _hand_aux([0, 1, 0, 2], [1, 0, 2, 0], [-2, 1, -50, 0], [0, 0, 0, 1])
        with obs.session():
            cyc = min_ratio_cycle(aux, +1)
            snap = obs.snapshot()
        assert sorted(cyc) == [0, 1]
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
        cyc = min_ratio_cycle(aux, +1)
        d, w = _ratio_of(aux, cyc, +1)
        assert Fraction(d, w) == -5

    def test_start_cycle_needs_a_newton_step(self):
        # Under d - M*W the start pass prefers the cycle with the most wrap
        # cost (ratio -10/16); the optimum (-10/2) takes a Newton step.
        g, ids = from_edges(
            [
                ("s", "a", 1, 6),
                ("a", "t", 1, 6),
                ("s", "b", 2, 1),
                ("b", "t", 2, 1),
                ("s", "c", 9, 1),
                ("c", "t", 9, 1),
            ]
        )
        res = build_residual(g, [0, 1])
        aux = _full_radius(res)
        with obs.session():
            cyc = min_ratio_cycle(aux, +1)
            snap = obs.snapshot()
        assert Fraction(*_ratio_of(aux, cyc, +1)) == Fraction(-10, 2)
        assert snap.get("search.ratio.newton_steps", 0) >= 2

    def test_parallel_edges(self):
        # Two parallel 0 -> 1 edges closed by one +1 wrap: the component
        # pass must merge them (scipy's never returns on a CSR row with a
        # duplicate entry), and the search takes the faster one.
        aux = _hand_aux([0, 0, 1], [1, 1, 0], [-4, -7, 0], [0, 0, 1])
        assert circulation_edges(aux, +1).all()
        assert sorted(min_ratio_cycle(aux, +1)) == [1, 2]

    def test_weights_that_could_overflow_int64_raise(self):
        # d = -2^60 on a 2-vertex cycle: the start weights d - M*W reach
        # 2^61, and 3 * 2^61 distances no longer fit the int64 headroom.
        aux = _hand_aux([0, 1], [1, 0], [-(1 << 60), 0], [0, 1])
        with pytest.raises(SolverError, match="int64"):
            min_ratio_cycle(aux, +1)

    def test_armed_deadline_stops_the_search(self, tradeoff_residual):
        g, ids, res = tradeoff_residual
        aux = _full_radius(res)
        meter = SolveBudget(deadline_seconds=0.0).start()
        with metered(meter), pytest.raises(BudgetExhaustedError) as info:
            min_ratio_cycle(aux, +1)
        assert info.value.reason == "deadline"
        assert "search.ratio_cycle" in str(info.value)

    def test_carried_optimum_that_still_holds_takes_one_pass(self, tradeoff_residual):
        # The only residual cycle (cost 8, delay -16) first fits at B = 8;
        # at B = 16 its ratio -2 is still optimal, and the carried start
        # certifies it in the one pass.
        g, ids, res = tradeoff_residual
        low = build_aux_shifted(res.graph, 8)
        start = _ratio_of(low, min_ratio_cycle(low, +1), +1)
        assert Fraction(*start) == -2
        with obs.session() as tel:
            assert min_ratio_cycle(build_aux_shifted(res.graph, 16), +1, start=start) == []
            snap = obs.snapshot()
        assert snap.get("search.ratio.carried") == 1
        assert snap.get("search.ratio.carried_unchanged") == 1
        assert "search.ratio.newton_steps" not in snap  # no pass after the first
        assert [s.name for s in tel.spans].count("search.ratio_cycle") == 1

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(4, 10),
        p=st.sampled_from([0.25, 0.35, 0.45, 0.6]),
    )
    def test_newton_matches_lp_oracle(self, seed, n, p):
        g = anticorrelated_weights(gnp_digraph(n, p, rng=seed), rng=seed + 1)
        res = build_residual(g, [int(e) for e in range(0, g.m, 3)])
        note(f"seed={seed} n={n} p={p} residual m={res.graph.m}")
        # Per sign, the ratio of the last cycle found: by the embedding of
        # H(B) in H(B'), a cycle of every later level, as the sweep uses it.
        carried = {+1: None, -1: None}
        for B in (1, 2, 5):
            aux = build_aux_shifted(res.graph, B)
            for sign in (+1, -1):
                cyc = min_ratio_cycle(aux, sign)
                x = solve_ratio_lp(aux, sign)
                note(f"B={B} sign={sign} cycle={cyc}")
                assert (cyc is None) == (x is None)
                if cyc is None:
                    assert carried[sign] is None
                    continue
                assert is_cycle(aux.graph, cyc)
                assert circulation_edges(aux, sign)[cyc].all()
                # Summed exactly: the oracle may park MASS_CAP mass on a
                # zero-delay cost-0 cycle, whose terms must cancel to 0.
                fun = math.fsum(aux.graph.delay * x)
                d, w = _ratio_of(aux, cyc, sign)
                note(f"  newton d={d} W={w}; oracle fun={fun}")
                if w == 0:
                    # A cost-0 negative-delay cycle: the oracle's optimum
                    # rides it up to the mass cap.
                    assert d < 0 and fun < -MASS_CAP / 2
                    carried[sign] = None
                    continue
                assert float(Fraction(d, w)) == pytest.approx(fun, abs=1e-9)
                # Started from the optimum itself, the search certifies it.
                assert min_ratio_cycle(aux, sign, start=(d, w)) == []
                if carried[sign] is not None:
                    # Started from a lower level's optimum: either that
                    # ratio still is the oracle's optimum, or the search
                    # returns a cycle of the optimal ratio.
                    again = min_ratio_cycle(aux, sign, start=carried[sign])
                    note(f"  carried {carried[sign]} -> {again}")
                    if again == []:
                        assert float(Fraction(*carried[sign])) == pytest.approx(fun, abs=1e-9)
                    else:
                        assert is_cycle(aux.graph, again)
                        assert Fraction(*_ratio_of(aux, again, sign)) == Fraction(d, w)
                carried[sign] = (d, w)

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
        # level whose mask keeps a chosen-sign wrap, and the test must
        # agree with plain Bellman-Ford on the restriction.
        g = anticorrelated_weights(gnp_digraph(n, p, rng=seed), rng=seed + 1)
        res = build_residual(g, [int(e) for e in range(0, g.m, every)]).graph
        note(f"seed={seed} n={n} p={p} every={every} residual m={res.m}")
        test = _level_test(res)
        for B in (1, 2, 3, 5, 8, 13):
            keep = np.abs(res.cost) <= 2 * B
            sub = DiGraph(res.n, res.tail[keep], res.head[keep], res.cost[keep], res.delay[keep])
            aux = build_aux_shifted(res, B)
            for sign in (+1, -1):
                has = test(B, sign)
                mask = circulation_edges(aux, sign)
                searchable = bool((mask & (aux.wrap_cost * sign > 0)).any())
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

    def test_sweep_skips_ruled_out_levels_and_carries_the_optimum(self, tradeoff_residual):
        # Residual costs 5, 5, -1, -1 and one cycle (cost 8, delay -16), so
        # b_max = 12 and the levels are 1, 2, 4, 8, 12. Sign -1 has no
        # cycle: ruled out everywhere. Sign +1: |c| <= 2 and <= 4 close no
        # cycle (ruled out, H(1), H(2) never built); H(4) cannot hold a
        # cost-8 cycle (empty mask); H(8) finds it; H(12) keeps it.
        g, ids, res = tradeoff_residual
        stats = SearchStats()
        with obs.session():
            cands = find_bicameral_candidates(res, stats=stats)
            snap = obs.snapshot()
        assert [(c.cost, c.delay) for c in cands] == [(8, -16)]
        assert stats.b_values == [1, 2, 4, 8, 12] and stats.lp_solves == 10
        assert stats.aux_nodes_built == res.graph.n * (9 + 17 + 25)
        assert snap.get("search.ratio.level_skips") == 7
        assert snap.get("search.ratio.skipped") == 1
        assert snap.get("search.ratio.carried") == 1
        assert snap.get("search.ratio.carried_unchanged") == 1

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
