"""Tests for phase-1 providers (Lemma 5 and the Lagrangian invariants)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, note, settings, strategies as st

from repro.core import KRSPInstance
from repro.core import phase1 as phase1_module
from repro.core.phase1 import (
    PROVIDERS,
    flow_lp_bound,
    lemma5_score,
    lemma5_walk,
    phase1_lagrangian,
    phase1_lagrangian_lemma5,
    phase1_lp_rounding,
    phase1_minsum,
)
from repro import obs
from repro.core.krsp import solve_krsp
from repro.errors import BudgetExhaustedError, InfeasibleInstanceError, InputError
from repro.eval.workloads import interesting_delay_bound
from repro.flow import decompose_flow, lexicographic_weights, min_cost_k_flow
from repro.graph import (
    anticorrelated_weights,
    from_edges,
    gnp_digraph,
    parallel_chains,
    uniform_weights,
)
from repro.graph.validate import check_disjoint_paths
from repro.lp.milp import solve_krsp_milp
from repro.lp.flow_lp import solve_flow_lp
from repro.paths import rsp_exact
from repro.robustness.budget import SolveBudget, metered


def make_instance(seed, n=11, k=2, D=45):
    g = anticorrelated_weights(gnp_digraph(n, 0.4, rng=seed), rng=seed + 1)
    try:
        return KRSPInstance(g, 0, n - 1, k, D)
    except Exception:
        return None


class TestMinsum:
    def test_cost_is_lower_bound(self):
        for seed in range(15):
            inst = make_instance(seed)
            try:
                res = phase1_minsum(inst)
            except InfeasibleInstanceError:
                continue
            exact = solve_krsp_milp(
                inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
            )
            if exact is None:
                continue
            assert res.solution.cost <= exact.cost
            assert res.cost_lower_bound == res.solution.cost

    def test_infeasible_raises(self):
        g, s, t = parallel_chains(2, 2)
        inst = KRSPInstance(g, s, t, 2, 100)
        bad = KRSPInstance(g, s, t, 2, 100)
        with pytest.raises(InfeasibleInstanceError):
            phase1_minsum(KRSPInstance(g, s, t, 3, 100))

    def test_paths_valid(self):
        inst = make_instance(3)
        res = phase1_minsum(inst)
        check_disjoint_paths(
            inst.graph,
            [list(p) for p in res.solution.paths],
            inst.s,
            inst.t,
            k=inst.k,
        )


class TestLpRounding:
    def test_lemma5_score_bound(self):
        checked = 0
        for seed in range(20):
            inst = make_instance(seed)
            lp = solve_flow_lp(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
            if lp is None or lp.cost <= 0:
                continue
            res = phase1_lp_rounding(inst)
            sol = res.solution
            score = sol.delay / inst.delay_bound + sol.cost / lp.cost
            assert score <= 2 + 1e-6, (seed, score)
            # Lower bound reported matches the LP optimum.
            assert abs(float(res.cost_lower_bound) - lp.cost) < 1e-4
            checked += 1
        assert checked >= 5

    def test_lp_infeasible_raises(self):
        g, s, t = parallel_chains(2, 2)
        import numpy as np

        g = g.with_weights(np.ones(g.m, np.int64), np.full(g.m, 50, np.int64))
        inst = KRSPInstance(g, s, t, 2, 100)  # needs 200 delay
        with pytest.raises(InfeasibleInstanceError):
            phase1_lp_rounding(inst)


class TestLagrangian:
    def test_feasible_min_cost_is_exact(self):
        g, ids = from_edges(
            [("s", "t", 1, 1), ("s", "t", 2, 1), ("s", "t", 9, 9)]
        )
        inst = KRSPInstance(g, ids["s"], ids["t"], 2, 10)
        res = phase1_lagrangian(inst)
        assert res.solution.cost == 3
        assert res.cost_lower_bound == 3

    def test_crossing_flow_cost_under_opt(self):
        checked = 0
        for seed in range(20):
            inst = make_instance(seed)
            exact = solve_krsp_milp(
                inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
            )
            if exact is None:
                continue
            try:
                res = phase1_lagrangian(inst)
            except InfeasibleInstanceError:
                continue
            assert res.solution.cost <= exact.cost
            assert res.cost_lower_bound <= exact.cost
            checked += 1
        assert checked >= 5

    def test_infeasible_structure_raises(self):
        g, s, t = parallel_chains(2, 2)
        with pytest.raises(InfeasibleInstanceError):
            phase1_lagrangian(KRSPInstance(g, s, t, 3, 100))

    def test_min_delay_over_budget_raises(self):
        g, s, t = parallel_chains(2, 2)
        g = g.with_weights(np.ones(g.m, np.int64), np.full(g.m, 50, np.int64))
        with pytest.raises(InfeasibleInstanceError, match="minimum achievable"):
            phase1_lagrangian(KRSPInstance(g, s, t, 2, 100))


def lemma5_instance(seed, n, p, tightness, slack=0):
    """An anticorrelated G(n, p) instance with ``D`` in the binding band
    (``tightness`` 0: the min-cost flow's delay; 1: the minimum delay),
    plus ``slack``; ``None`` when the band is empty."""
    g = anticorrelated_weights(gnp_digraph(n, p, rng=seed), rng=seed + 1)
    D = interesting_delay_bound(g, 0, n - 1, 2, tightness)
    return None if D is None else KRSPInstance(g, 0, n - 1, 2, D + slack)


#: Strategy arguments shared by the Lemma 5 provider properties.
LEMMA5_CASES = dict(
    seed=st.integers(0, 100_000),
    n=st.integers(6, 12),
    p=st.sampled_from([0.35, 0.45, 0.6]),
    tightness=st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9, 1.0]),
)


class TestLagrangianLemma5:
    @settings(max_examples=40)
    @given(**LEMMA5_CASES)
    def test_bound_is_the_flow_lp_optimum(self, seed, n, p, tightness):
        inst = lemma5_instance(seed, n, p, tightness)
        assume(inst is not None)
        res = phase1_lagrangian_lemma5(inst)
        lp = solve_flow_lp(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
        note(f"D={inst.delay_bound} bound={res.cost_lower_bound} HiGHS={lp.cost!r}")
        assert isinstance(res.cost_lower_bound, Fraction)
        assert lemma5_walk(inst).converged
        assert abs(float(res.cost_lower_bound) - lp.cost) <= 1e-6

    @settings(max_examples=40)
    @given(**LEMMA5_CASES)
    def test_start_scores_at_most_two(self, seed, n, p, tightness):
        inst = lemma5_instance(seed, n, p, tightness)
        assume(inst is not None)
        res = phase1_lagrangian_lemma5(inst)
        sol = res.solution
        score = lemma5_score(sol.cost, sol.delay, res.cost_lower_bound, inst.delay_bound)
        note(f"D={inst.delay_bound} start=({sol.cost}, {sol.delay}) "
             f"C_LP={res.cost_lower_bound} score={score}")
        assert isinstance(score, Fraction)
        assert score <= 2
        check_disjoint_paths(
            inst.graph, [list(p) for p in sol.paths], inst.s, inst.t, k=inst.k
        )

    @settings(max_examples=30)
    @given(**LEMMA5_CASES, slack=st.integers(0, 20))
    def test_fitting_min_cost_flow_is_returned_unchanged(
        self, seed, n, p, tightness, slack
    ):
        inst = lemma5_instance(seed, n, p, 0.0, slack)
        assume(inst is not None)
        g = inst.graph
        # The least-delay min-cost flow: cost first, delay breaks ties.
        weight, _ = lexicographic_weights(g.cost, g.delay)
        flow = min_cost_k_flow(g, inst.s, inst.t, inst.k, weight=weight)
        paths, _ = decompose_flow(g, np.nonzero(flow.used)[0], inst.s, inst.t)
        expected = inst.path_set(paths)
        note(f"D={inst.delay_bound} min-cost flow=({expected.cost}, {expected.delay})")
        assert expected.delay <= inst.delay_bound
        res = phase1_lagrangian_lemma5(inst)
        assert res.solution == expected
        assert res.cost_lower_bound == expected.cost

    def test_tight_start_brackets_the_budget(self):
        # Two routes: cheap/slow and fast/costly; D sits between them.
        g, ids = from_edges(
            [("s", "a", 1, 10), ("a", "t", 1, 10), ("s", "t", 10, 1)]
        )
        inst = KRSPInstance(g, ids["s"], ids["t"], 1, 11)
        res = phase1_lagrangian_lemma5(inst)
        # LP: theta * (2, 20) + (1 - theta) * (10, 1) with delay 11.
        assert res.cost_lower_bound == Fraction(2 * 10 + 10 * 9, 19)
        assert res.solution.delay == 1  # the fast route scores lower

    def test_fitting_flow_is_the_least_delay_min_cost_flow(self):
        # Two min-cost routes; the slower one also meets D, but the start
        # is the faster one.
        g, ids = from_edges(
            [("s", "t", 5, 9), ("s", "t", 5, 2), ("s", "t", 7, 1)]
        )
        res = phase1_lagrangian_lemma5(KRSPInstance(g, ids["s"], ids["t"], 1, 10))
        assert (res.solution.cost, res.solution.delay) == (5, 2)
        assert res.cost_lower_bound == 5

    def test_unconverged_walk_runs_no_flow_lp(self, monkeypatch):
        # Seed 11 needs two multiplier steps; a cap of one leaves the walk
        # short of lambda*, so the solver resumes it with flow_lp_bound,
        # warm from the walk's multiplier. No flow LP is solved, and the
        # solve's flows are the walk's and the resumed bound's, no more.
        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=11), rng=12)
        monkeypatch.setattr(phase1_module, "LARAC_MAX_STEPS", 1)
        inst = KRSPInstance(g, 0, 9, 2, 40)

        def augmentations(fn, *args):
            with obs.session() as tel:
                out = fn(*args)
            return out, tel.counters

        walk, walked = augmentations(lemma5_walk, inst)
        assert not walk.converged
        (bound, _), resumed = augmentations(flow_lp_bound, inst, walk.multiplier)
        sol, snap = augmentations(solve_krsp, g, 0, 9, 2, 40)
        assert snap["phase1.larac.unconverged"] == 1
        assert snap.get("lp.flow_lp.solves", 0) == 0
        assert snap["mincost.augmentations"] == (
            walked["mincost.augmentations"] + resumed["mincost.augmentations"]
        )
        assert sol.multiplier == walk.multiplier
        assert sol.cost_lower_bound == bound > walk.bound
        lp = solve_flow_lp(g, 0, 9, 2, 40)
        assert float(sol.cost_lower_bound) <= lp.cost + 1e-6
        assert sol.cost_lower_bound <= solve_krsp_milp(g, 0, 9, 2, 40).cost

    def test_min_delay_over_budget_raises(self):
        g, s, t = parallel_chains(2, 2)
        g = g.with_weights(np.ones(g.m, np.int64), np.full(g.m, 50, np.int64))
        with pytest.raises(InfeasibleInstanceError):
            phase1_lagrangian_lemma5(KRSPInstance(g, s, t, 2, 100))

    def test_infeasible_structure_raises(self):
        g, s, t = parallel_chains(2, 2)
        with pytest.raises(InfeasibleInstanceError):
            phase1_lagrangian_lemma5(KRSPInstance(g, s, t, 3, 100))

    def test_zero_deadline_trips_before_the_first_flow(self, monkeypatch):
        inst = make_instance(3)
        flows = []
        monkeypatch.setattr(
            phase1_module, "min_cost_k_flow", lambda *a, **kw: flows.append(a)
        )
        meter = SolveBudget(deadline_seconds=0.0).start()
        with metered(meter), pytest.raises(BudgetExhaustedError):
            phase1_lagrangian_lemma5(inst)
        assert flows == []


@settings(derandomize=True, max_examples=30)
@given(seed=st.integers(0, 10_000), D=st.integers(5, 40))
def test_k1_walk_brackets_the_rsp_optimum(seed, D):
    # At k = 1 the walk is single-path LARAC: its bound is at most the
    # exact RSP optimum, and its far endpoint is a delay-feasible path
    # costing at least that much.
    g = uniform_weights(gnp_digraph(9, 0.3, rng=seed), (1, 20), (1, 20), rng=seed + 7)
    exact = rsp_exact(g, 0, 8, D)
    inst = KRSPInstance(g, 0, 8, 1, D)
    note(f"seed={seed} D={D} OPT={exact and exact[0]}")
    try:
        walk = lemma5_walk(inst)
    except InfeasibleInstanceError:
        assert exact is None
        return
    assert exact is not None
    fast = walk.fast or walk.cheap
    note(f"bound={walk.bound} fast=({fast.cost}, {fast.delay})")
    assert walk.converged
    assert fast.delay <= D
    assert walk.bound <= exact[0] <= fast.cost


def _bound_or_none(inst, hint):
    try:
        return flow_lp_bound(inst, hint)
    except InfeasibleInstanceError:
        return None


class TestFlowLpBound:
    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(5, 12),
        p=st.sampled_from([0.3, 0.45, 0.6]),
        k=st.integers(1, 3),
        tightness=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        slack=st.integers(-3, 3),
    )
    def test_warm_hints_match_the_cold_walk(self, seed, n, p, k, tightness, slack):
        # Any hint -- none, zero, optimal, too small, too large, huge --
        # gives the cold walk's bound, the flow-LP optimum, and the same
        # infeasibility verdict (fewer than k paths or min delay over D).
        g = anticorrelated_weights(gnp_digraph(n, p, rng=seed), rng=seed + 1)
        D = interesting_delay_bound(g, 0, n - 1, k, tightness)
        inst = KRSPInstance(g, 0, n - 1, k, max(0, (30 if D is None else D) + slack))
        lp = solve_flow_lp(g, inst.s, inst.t, k, inst.delay_bound)
        cold = _bound_or_none(inst, None)
        lam = cold[1] if cold is not None and cold[1] > 0 else Fraction(7, 3)
        hints = [None, Fraction(0), lam, 10 * lam, lam / 10, Fraction(10**40)]
        note(f"D={inst.delay_bound} cold={cold} HiGHS={lp and lp.cost!r}")
        assert (cold is None) == (lp is None)
        for hint in hints:
            got = _bound_or_none(inst, hint)
            note(f"hint={hint} -> {got}")
            if cold is None:
                assert got is None
                continue
            bound, multiplier = got
            assert isinstance(bound, Fraction)
            assert bound == cold[0]
            assert abs(float(bound) - lp.cost) <= 1e-6
            # The returned multiplier is optimal: handed back, it is kept.
            assert flow_lp_bound(inst, multiplier) == (bound, multiplier)

    def test_hand_computed_bound_from_either_side(self):
        # Cheap/slow (2, 20) and fast/costly (10, 1) routes, D = 11:
        # lambda* = 8/19 and C_LP = 110/19.
        g, ids = from_edges(
            [("s", "a", 1, 10), ("a", "t", 1, 10), ("s", "t", 10, 1)]
        )
        inst = KRSPInstance(g, ids["s"], ids["t"], 1, 11)
        expected = (Fraction(110, 19), Fraction(8, 19))
        assert flow_lp_bound(inst) == expected
        for hint in (Fraction(8, 19), Fraction(1, 100), Fraction(100)):
            with obs.session():
                assert flow_lp_bound(inst, hint) == expected
                flows = obs.snapshot().get("mincost.augmentations")
            # Confirming lambda* takes two one-path flows; a wrong hint
            # costs at least one more.
            assert (flows == 2) == (hint == expected[1])

    def test_fitting_min_cost_flow_gives_multiplier_zero(self):
        g, ids = from_edges([("s", "t", 5, 9), ("s", "t", 7, 1)])
        inst = KRSPInstance(g, ids["s"], ids["t"], 1, 9)
        for hint in (None, Fraction(0), Fraction(3), Fraction(10**30)):
            assert flow_lp_bound(inst, hint) == (Fraction(5), Fraction(0))

    def test_infeasible_verdicts_with_a_hint(self):
        g, s, t = parallel_chains(2, 2)
        with pytest.raises(InfeasibleInstanceError):
            flow_lp_bound(KRSPInstance(g, s, t, 3, 100), Fraction(1, 2))
        g = g.with_weights(np.ones(g.m, np.int64), np.full(g.m, 50, np.int64))
        with pytest.raises(InfeasibleInstanceError):
            flow_lp_bound(KRSPInstance(g, s, t, 2, 100), Fraction(1, 2))

    def test_solves_no_lp(self):
        inst = lemma5_instance(11, 10, 0.45, 0.5)
        with obs.session():
            _bound, lam = flow_lp_bound(inst)
            flow_lp_bound(inst, lam / 3)
            snap = obs.snapshot()
        assert snap.get("lp.flow_lp.solves", 0) == 0


def test_unknown_provider_is_an_input_error():
    inst = make_instance(3)
    with pytest.raises(InputError, match="bogus"):
        solve_krsp(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound, phase1="bogus"
        )


def test_registry_complete():
    assert set(PROVIDERS) == {"lagrangian_lemma5", "lp_rounding", "lagrangian", "minsum"}
    for fn in PROVIDERS.values():
        assert callable(fn)
