"""Churn-differential suite for the online warm-start layer (PR 6).

Locks down :mod:`repro.online` end to end:

* property traces — seeded churn sequences replayed through
  :func:`repro.online.resolve`; every intermediate solution must pass the
  independent audit, and warm and scratch results must mutually
  2-approximate (both are certified ``<= 2 * OPT``);
* the fallback taxonomy — each warm-start precondition breach on a
  hand-built instance must fall back cold with the right counted reason;
* persistence — ``state`` and delta files round-trip, tampered input
  degrades to :class:`InputError`, and a reloaded session resumes *warm*;
* crash safety — a journaled resolve replays through
  :func:`repro.robustness.resume_krsp` to the identical solution;
* pinned corpus — three committed churn traces under
  ``tests/corpus/churn/`` with frozen mode/fallback/cost expectations;
* the exact lower bound — refreshes solve no flow LP, each refreshed
  bound is the LP optimum, and the warm multiplier is not persisted;
* telemetry — a resolve under a trace session emits schema-valid spans,
  ``online.*`` counters, and the resolve event.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st

from repro import obs
from repro.core import solve_krsp
from repro.core.phase1 import flow_lp_bound
from repro.core.verify import verify_solution
from repro.errors import GraphError, InfeasibleInstanceError, InputError
from repro.graph import anticorrelated_weights, from_edges, gnp_digraph
from repro.lp.flow_lp import solve_flow_lp
from repro.online import (
    FALLBACK_BUDGET_TIGHTENED,
    FALLBACK_DEMAND_MOVED,
    FALLBACK_NO_PRIOR,
    FALLBACK_REMOVED_SOLUTION_EDGE,
    FALLBACK_WARM_STALLED,
    STATE_SCHEMA,
    DemandMove,
    EdgeAddition,
    EdgeRemoval,
    EdgeReweight,
    InstanceDelta,
    apply_delta,
    delta_from_dict,
    delta_to_dict,
    graphs_equivalent,
    invert_delta,
    load_state,
    resolve,
    save_state,
    start_online,
    state_from_dict,
    state_to_dict,
)
from repro.oracle import (
    generate_churn_trace,
    load_trace,
    make_base_instance,
    replay_instances,
    run_online_differential,
    save_trace,
)
from repro.oracle.churn import _feasible

CHURN_CORPUS = __file__.rsplit("/", 1)[0] + "/corpus/churn"


def _two_route():
    """Two disjoint s-t routes with slack: warm-start friendly."""
    g, ids = from_edges(
        [
            ("s", "a", 1, 4),
            ("a", "t", 1, 8),
            ("a", "t", 6, 1),
            ("s", "b", 3, 2),
            ("b", "t", 3, 2),
        ]
    )
    return g, ids


def _older_residual_payload(state) -> dict:
    """The ``residual`` entry older versions wrote into a state file: the
    Definition-6 residual of the session's solution, arrays as
    ``dtype:base64``."""
    import base64

    from repro.core import build_residual

    def enc(arr):
        arr = np.ascontiguousarray(arr)
        return f"{arr.dtype.str}:{base64.b64encode(arr.tobytes()).decode('ascii')}"

    g = state.instance.graph
    res = build_residual(g, [e for p in state.solution.paths for e in p])
    rg = res.graph
    return {
        "graph": {
            "n": rg.n,
            "tail": enc(rg.tail),
            "head": enc(rg.head),
            "cost": enc(rg.cost),
            "delay": enc(rg.delay),
            "csr_out": None,
            "csr_in": None,
        },
        "reversed_mask": enc(res.reversed_mask),
        "version": 0,
    }


def _feasible_base(substrate: str, seeds) -> "OracleInstance":
    for seed in seeds:
        inst = make_base_instance(substrate, seed)
        if inst is not None and _feasible(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
        ):
            return inst
    raise RuntimeError(f"no feasible {substrate} base in {seeds}")


# ---------------------------------------------------------------------------
# property traces: verify every step, warm/cold mutual guarantee
# ---------------------------------------------------------------------------


class TestChurnProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 20))
    def test_trace_replay_verifies_every_step(self, seed, steps):
        inst = _feasible_base("er", range(seed % 50, seed % 50 + 40))
        trace = generate_churn_trace(inst, steps, rng=seed)
        state = start_online(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
        )
        for _step, delta, g, s, t, k, bound in replay_instances(trace):
            sol = resolve(state, delta)
            # The session instance is array-identical to scratch patching.
            sg = state.instance.graph
            assert np.array_equal(sg.tail, g.tail)
            assert np.array_equal(sg.cost, g.cost)
            assert np.array_equal(sg.delay, g.delay)
            # Independent audit of the returned paths.
            report = verify_solution(g, s, t, k, bound, sol.paths)
            assert report.clean, report.issues
            # Warm/cold mutual guarantee: both are within 2x of OPT, so
            # each is within 2x of the other.
            scratch = solve_krsp(g, s, t, k, bound)
            assert sol.cost <= 2 * scratch.cost
            assert scratch.cost <= 2 * sol.cost
            if sol.cost_lower_bound is not None:
                assert sol.cost >= sol.cost_lower_bound

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_invert_apply_identity(self, seed):
        rng = np.random.default_rng(seed)
        inst = _feasible_base("grid", range(seed % 40, seed % 40 + 30))
        trace = generate_churn_trace(inst, 4, rng=int(rng.integers(1 << 31)))
        g, s, t, k, bound = (
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
        )
        for delta in trace.deltas:
            g1, s1, t1, k1, d1 = apply_delta(g, s, t, k, bound, delta)
            inv = invert_delta(g, s, t, k, bound, delta)
            g2, s2, t2, k2, d2 = apply_delta(g1, s1, t1, k1, d1, inv)
            assert graphs_equivalent(g2, g)
            assert (s2, t2, k2, d2) == (s, t, k, bound)
            g, s, t, k, bound = g1, s1, t1, k1, d1

    def test_online_differential_clean_on_seeded_traces(self):
        for seed in (11, 12):
            inst = _feasible_base("er", range(seed, seed + 40))
            trace = generate_churn_trace(inst, 3, rng=seed)
            diff = run_online_differential(trace)
            assert diff.ok, [f.message for f in diff.failures]
            assert diff.steps_checked == len(trace.deltas)

    def test_generator_is_deterministic(self):
        inst = _feasible_base("er", range(3, 40))
        a = generate_churn_trace(inst, 6, rng=99)
        b = generate_churn_trace(inst, 6, rng=99)
        assert a == b
        assert generate_churn_trace(inst, 6, rng=100) != a


# ---------------------------------------------------------------------------
# fallback taxonomy on hand-built instances
# ---------------------------------------------------------------------------


class TestFallbackTaxonomy:
    def _session(self, delay_bound=16, k=2):
        g, ids = _two_route()
        return start_online(g, ids["s"], ids["t"], k, delay_bound)

    def test_pure_reweight_stays_warm(self):
        state = self._session()
        with obs.session():
            sol = resolve(
                state, InstanceDelta(ops=(EdgeReweight(1, cost=1, delay=13),))
            )
            snap = obs.snapshot()
        assert state.last.mode == "warm" and state.last.fallback is None
        assert state.last.cycles_cancelled >= 1
        assert snap["online.warm"] == 1
        assert snap["online.cycles_cancelled"] >= 1
        assert sol.delay <= 16

    def test_demand_move_falls_back(self):
        state = self._session()
        g = state.instance.graph
        # Retarget t onto vertex "a" (the head of edge 0).
        new_t = int(g.head[0])
        with obs.session():
            resolve(state, InstanceDelta(ops=(DemandMove(t=new_t, k=1),)))
            snap = obs.snapshot()
        assert state.last.mode == "cold"
        assert state.last.fallback == FALLBACK_DEMAND_MOVED
        assert snap[f"online.fallback.{FALLBACK_DEMAND_MOVED}"] == 1

    def test_noop_demand_move_stays_warm(self):
        state = self._session()
        resolve(state, InstanceDelta(ops=(DemandMove(k=2, delay_bound=16),)))
        assert state.last.mode == "warm"

    def test_removed_solution_edge_falls_back(self):
        state = self._session()
        doomed = state.solution.paths[0][-1]  # a -> t edge carrying flow
        with obs.session():
            resolve(state, InstanceDelta(ops=(EdgeRemoval(doomed),)))
            snap = obs.snapshot()
        assert state.last.fallback == FALLBACK_REMOVED_SOLUTION_EDGE
        assert snap[f"online.fallback.{FALLBACK_REMOVED_SOLUTION_EDGE}"] == 1

    def test_idle_edge_removal_stays_warm(self):
        state = self._session()
        used = {e for p in state.solution.paths for e in p}
        idle = next(e for e in range(state.instance.graph.m) if e not in used)
        before = [list(p) for p in state.solution.paths]
        resolve(state, InstanceDelta(ops=(EdgeRemoval(idle),)))
        assert state.last.mode == "warm"
        # Path edge ids were remapped through the removal's id map.
        remap = [[e - (1 if e > idle else 0) for e in p] for p in before]
        assert [list(p) for p in state.solution.paths] == remap

    def test_budget_tighten_past_delay_falls_back(self):
        state = self._session()
        tight = state.solution.delay - 1
        resolve(state, InstanceDelta(ops=(DemandMove(delay_bound=tight),)))
        assert state.last.fallback == FALLBACK_BUDGET_TIGHTENED
        assert state.solution.delay <= tight

    def test_infeasible_then_recover(self):
        state = self._session()
        # Delay-inflate every edge: min total delay for k=2 exceeds D=16.
        ops = tuple(
            EdgeReweight(e, cost=1, delay=50)
            for e in range(state.instance.graph.m)
        )
        with pytest.raises(InfeasibleInstanceError):
            resolve(state, InstanceDelta(ops=ops))
        assert state.solution is None and state.lower_bound is None
        # The session survives; a recovery delta re-solves cold (no_prior).
        ops = tuple(
            EdgeReweight(e, cost=1, delay=1)
            for e in range(state.instance.graph.m)
        )
        with obs.session():
            sol = resolve(state, InstanceDelta(ops=ops))
            snap = obs.snapshot()
        assert sol.status == "ok"
        assert state.last.fallback == FALLBACK_NO_PRIOR
        assert snap[f"online.fallback.{FALLBACK_NO_PRIOR}"] == 1

    def test_delta_validation_errors(self):
        state = self._session()
        m = state.instance.graph.m
        with pytest.raises(InputError):
            resolve(state, InstanceDelta(ops=(EdgeReweight(m, 1, 1),)))
        with pytest.raises(InputError):
            resolve(state, InstanceDelta(ops=(EdgeRemoval(-1),)))

    def test_negative_and_out_of_range_ops_rejected(self):
        state = self._session()
        n = state.instance.graph.n
        with pytest.raises(InputError):
            resolve(state, InstanceDelta(ops=(EdgeReweight(0, cost=-1, delay=1),)))
        with pytest.raises(InputError):
            resolve(state, InstanceDelta(ops=(EdgeAddition(0, 1, cost=1, delay=-2),)))
        with pytest.raises(InputError):
            resolve(state, InstanceDelta(ops=(EdgeAddition(0, n, cost=1, delay=1),)))

    def test_invalid_demand_poisons_session(self):
        state = self._session()
        s = state.instance.s
        with pytest.raises(GraphError):
            resolve(state, InstanceDelta(ops=(DemandMove(t=s),)))
        # The graph patch landed but the instance is nonsense: the warm
        # machinery must be poisoned, not left pointing at stale paths.
        assert state.last.mode == "cold" and state.last.fallback == "invalid"
        assert state.solution is None
        # The session recovers through the no-prior cold path.
        g, ids = _two_route()
        sol = resolve(state, InstanceDelta(ops=(DemandMove(t=ids["t"]),)))
        assert sol.status == "ok"
        assert state.last.fallback == FALLBACK_NO_PRIOR

    def test_exhausted_budget_degrades_anytime(self):
        from repro.robustness import SolveBudget

        state = self._session()
        sol = resolve(
            state,
            InstanceDelta(ops=(EdgeReweight(1, cost=1, delay=13),)),
            budget=SolveBudget(deadline_seconds=0.0),
        )
        # Anytime semantics survive the warm path: the spent budget yields
        # the best-so-far solution, not an exception.
        assert sol.status == "budget_exhausted"
        assert state.last.mode == "warm"

    def test_iteration_limit_stalls_warm_then_cold_finishes(self):
        state = self._session()
        with obs.session():
            sol = resolve(
                state,
                InstanceDelta(ops=(EdgeReweight(1, cost=1, delay=13),)),
                max_iterations=0,
            )
            snap = obs.snapshot()
        assert sol.status == "ok"
        assert state.last.mode == "cold"
        assert state.last.fallback == FALLBACK_WARM_STALLED
        assert snap[f"online.fallback.{FALLBACK_WARM_STALLED}"] == 1


# ---------------------------------------------------------------------------
# persistence: delta wire format, state round-trip, warm continuation
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_delta_round_trip_and_validation(self):
        delta = InstanceDelta(
            ops=(
                EdgeReweight(3, cost=7, delay=2),
                EdgeRemoval(0),
                EdgeAddition(1, 2, 5, 5),
                DemandMove(delay_bound=9),
            ),
            label="wire",
        )
        assert delta_from_dict(delta_to_dict(delta)) == delta
        with pytest.raises(InputError):
            delta_from_dict({"schema": "instance-delta/1", "ops": [{"op": "zap"}]})
        with pytest.raises(InputError):
            delta_from_dict(
                {
                    "schema": "instance-delta/1",
                    "ops": [{"op": "reweight", "edge": True, "cost": 1, "delay": 1}],
                }
            )

    def test_delta_wire_rejects_malformed_payloads(self):
        ok = delta_to_dict(InstanceDelta(ops=(EdgeRemoval(0),)))
        for bad in (
            [],  # not an object
            {**ok, "schema": "instance-delta/999"},
            {**ok, "ops": []},
            {**ok, "ops": "remove 0"},
            {**ok, "label": 7},
            {**ok, "ops": ["remove"]},  # op not an object
            {**ok, "ops": [{"op": "demand"}]},  # demand op changes nothing
            {
                **ok,
                "ops": [{"op": "reweight", "edge": 0, "cost": -3, "delay": 1}],
            },
        ):
            with pytest.raises(InputError):
                delta_from_dict(bad)

    def test_load_delta_rejects_junk_files(self, tmp_path):
        from repro.online import load_delta, save_delta

        delta = InstanceDelta(ops=(EdgeReweight(2, cost=4, delay=6),), label="d")
        save_delta(tmp_path / "d.json", delta)
        assert load_delta(tmp_path / "d.json") == delta
        with pytest.raises(InputError):
            load_delta(tmp_path / "missing.json")
        (tmp_path / "junk.json").write_text("{not json")
        with pytest.raises(InputError):
            load_delta(tmp_path / "junk.json")

    def test_state_round_trip_resumes_warm(self, tmp_path):
        g, ids = _two_route()
        state = start_online(g, ids["s"], ids["t"], 2, 16)
        resolve(state, InstanceDelta(ops=(EdgeReweight(1, cost=1, delay=13),)))
        assert state.last.mode == "warm" and state.last.cycles_cancelled
        path = tmp_path / "state.json"
        save_state(path, state)
        assert "residual" not in json.loads(path.read_text())
        loaded = load_state(path)
        assert loaded.solution.paths == state.solution.paths
        assert loaded.lower_bound == state.lower_bound
        resolve(loaded, InstanceDelta(ops=(EdgeReweight(0, cost=2, delay=4),)))
        assert loaded.last.mode == "warm"

    def test_tampered_state_rejected(self, tmp_path):
        g, ids = _two_route()
        state = start_online(g, ids["s"], ids["t"], 2, 16)
        path = tmp_path / "state.json"
        save_state(path, state)
        data = json.loads(path.read_text())
        data["solution"]["paths"][0] = data["solution"]["paths"][1]
        path.write_text(json.dumps(data))
        with pytest.raises(InputError):
            load_state(path)

    @pytest.mark.parametrize("payload", ["valid", "garbage"])
    def test_older_residual_payload_is_ignored(self, payload):
        """State files written before residuals stopped being persisted
        carry a ``residual`` key; it is ignored, valid or not, and the
        next resolve (a warm one that cancels) answers exactly as it does
        from the same dict without the key."""
        g, ids = _two_route()
        state = start_online(g, ids["s"], ids["t"], 2, 16)
        data = state_to_dict(state)
        assert "residual" not in data
        older = copy.deepcopy(data)
        if payload == "valid":
            older["residual"] = _older_residual_payload(state)
        else:
            older["residual"] = {"graph": None, "reversed_mask": 7}
        answers = []
        for d in (data, older):
            loaded = state_from_dict(d)
            sol = resolve(
                loaded, InstanceDelta(ops=(EdgeReweight(1, cost=1, delay=13),))
            )
            answers.append(
                (loaded.last.mode, loaded.last.cycles_cancelled, sol.paths,
                 sol.cost_lower_bound)
            )
        assert answers[0] == answers[1]
        assert answers[0][0] == "warm" and answers[0][1] == 1

    def test_unknown_provider_rejected(self, tmp_path):
        g, ids = _two_route()
        state = start_online(g, ids["s"], ids["t"], 2, 16)
        path = tmp_path / "state.json"
        save_state(path, state)
        data = json.loads(path.read_text())
        data["phase1"] = "bogus"
        path.write_text(json.dumps(data))
        with pytest.raises(InputError, match="bogus"):
            load_state(path)

    def test_trace_file_round_trip(self, tmp_path):
        inst = _feasible_base("er", range(3, 40))
        trace = generate_churn_trace(inst, 4, rng=5)
        save_trace(tmp_path / "t.json", trace)
        assert load_trace(tmp_path / "t.json") == trace
        with pytest.raises(InputError):
            load_trace(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# crash safety: journaled resolve replays bit-identically
# ---------------------------------------------------------------------------


class TestJournaledResolve:
    def test_journaled_warm_resolve_resumes_identically(self, tmp_path):
        from repro.robustness import resume_krsp

        g, ids = _two_route()
        state = start_online(g, ids["s"], ids["t"], 2, 16)
        journal = tmp_path / "resolve.journal"
        sol = resolve(
            state,
            InstanceDelta(ops=(EdgeReweight(1, cost=1, delay=13),)),
            journal_path=journal,
        )
        assert state.last.mode == "warm"
        resumed = resume_krsp(journal)
        assert resumed.paths == sol.paths
        assert resumed.cost == sol.cost and resumed.delay == sol.delay

    def test_journaled_cold_fallback_resumes_identically(self, tmp_path):
        from repro.robustness import resume_krsp

        g, ids = _two_route()
        state = start_online(g, ids["s"], ids["t"], 2, 16)
        tight = state.solution.delay - 1
        journal = tmp_path / "cold.journal"
        sol = resolve(
            state,
            InstanceDelta(ops=(DemandMove(delay_bound=tight),)),
            journal_path=journal,
        )
        assert state.last.fallback == FALLBACK_BUDGET_TIGHTENED
        resumed = resume_krsp(journal)
        assert resumed.paths == sol.paths
        assert resumed.cost == sol.cost and resumed.delay == sol.delay

    @pytest.mark.parametrize(
        "mode, delta",
        [
            ("warm", InstanceDelta(ops=(EdgeReweight(1, cost=1, delay=13),))),
            ("cold", InstanceDelta(ops=(DemandMove(delay_bound=13),))),
        ],
        ids=["warm", "cold"],
    )
    def test_journaled_resolve_masks_an_ambient_meter(self, tmp_path, mode, delta):
        """Inside an outer budget a journaled resolve, warm or cold, runs
        unmetered, as resume replays it."""
        from repro.robustness import SolveBudget, metered, resume_krsp

        g, ids = _two_route()
        plain = resolve(start_online(g, ids["s"], ids["t"], 2, 16), delta)
        state = start_online(g, ids["s"], ids["t"], 2, 16)
        journal = tmp_path / "metered.journal"
        with metered(SolveBudget(max_iterations=0).start()):
            sol = resolve(state, delta, journal_path=journal)
        assert state.last.mode == mode
        fp = (sol.paths, sol.cost, sol.delay, sol.status)
        assert fp == (plain.paths, plain.cost, plain.delay, plain.status)
        resumed = resume_krsp(journal)
        assert (resumed.paths, resumed.cost, resumed.delay) == fp[:3]

    def test_journaled_resolve_refuses_a_budget(self, tmp_path):
        """A journal replays only a deterministic solve, so a budgeted
        journaled resolve is refused — before the session or the disk
        changes — rather than run with its budget dropped on the cold path."""
        from repro.robustness import SolveBudget

        g, ids = _two_route()
        state = start_online(g, ids["s"], ids["t"], 2, 16)
        before = state_to_dict(state)
        journal = tmp_path / "budgeted.journal"
        with pytest.raises(InputError, match="takes no budget"):
            resolve(
                state,
                InstanceDelta(
                    ops=(DemandMove(delay_bound=state.solution.delay - 1),)
                ),
                budget=SolveBudget(max_iterations=0),
                journal_path=journal,
            )
        assert state_to_dict(state) == before
        assert not journal.exists()


# ---------------------------------------------------------------------------
# pinned corpus replay
# ---------------------------------------------------------------------------

# (mode, fallback, cost, delay, status) per delta, frozen at pin time.
PINNED = {
    "er_warm": [
        ("warm", None, 8, 7, "ok"),
        ("warm", None, 8, 7, "ok"),
        ("warm", None, 8, 7, "ok"),
        ("warm", None, 8, 7, "ok"),
        ("warm", None, 30, 7, "ok"),
        ("warm", None, 30, 7, "ok"),
    ],
    "grid_structural": [
        ("warm", None, 106, 93, "ok"),
        ("warm", None, 106, 93, "ok"),
        ("warm", None, 106, 93, "ok"),
        ("cold", "budget_tightened", 122, 92, "ok"),
        ("warm", None, 117, 91, "ok"),
        ("warm", None, 117, 91, "ok"),
    ],
    "mixed_fallback": [
        ("warm", None, 27, 28, "ok"),
        ("warm", None, 27, 28, "ok"),
        ("warm", None, 27, 28, "ok"),
        ("warm", None, 27, 28, "ok"),
        ("cold", "demand_moved", 5, 6, "ok"),
        ("warm", None, 5, 6, "ok"),
        ("warm", None, 5, 6, "ok"),
        ("warm", None, 5, 6, "ok"),
    ],
}


class TestPinnedChurnCorpus:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_trace_replays_to_expectations(self, name):
        trace = load_trace(f"{CHURN_CORPUS}/{name}.json")
        inst = trace.instance
        state = start_online(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
        )
        got = []
        for delta in trace.deltas:
            sol = resolve(state, delta)
            got.append(
                (
                    state.last.mode,
                    state.last.fallback,
                    sol.cost,
                    sol.delay,
                    sol.status,
                )
            )
        assert got == PINNED[name]
        # Every intermediate also passes the independent audit.
        for _step, _d, g, s, t, k, bound in replay_instances(trace):
            pass
        report = verify_solution(g, s, t, k, bound, state.solution.paths)
        assert report.clean, report.issues


# ---------------------------------------------------------------------------
# the exact lower bound: warm Lagrangian refreshes, no flow LP
# ---------------------------------------------------------------------------


class TestExactLowerBound:
    @staticmethod
    def _session():
        # Base 2 under churn seed 1 stays warm for 12 steps; its 11 bound
        # refreshes keep the carried multiplier 6 times (the first starts
        # from the cold solve's 5/12), run cold 3 times (multiplier 0) and
        # resume the walk twice. Of the 6, 4 are read from the kept face
        # with no flow and 2 are confirmed by two flows.
        inst = _feasible_base("er", [2])
        trace = generate_churn_trace(inst, 12, rng=1)
        state = start_online(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
        return state, trace

    def test_churn_refreshes_solve_no_flow_lp(self):
        state, trace = self._session()
        seen = []
        with obs.session():
            for delta in trace.deltas:
                sol = resolve(state, delta)
                seen.append((sol, state.lower_bound, state.last))
            snap = obs.snapshot()
        assert snap.get("lp.flow_lp.solves", 0) == 0
        assert snap["online.lb_refresh"] == 11
        assert snap["online.lb_refresh.multiplier_kept"] == 2
        assert snap["online.lb_refresh.certified"] == 4
        assert snap["online.lb_refresh.cold"] == 3
        for (sol, lb, last), (_i, _d, g, s, t, k, bound) in zip(
            seen, replay_instances(trace)
        ):
            lp = solve_flow_lp(g, s, t, k, bound)
            scratch = solve_krsp(g, s, t, k, bound)
            assert isinstance(lb, Fraction)
            if last.lb_refreshed:
                # Exact, and equal to the cold solve's Lagrangian bound.
                assert lb == scratch.cost_lower_bound
                assert abs(float(lb) - lp.cost) <= 1e-6
            else:
                # A hardening delta reuses a bound the optimum can only
                # have risen above.
                assert lb <= scratch.cost_lower_bound
            # The (1, 2) guarantee against the cold replay's bound.
            assert sol.status == "ok"
            assert sol.delay <= bound
            assert Fraction(sol.cost) <= 2 * scratch.cost_lower_bound

    def test_first_refresh_starts_from_the_cold_solves_multiplier(self):
        state, trace = self._session()
        assert state.multiplier == state.solution.multiplier == Fraction(5, 12)
        # Its first delta softens the instance, so the bound is refreshed.
        with obs.session():
            resolve(state, trace.deltas[0])
            snap = obs.snapshot()
        assert state.last.lb_refreshed
        assert snap["online.lb_refresh"] == 1
        assert snap.get("online.lb_refresh.cold", 0) == 0
        cold, _ = flow_lp_bound(state.instance)
        assert state.lower_bound == cold

    def test_multiplier_is_not_persisted(self, tmp_path):
        state, trace = self._session()
        for delta in trace.deltas[:4]:
            resolve(state, delta)
        assert state.multiplier
        path = tmp_path / "state.json"
        save_state(path, state)
        data = json.loads(path.read_text())
        assert data["schema"] == STATE_SCHEMA
        assert set(data) == {
            "schema", "phase1", "instance", "lower_bound", "solution"
        }
        loaded = load_state(path)
        assert loaded.multiplier is None
        # A softening delta: both sessions refresh; the reloaded one
        # starts its walk cold and reaches the same exact bound.
        relaxed = loaded.instance.delay_bound + 3
        softening = InstanceDelta(ops=(DemandMove(delay_bound=relaxed),))
        kept = copy.deepcopy(state)
        resolve(kept, softening)
        with obs.session():
            resolve(loaded, softening)
            snap = obs.snapshot()
        assert snap["online.lb_refresh.cold"] == 1
        assert loaded.last.lb_refreshed and kept.last.lb_refreshed
        assert loaded.lower_bound == kept.lower_bound
        assert loaded.multiplier is not None


# ---------------------------------------------------------------------------
# the lambda-face certificate: bound refreshes with no flow
# ---------------------------------------------------------------------------


def _face_route():
    """Three s-t routes, k = 1: cheap/slow ``s-a-t`` (cost 8, delay 10),
    fast/dear ``s-b-t`` (10, 2) and dominated ``s-c-t`` (20, 20). For
    ``2 <= D <= 10`` the flow LP mixes the first two at ``lambda* = 1/4``
    (blend ``4c + d`` of 42 on both)."""
    return from_edges(
        [
            ("s", "a", 4, 5),
            ("a", "t", 4, 5),
            ("s", "b", 5, 1),
            ("b", "t", 5, 1),
            ("s", "c", 10, 10),
            ("c", "t", 10, 10),
        ]
    )


def _refresh_matches_the_flows(state, hint):
    """The session's refreshed bound and multiplier are what the flows
    answer warm from ``hint``, and the bound is the cold flow-LP optimum."""
    warm = flow_lp_bound(state.instance, hint)
    assert (state.lower_bound, state.multiplier) == warm
    assert state.lower_bound == flow_lp_bound(state.instance)[0]
    assert isinstance(state.lower_bound, Fraction)


class TestLambdaFace:
    @staticmethod
    def _session():
        """A session holding a face: its first refresh (``D`` relaxed from
        6 to 7) keeps ``lambda = 1/4`` with two flows. Its solution is
        ``s-b-t``."""
        g, ids = _face_route()
        state = start_online(g, ids["s"], ids["t"], 1, 6)
        assert state.multiplier == Fraction(1, 4) and state.face is None
        assert state.solution.paths == [[2, 3]]
        resolve(state, InstanceDelta(ops=(DemandMove(delay_bound=7),)))
        assert state.face is not None
        assert (state.lower_bound, state.multiplier) == (
            Fraction(35, 4), Fraction(1, 4)
        )
        return state, ids

    @staticmethod
    def _refresh(state, *ops):
        hint = state.multiplier
        with obs.session():
            resolve(state, InstanceDelta(ops=ops))
            snap = obs.snapshot()
        assert state.last.mode == "warm" and state.last.lb_refreshed
        _refresh_matches_the_flows(state, hint)
        return snap

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.integers(4, 16))
    def test_every_refresh_equals_the_flows(self, seed, steps):
        inst = _feasible_base("er", range(seed % 50, seed % 50 + 40))
        trace = generate_churn_trace(inst, steps, rng=seed)
        note(f"base seed {inst.seed}, churn seed {seed}, {steps} steps")
        state = start_online(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
        for i, delta in enumerate(trace.deltas):
            note(f"step {i}: {delta_to_dict(delta)}")
            hint = state.multiplier
            try:
                resolve(state, delta)
            except InfeasibleInstanceError:
                assert state.face is None
                continue
            if state.last.mode == "warm" and state.last.lb_refreshed:
                _refresh_matches_the_flows(state, hint)
            if state.last.mode == "cold":
                assert state.face is None
            if state.face is not None:
                assert state.face.multiplier == state.multiplier

    def test_a_delta_inside_the_bracket_is_certified_without_a_flow(self):
        state, _ids = self._session()
        face = state.face
        snap = self._refresh(state, DemandMove(delay_bound=9))
        assert snap["online.lb_refresh.certified"] == 1
        assert snap.get("mincost.augmentations", 0) == 0
        assert snap.get("online.lb_refresh.multiplier_kept", 0) == 0
        assert state.face is face
        assert state.lower_bound == Fraction(33, 4)

    def test_a_used_edge_removed_drops_the_face(self):
        state, _ids = self._session()
        # s-a carries the least-cost face flow but not the solution (s-b-t).
        snap = self._refresh(state, EdgeRemoval(0), DemandMove(delay_bound=8))
        assert snap.get("online.lb_refresh.certified", 0) == 0
        assert state.multiplier == 0  # only s-b-t and s-c-t remain

    def test_an_unused_edge_made_too_cheap_drops_the_face(self):
        state, _ids = self._session()
        snap = self._refresh(
            state, EdgeReweight(4, cost=0, delay=0), EdgeReweight(5, cost=6, delay=6)
        )
        assert snap.get("online.lb_refresh.certified", 0) == 0
        # The stale face would have said 35/4; s-c-t now fits D at cost 6.
        assert (state.lower_bound, state.multiplier) == (6, 0)

    def test_an_added_edge_with_a_negative_reduced_cost_drops_the_face(self):
        state, ids = self._session()
        snap = self._refresh(state, EdgeAddition(ids["s"], ids["t"], 6, 6))
        assert snap.get("online.lb_refresh.certified", 0) == 0
        assert (state.lower_bound, state.multiplier) == (6, 0)

    def test_a_used_edge_made_dearer_drops_the_face(self):
        state, _ids = self._session()
        snap = self._refresh(
            state, EdgeReweight(1, cost=5, delay=5), DemandMove(delay_bound=8)
        )
        assert snap.get("online.lb_refresh.certified", 0) == 0
        # s-a-t now costs 9: lambda* falls to 1/8.
        assert (state.lower_bound, state.multiplier) == (
            Fraction(37, 4), Fraction(1, 8)
        )

    def test_a_secondary_total_reaching_its_scale_drops_the_face(self):
        state, ids = self._session()
        scale = state.face.low.scale
        # An unused edge of huge delay keeps complementary slackness, but
        # lifts the instance's delay total past the least-delay flow's scale.
        snap = self._refresh(state, EdgeAddition(ids["c"], ids["t"], 0, scale))
        assert snap.get("online.lb_refresh.certified", 0) == 0
        assert snap["online.lb_refresh.multiplier_kept"] == 1
        assert state.face is not None and state.face.low.scale > scale

    def test_d_leaving_the_bracket_drops_the_face(self):
        state, _ids = self._session()
        snap = self._refresh(state, DemandMove(delay_bound=11))
        assert snap.get("online.lb_refresh.certified", 0) == 0
        assert (state.lower_bound, state.multiplier) == (8, 0)
        assert state.face is None

    def test_a_moved_demand_or_a_raising_resolve_drops_the_face(self):
        state, _ids = self._session()
        resolve(state, InstanceDelta(ops=(DemandMove(k=2, delay_bound=20),)))
        assert state.last.fallback == FALLBACK_DEMAND_MOVED
        assert state.face is None
        state, _ids = self._session()
        with pytest.raises(InputError):
            resolve(state, InstanceDelta(ops=(EdgeReweight(99, cost=1, delay=1),)))
        assert state.face is None

    def test_the_face_is_not_persisted(self, tmp_path):
        state, _ids = self._session()
        path = tmp_path / "state.json"
        save_state(path, state)
        assert "face" not in json.loads(path.read_text())
        assert load_state(path).face is None


# ---------------------------------------------------------------------------
# telemetry: counters and trace schema
# ---------------------------------------------------------------------------


class TestOnlineTelemetry:
    def test_resolve_trace_validates(self, tmp_path):
        from repro.obs.report import load_trace as load_tel
        from repro.obs.report import validate_trace

        g, ids = _two_route()
        trace_path = tmp_path / "online.jsonl"
        state = start_online(g, ids["s"], ids["t"], 2, 16)
        with obs.session(trace_path=trace_path):
            resolve(
                state, InstanceDelta(ops=(EdgeReweight(1, cost=1, delay=13),))
            )
        tel = load_tel(trace_path)
        assert validate_trace(tel) == []
        kinds = {ev.get("kind") for ev in tel.events}
        assert "online.resolve" in kinds
        assert "cancel.iteration" in kinds  # warm cancellation is traced

    def test_delta_applied_counter_counts_ops(self):
        g, ids = _two_route()
        state = start_online(g, ids["s"], ids["t"], 2, 16)
        with obs.session():
            resolve(
                state,
                InstanceDelta(
                    ops=(
                        EdgeReweight(0, cost=1, delay=4),
                        EdgeAddition(0, 1, 9, 9),
                    )
                ),
            )
            snap = obs.snapshot()
        assert snap["online.delta_applied"] == 2
        assert snap["online.ops.reweight"] == 1
        assert snap["online.ops.add"] == 1
        assert snap["online.resolves"] == 1
