"""Tests for the robustness layer: budgets, anytime solving, fallback chain.

The load-bearing property (ISSUE satellite 5): *any* budget — including a
deadline of (approximately) zero — still yields k edge-disjoint s-t paths
that pass the independent auditor, and an untripped budget changes nothing
(bit-identical paths to the unbudgeted solve).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import solve_krsp
from repro.core.verify import verify_solution
from repro.errors import (
    BudgetExhaustedError,
    InfeasibleInstanceError,
    IterationLimitError,
    ReproError,
)
from repro.eval.workloads import er_anticorrelated, grid_anticorrelated
from repro.oracle.faults import FaultPlan, FaultSpec, InjectedFault
from repro.robustness import (
    STATUS_BUDGET_EXHAUSTED,
    STATUS_OK,
    STATUSES,
    BudgetMeter,
    SolveBudget,
    checkpoint,
    current_meter,
    make_certificate,
    metered,
    solve_with_fallback,
)


def _instances(count=3):
    out = list(er_anticorrelated(n=12, n_instances=count, seed=5))
    out += list(grid_anticorrelated(rows=3, cols=4, n_instances=count, seed=6))
    return out[: count * 2]


class TestSolveBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveBudget(deadline_seconds=-1)
        with pytest.raises(ValueError):
            SolveBudget(max_iterations=-1)
        with pytest.raises(ValueError):
            SolveBudget(max_search_nodes=-1)

    def test_unlimited(self):
        assert SolveBudget().unlimited
        assert not SolveBudget(max_iterations=3).unlimited

    def test_sliced(self):
        b = SolveBudget(deadline_seconds=8.0, max_iterations=5)
        half = b.sliced(0.5)
        assert half.deadline_seconds == 4.0 and half.max_iterations == 5
        assert SolveBudget(max_iterations=5).sliced(0.5).deadline_seconds is None

    def test_meter_iteration_cap_trips_and_sticks(self):
        meter = SolveBudget(max_iterations=2).start()
        meter.charge_iteration()
        with pytest.raises(BudgetExhaustedError) as exc_info:
            meter.charge_iteration()
        assert exc_info.value.reason == "iterations"
        assert meter.exhausted_reason == "iterations"
        # Sticky: later checks keep raising even if limits would now pass.
        with pytest.raises(BudgetExhaustedError):
            meter.check("later")

    def test_meter_zero_deadline_trips(self):
        meter = SolveBudget(deadline_seconds=0.0).start()
        with pytest.raises(BudgetExhaustedError) as exc_info:
            meter.check("now")
        assert exc_info.value.reason == "deadline"

    def test_meter_search_node_cap(self):
        meter = SolveBudget(max_search_nodes=10).start()
        meter.charge_search_nodes(9)
        with pytest.raises(BudgetExhaustedError) as exc_info:
            meter.charge_search_nodes(5)
        assert exc_info.value.reason == "search_nodes"

    def test_usage_snapshot(self):
        meter = SolveBudget(max_iterations=10).start()
        meter.charge_iteration()
        u = meter.usage()
        assert u["iterations_used"] == 1
        assert u["exhausted_reason"] is None

    def test_ambient_checkpoint(self):
        checkpoint("free")  # no meter armed: must be a no-op
        assert current_meter() is None
        meter = SolveBudget(deadline_seconds=0.0).start()
        with metered(meter):
            assert current_meter() is meter
            with pytest.raises(BudgetExhaustedError):
                checkpoint("inside")
        assert current_meter() is None


class TestCertificate:
    def test_make_certificate_fields(self):
        cert = make_certificate(
            cost=10, delay=7, delay_bound=9, lower_bound=5,
            exhausted_reason="deadline",
            usage={"elapsed_seconds": 0.5, "iterations_used": 3,
                   "search_nodes_used": 100, "exhausted_reason": "deadline"},
        )
        assert cert.delay_slack == 2
        assert cert.cost_bound_gap == 5
        assert cert.cost_bound_ratio == 2.0
        assert cert.exhausted_reason == "deadline"
        assert cert.as_dict()["iterations_used"] == 3

    def test_no_lower_bound(self):
        cert = make_certificate(cost=10, delay=12, delay_bound=9, lower_bound=None)
        assert cert.delay_slack == -3
        assert cert.cost_bound_ratio is None


class TestAnytimeSolve:
    @settings(deadline=None, max_examples=12)
    @given(
        st.sampled_from(_instances()),
        st.sampled_from(
            [
                SolveBudget(deadline_seconds=0.0),
                SolveBudget(deadline_seconds=1e-9),
                SolveBudget(max_iterations=0),
                SolveBudget(max_iterations=1),
                SolveBudget(max_search_nodes=1),
                SolveBudget(deadline_seconds=0.0, max_iterations=0),
            ]
        ),
    )
    def test_any_budget_returns_verifiable_paths(self, inst, budget):
        """Satellite 5: exhausted budgets still answer, and the answer is
        independently auditable — k edge-disjoint s-t paths, in budget."""
        sol = solve_krsp(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound, budget=budget
        )
        assert sol.status in STATUSES
        report = verify_solution(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound, sol.paths
        )
        assert report.valid, report.issues
        # The feasibility gate's delay-feasible k-flow is mandatory
        # pre-budget work, so even a zero deadline has a floor that meets D.
        assert report.delay_feasible

    def test_zero_deadline_reports_exhaustion(self):
        inst = _instances()[0]
        sol = solve_krsp(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
            budget=SolveBudget(deadline_seconds=0.0),
        )
        assert sol.status == STATUS_BUDGET_EXHAUSTED
        assert sol.certificate is not None
        assert sol.certificate.exhausted_reason == "deadline"

    @pytest.mark.parametrize("channel", ["budget", "outer_meter"])
    def test_iteration_cap_stops_the_loop(self, channel):
        """The cap reaches the cancellation loop whether the solve arms it
        (``budget=``) or runs under a meter an outer caller installed."""
        inst = _two_iteration_instance()
        args = (inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
        budget = SolveBudget(max_iterations=1)
        if channel == "budget":
            sol = solve_krsp(*args, budget=budget)
        else:
            with metered(budget.start()):
                sol = solve_krsp(*args)
        assert sol.status == STATUS_BUDGET_EXHAUSTED
        assert sol.iterations == 1
        assert sol.certificate.iterations_used == 1
        assert sol.certificate.exhausted_reason == "iterations"

    def test_search_node_cap_stops_the_sweep(self):
        inst = _two_iteration_instance()
        sol = solve_krsp(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
            budget=SolveBudget(max_search_nodes=1),
        )
        assert sol.status == STATUS_BUDGET_EXHAUSTED
        assert sol.certificate.exhausted_reason == "search_nodes"
        assert sol.certificate.search_nodes_used >= 1

    def test_untripped_budget_is_bit_identical(self):
        for inst in _instances():
            base = solve_krsp(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
            budgeted = solve_krsp(
                inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
                budget=SolveBudget(deadline_seconds=3600.0, max_iterations=10**9),
            )
            assert budgeted.status == STATUS_OK
            assert budgeted.paths == base.paths
            assert (budgeted.cost, budgeted.delay) == (base.cost, base.delay)

    def test_untripped_budget_is_bit_identical_on_corpus(self):
        """Satellite 5 on the seeded oracle corpus: a generous budget never
        perturbs the answer on the replayed regression instances either."""
        import pathlib

        from repro.oracle import load_corpus

        corpus_dir = pathlib.Path(__file__).parent / "corpus"
        entries = list(load_corpus(corpus_dir))
        assert entries, "seeded corpus missing"
        budget = SolveBudget(deadline_seconds=3600.0, max_iterations=10**9)
        for entry in entries:
            inst = entry.instance
            try:
                base = solve_krsp(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    solve_krsp(
                        inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
                        budget=budget,
                    )
                continue
            budgeted = solve_krsp(
                inst.graph, inst.s, inst.t, inst.k, inst.delay_bound, budget=budget
            )
            assert budgeted.status == STATUS_OK, entry.name
            assert budgeted.paths == base.paths, entry.name
            assert (budgeted.cost, budgeted.delay) == (base.cost, base.delay)

    def test_no_budget_keeps_legacy_raise(self):
        # Without a budget the pre-anytime contract stands: an exhausted
        # iteration cap raises instead of degrading.
        for inst in _instances(4):
            base = solve_krsp(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
            if base.iterations == 0:
                continue
            with pytest.raises(IterationLimitError):
                solve_krsp(
                    inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
                    max_iterations=0,
                )
            return
        pytest.skip("no instance in the sample needed cancellation")

    def test_infeasible_still_raises_under_budget(self):
        # Budgets never mask infeasibility: the gate runs before the meter.
        import numpy as np

        from repro.eval.workloads import WorkloadInstance
        from repro.graph import parallel_chains

        g, s, t = parallel_chains(2, 2)
        g = g.with_weights(np.ones(g.m, np.int64), np.full(g.m, 9, np.int64))
        with pytest.raises(InfeasibleInstanceError):
            solve_krsp(g, s, t, 2, 10, budget=SolveBudget(deadline_seconds=0.0))


def _two_iteration_instance():
    """An instance whose unbudgeted solve cancels twice, its first search
    reaching the auxiliary-graph sweep."""
    inst = list(er_anticorrelated(n=20, n_instances=12, seed=5))[6]
    base = solve_krsp(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
    assert base.iterations >= 2, "fixture instance no longer needs two steps"
    return inst


class TestFallbackChain:
    def test_healthy_chain_uses_bicameral(self):
        inst = _instances()[0]
        res = solve_with_fallback(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
            deadline_seconds=30.0,
        )
        assert res.tier == "bicameral"
        assert res.status == STATUS_OK
        assert res.solution is not None
        report = verify_solution(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound, res.paths
        )
        assert report.clean, report.issues

    def test_fault_in_bicameral_degrades_to_lp_rounding(self):
        inst = _instances()[0]
        calls = []

        def hook(point):
            calls.append(point)
            if point.startswith("bicameral"):
                raise InjectedFault("boom")

        res = solve_with_fallback(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
            deadline_seconds=30.0, fault_hook=hook,
        )
        assert res.tier == "lp_rounding_2_2"
        assert res.status != STATUS_OK
        # Both bicameral attempts (retry policy), then the next tier.
        assert calls[:2] == ["bicameral.attempt1", "bicameral.attempt2"]
        assert res.tiers[0].outcome == "error" and res.tiers[0].attempts == 2
        report = verify_solution(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound, res.paths
        )
        assert report.valid, report.issues

    def test_transient_fault_retried_within_tier(self):
        inst = _instances()[0]
        plan = FaultPlan(
            by_seed={inst.seed: FaultSpec(kind="raise", at="bicameral",
                                          attempts=(1,))}
        )
        res = solve_with_fallback(
            inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
            fault_hook=plan.hook(inst.seed),
        )
        assert res.tier == "bicameral" and res.status == STATUS_OK
        assert res.tiers[0].attempts == 2

    def test_all_tiers_faulting_raises(self):
        inst = _instances()[0]

        def hook(point):
            raise InjectedFault("everything is broken")

        with pytest.raises(ReproError):
            solve_with_fallback(
                inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
                fault_hook=hook,
            )

    def test_authoritative_infeasibility_stops_chain(self):
        import numpy as np

        from repro.graph import parallel_chains

        g, s, t = parallel_chains(2, 2)
        g = g.with_weights(np.ones(g.m, np.int64), np.full(g.m, 9, np.int64))
        with pytest.raises(InfeasibleInstanceError):
            solve_with_fallback(g, s, t, 2, 10)


class TestCliExitCodes:
    """Satellite 4: 0 = solved, 2 = proven infeasible, 1 = solve failed."""

    @staticmethod
    def _write_instance(tmp_path, feasible=True):
        import json

        import numpy as np

        from repro.graph import parallel_chains
        from repro.graph.io import instance_to_dict

        if feasible:
            inst = _instances()[0]
            d = instance_to_dict(
                inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
            )
        else:
            g, s, t = parallel_chains(2, 2)
            g = g.with_weights(np.ones(g.m, np.int64), np.full(g.m, 9, np.int64))
            d = instance_to_dict(g, s, t, 2, 10)
        path = tmp_path / ("ok.json" if feasible else "infeasible.json")
        path.write_text(json.dumps(d))
        return path

    def test_solved_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["solve", str(self._write_instance(tmp_path))]) == 0
        assert "status=ok" in capsys.readouterr().out

    def test_infeasible_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["solve", str(self._write_instance(tmp_path, feasible=False))])
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err

    def test_solver_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli
        from repro.errors import SolverError

        def boom(*args, **kwargs):
            raise SolverError("LP melted down")

        monkeypatch.setattr(cli, "solve_krsp", boom)
        rc = cli.main(["solve", str(self._write_instance(tmp_path))])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_deadline_flag_prints_certificate(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            ["solve", str(self._write_instance(tmp_path)), "--deadline", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "status=budget_exhausted" in out
        assert "certificate:" in out and "reason=deadline" in out

    def test_fallback_flag(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            ["solve", str(self._write_instance(tmp_path)),
             "--fallback", "--deadline", "30"]
        )
        assert rc == 0
        assert "tier=bicameral" in capsys.readouterr().out
