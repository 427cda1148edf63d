"""Fault-tolerance tests for the parallel harness (ISSUE satellite 1).

The original ``pool.map`` implementation returned one aggregated result, so
a single crashed worker (``BrokenProcessPool``) aborted the sweep and threw
away every record that had already completed. These tests kill, hang, and
blow up workers mid-sweep and assert the new invariant: **one record per
submitted trial, always**, with completed work preserved.
"""

import json
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import obs
from repro.eval import parallel
from repro.eval.parallel import run_trials_parallel
from repro.eval.workloads import er_anticorrelated
from repro.oracle.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    fault_plan_from_dict,
    fault_spec_from_dict,
)


@pytest.fixture(scope="module")
def instances():
    insts = list(er_anticorrelated(n=10, n_instances=4, seed=7))
    insts += list(er_anticorrelated(n=10, n_instances=4, seed=11))
    assert len(insts) >= 4
    return insts


class TestFaultSpecs:
    def test_round_trip(self):
        spec = FaultSpec(kind="kill", at="worker", attempts=(1,))
        assert fault_spec_from_dict(spec.to_dict()) == spec
        plan = FaultPlan(by_seed={3: spec})
        assert fault_plan_from_dict(plan.to_dict()).spec_for(3) == spec
        assert fault_plan_from_dict(None).spec_for(3) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor")

    def test_attempt_filter(self):
        spec = FaultSpec(kind="raise", attempts=(1,))
        assert spec.fires("worker", 1)
        assert not spec.fires("worker", 2)

    def test_point_filter_and_fire(self):
        spec = FaultSpec(kind="raise", at="bicameral")
        assert spec.fires("bicameral.attempt1")
        assert not spec.fires("worker")
        with pytest.raises(InjectedFault):
            spec.fire()


class TestWorkerExceptions:
    def test_foreign_exception_becomes_error_record(self, instances):
        # Regression: non-ReproError worker exceptions used to escape
        # pool.map and abort the entire sweep.
        victim = instances[1].seed
        plan = FaultPlan(by_seed={victim: FaultSpec(kind="raise")})
        records = run_trials_parallel(
            instances, ["bicameral"], max_workers=2, fault_plan=plan
        )
        assert len(records) == len(instances)
        by_seed = {r.seed: r for r in records}
        assert by_seed[victim].status == "error"
        assert "InjectedFault" in by_seed[victim].extra["error"]
        assert all(
            r.status == "ok" for r in records if r.seed != victim
        )

    def test_iteration_limit_becomes_error_record(self, instances):
        victim = instances[0].seed
        plan = FaultPlan(by_seed={victim: FaultSpec(kind="iteration_limit")})
        records = run_trials_parallel(
            instances[:2], ["bicameral"], max_workers=2, fault_plan=plan
        )
        by_seed = {r.seed: r for r in records}
        assert by_seed[victim].status == "error"
        assert "IterationLimitError" in by_seed[victim].extra["error"]


class TestWorkerCrash:
    def test_kill_mid_sweep_preserves_completed_records(self, instances, tmp_path):
        # The headline regression: SIGKILL one worker mid-sweep. With one
        # worker and the victim last, every earlier trial has completed
        # when the pool breaks — those records must survive.
        victim = instances[-1].seed
        plan = FaultPlan(by_seed={victim: FaultSpec(kind="kill")})
        jsonl = tmp_path / "records.jsonl"
        records = run_trials_parallel(
            instances, ["bicameral"], max_workers=1,
            fault_plan=plan, jsonl_path=jsonl,
        )
        assert len(records) == len(instances)  # one record per trial
        by_seed = {r.seed: r for r in records}
        assert by_seed[victim].status == "crashed"
        for inst in instances[:-1]:
            assert by_seed[inst.seed].status == "ok"
        # Incremental persistence captured every finalized record.
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert len(lines) == len(instances)
        assert {l["seed"] for l in lines} == {i.seed for i in instances}

    def test_transient_kill_recovers_via_respawn(self, instances):
        # attempts=(1,) models a transient crash: the respawned pool's
        # retry succeeds, so the sweep ends with zero lost trials.
        victim = instances[1].seed
        plan = FaultPlan(by_seed={victim: FaultSpec(kind="kill", attempts=(1,))})
        records = run_trials_parallel(
            instances, ["bicameral"], max_workers=2, fault_plan=plan
        )
        assert len(records) == len(instances)
        assert all(r.status == "ok" for r in records)

    def test_deterministic_record_order(self, instances):
        # Records come back in (instance, solver) submission order even
        # when completion order is scrambled by a crash + retry.
        victim = instances[0].seed
        plan = FaultPlan(by_seed={victim: FaultSpec(kind="kill", attempts=(1,))})
        records = run_trials_parallel(
            instances, ["bicameral", "minsum"], max_workers=2, fault_plan=plan
        )
        expected = [(i.seed, s) for i in instances for s in ("bicameral", "minsum")]
        assert [(r.seed, r.solver) for r in records] == expected


class _PoolBrokenMidSubmit:
    """In-process stand-in for ``ProcessPoolExecutor``: runs each task at
    submit time, and the first instance breaks after ``BREAK_AFTER``
    submits, as a pool does once a worker dies."""

    BREAK_AFTER = 2
    instances = 0

    def __init__(self, max_workers=None):
        type(self).instances += 1
        self.first = type(self).instances == 1
        self.submitted = 0

    def submit(self, fn, payload):
        if self.first and self.submitted == self.BREAK_AFTER:
            raise BrokenProcessPool("a worker died")
        self.submitted += 1
        fut = Future()
        fut.set_result(fn(payload))
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBrokenSubmit:
    def test_pool_breaking_mid_submit_retries_the_unsubmitted(self, monkeypatch):
        # The tasks never submitted to the broken pool are lost, not an
        # escaping BrokenProcessPool: the respawned round runs them.
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _PoolBrokenMidSubmit)
        monkeypatch.setattr(_PoolBrokenMidSubmit, "instances", 0)
        payloads = [{"i": i} for i in range(5)]
        with obs.session():
            records = parallel.resilient_pool_map(
                lambda p: {"i": p["i"], "attempt": p["attempt"]},
                payloads,
                failure_record=lambda *a: pytest.fail(f"failure record {a}"),
            )
            respawns = obs.snapshot().get("parallel.pool_respawns")
        assert records == [
            {"i": 0, "attempt": 1},
            {"i": 1, "attempt": 1},
            {"i": 2, "attempt": 2},
            {"i": 3, "attempt": 2},
            {"i": 4, "attempt": 2},
        ]
        assert respawns == 1 and _PoolBrokenMidSubmit.instances == 2


class TestTimeouts:
    def test_hung_worker_becomes_timeout_record(self, instances):
        # A sleeping worker trips the harness-side stall guard; everyone
        # else finishes normally.
        victim = instances[1].seed
        plan = FaultPlan(by_seed={victim: FaultSpec(kind="sleep", seconds=5.0)})
        records = run_trials_parallel(
            instances, ["bicameral"], max_workers=2,
            fault_plan=plan, trial_timeout=0.3, stall_grace=0.5,
        )
        assert len(records) == len(instances)
        by_seed = {r.seed: r for r in records}
        assert by_seed[victim].status == "timeout"
        assert all(r.status == "ok" for r in records if r.seed != victim)

    def test_budgeted_bicameral_answers_within_timeout(self, instances):
        # The bicameral solver absorbs the per-trial budget anytime-style:
        # the record is ok (an answer exists) with the solve status noted.
        records = run_trials_parallel(
            instances[:2], ["bicameral"], max_workers=2, trial_timeout=60.0
        )
        assert all(r.status == "ok" for r in records)
        assert all(r.extra.get("solve_status") in ("ok", "degraded",
                                                   "budget_exhausted")
                   for r in records)
