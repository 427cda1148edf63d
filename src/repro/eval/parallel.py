"""Fault-tolerant process-parallel trial execution for the evaluation harness.

Parameter sweeps are embarrassingly parallel across (instance, solver)
pairs; per the HPC guides, profile first — here the hot spots are HiGHS
LP/MILP solves, which release no useful parallelism within a process, so
scaling out across processes is the right lever. This module mirrors
:func:`repro.eval.harness.run_trials` with a :class:`ProcessPoolExecutor`.

Unlike a bare ``pool.map`` (whose single aggregated result meant one crashed
worker lost *every* record of a sweep, including trials that had already
finished), trials are submitted individually and collected as they
complete, so the harness guarantees **one record per submitted trial**:

* a worker exception of any kind becomes a ``status="error"`` record
  (the worker body catches everything — a trial failing is a data point);
* a per-trial ``trial_timeout`` arms a cooperative
  :class:`~repro.robustness.SolveBudget` inside the worker (``"timeout"``
  records) and a harness-side stall guard for workers that stop
  responding entirely;
* a worker death (OOM kill, segfault, injected ``SIGKILL``) breaks the
  whole pool — completed records are kept, the pool is respawned **once**
  and the lost trials retried; trials lost again come back as
  ``status="crashed"`` records;
* with ``jsonl_path`` every record is appended (and flushed) the moment it
  is finalized, so even a harness-process crash loses at most the
  in-flight trials.

Workers receive (instance payload, solver name) and resolve the solver from
a registry — functions themselves are not pickled, so lambdas and closures
on the caller's side stay usable via the named indirection. Deterministic
fault injection for tests rides the same payloads: see
:mod:`repro.oracle.faults`.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Iterable

from repro import obs
from repro._util.atomicio import DurableAppender, iter_jsonl, repair_jsonl_tail
from repro.errors import (
    BudgetExhaustedError,
    InfeasibleInstanceError,
    ReproError,
    SolveInterrupted,
)
from repro.eval.harness import TrialRecord
from repro.eval.workloads import WorkloadInstance
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.oracle.faults import FaultPlan, fault_spec_from_dict
from repro.robustness.budget import SolveBudget, metered
from repro.robustness.signals import GracefulShutdown

#: Worker-side registry of named solver adapters. Populated at import time;
#: extend with :func:`register_solver` before launching a pool (the
#: registration must happen at module import so forked/spawned workers see
#: it — register at module scope in your driver script).
_SOLVER_REGISTRY: dict[str, Callable] = {}


def register_solver(name: str, fn: Callable) -> None:
    """Register a picklable-by-name solver adapter.

    ``fn(graph, s, t, k, delay_bound) -> (cost, delay, extra_dict)``. The
    harness's per-trial timeout reaches the adapter as the ambient budget
    meter (see :func:`repro.robustness.checkpoint`).
    """
    _SOLVER_REGISTRY[name] = fn


def _builtin_bicameral(g, s, t, k, bound):
    from repro.core.krsp import solve_krsp

    sol = solve_krsp(g, s, t, k, bound)
    return sol.cost, sol.delay, {
        "iterations": sol.iterations,
        "solve_status": sol.status,
    }


def _builtin_baseline(which: str):
    def run(g, s, t, k, bound):
        from repro.baselines import BASELINES

        res = BASELINES[which](g, s, t, k, bound)
        return res.cost, res.delay, {"meets_delay_bound": res.meets_delay_bound}

    return run


register_solver("bicameral", _builtin_bicameral)
for _name in ("minsum", "lp_rounding_2_2", "orda_sprintson_style", "greedy_sequential"):
    register_solver(_name, _builtin_baseline(_name))


def _base_record(payload: dict) -> dict:
    """Record fields derivable without running (or even deserializing) the
    trial — used for both worker records and harness-side failure records."""
    inst_d = payload["inst"]
    return {
        "workload": inst_d["name"],
        "seed": inst_d["seed"],
        "solver": payload["solver"],
        "n": inst_d["graph"]["n"],
        "m": len(inst_d["graph"]["tail"]),
        "k": inst_d["k"],
        "delay_bound": inst_d["delay_bound"],
    }


def _run_one(payload: dict) -> dict:
    """Worker body: rebuild the instance, run the named solver, and return
    a plain-dict record (keeps pickling cheap and version-stable).

    Catches *everything*: a worker must never poison the pool with an
    exception it could have reported as data. (A ``kill`` fault bypasses
    this by construction — that is the crash path the harness recovers.)
    """
    record = _base_record(payload)
    inst_d = payload["inst"]
    trial_timeout = payload.get("trial_timeout")
    start = time.perf_counter()
    status: str = "error"
    cost = delay = None
    extra: dict[str, Any] = {}
    counters: dict[str, int] = {}
    try:
        fault_d = payload.get("fault")
        if fault_d is not None:
            spec = fault_spec_from_dict(fault_d)
            if spec.fires("worker", payload.get("attempt", 1)):
                spec.fire()  # "kill" does not return
        g = graph_from_dict(inst_d["graph"])
        s, t, k, bound = inst_d["s"], inst_d["t"], inst_d["k"], inst_d["delay_bound"]
        fn = _SOLVER_REGISTRY[payload["solver"]]
        meter = (
            SolveBudget(deadline_seconds=trial_timeout).start()
            if trial_timeout is not None
            else None
        )
        with obs.session(label=f"trial {payload['solver']}") as tel:
            with metered(meter):
                cost, delay, extra = fn(g, s, t, k, bound)
        counters = dict(tel.counters)
        status = "ok"
    except InfeasibleInstanceError as exc:
        extra = {"error": f"{type(exc).__name__}: {exc}"}
        status = "infeasible"
    except BudgetExhaustedError as exc:
        extra = {"error": f"{type(exc).__name__}: {exc}"}
        status = "timeout"
    except ReproError as exc:
        extra = {"error": f"{type(exc).__name__}: {exc}"}
        status = "error"
    except Exception as exc:  # noqa: BLE001 — never poison the pool
        extra = {"error": f"{type(exc).__name__}: {exc}"}
        status = "error"
    record.update(
        status=status,
        cost=cost,
        delay=delay,
        seconds=time.perf_counter() - start,
        extra=extra,
        counters=counters,
    )
    return record


def _trial_key(rec: dict) -> tuple:
    """Identity of one trial for resume matching (everything the harness
    knows about a trial before running it)."""
    return (
        rec["workload"], rec["seed"], rec["solver"],
        rec["n"], rec["m"], rec["k"], rec["delay_bound"],
    )


def run_trials_parallel(
    instances: Iterable[WorkloadInstance],
    solver_names: list[str],
    max_workers: int | None = None,
    *,
    trial_timeout: float | None = None,
    stall_grace: float = 5.0,
    fault_plan: FaultPlan | None = None,
    jsonl_path: str | Path | None = None,
    resume: bool = False,
    shutdown: GracefulShutdown | None = None,
) -> list[TrialRecord]:
    """Parallel counterpart of :func:`repro.eval.harness.run_trials`.

    ``solver_names`` must be registered (built-ins: ``bicameral`` plus the
    four baselines). Records come back in deterministic (instance, solver)
    order regardless of completion order, one per submitted trial, always
    — see the module docstring for the failure taxonomy.

    Parameters
    ----------
    trial_timeout:
        Per-trial wall-clock budget in seconds. Arms a cooperative
        :class:`~repro.robustness.SolveBudget` inside the worker; the
        bicameral solver then answers anytime-style (``status="ok"`` with
        a degraded certificate), baselines abort with ``status="timeout"``.
    stall_grace:
        Harness-side guard: if no trial completes for
        ``trial_timeout + stall_grace`` seconds, the remaining trials are
        recorded as ``"timeout"`` and abandoned (covers workers stuck in
        non-cooperative code). Only active when ``trial_timeout`` is set.
    fault_plan:
        Deterministic fault injection keyed by instance seed
        (:class:`repro.oracle.faults.FaultPlan`) — test seam.
    jsonl_path:
        Append each record to this JSONL file the moment it is finalized.
        Appends are fsync'd (:class:`~repro._util.atomicio.DurableAppender`)
        and a torn trailing line from a previously crashed harness is
        repaired before appending, so the file is always parseable JSONL.
    resume:
        With ``jsonl_path``: records already durable in the file are
        matched to this run's trials by identity (workload, seed, solver,
        instance shape) and **not** re-run; only trials without a durable
        record execute. A sweep killed halfway therefore continues where
        it stopped (``repro sweep --jsonl F --resume``).
    shutdown:
        Active :class:`~repro.robustness.GracefulShutdown`. On the first
        SIGINT/SIGTERM the harness stops launching work, keeps every
        already-durable record, and raises
        :class:`~repro.errors.SolveInterrupted` (in-flight trials get no
        record, so a later ``resume`` re-runs exactly those).
    """
    payloads: list[dict] = []
    for inst in instances:
        inst_d = {
            "graph": graph_to_dict(inst.graph),
            "s": inst.s,
            "t": inst.t,
            "k": inst.k,
            "delay_bound": inst.delay_bound,
            "name": inst.name,
            "seed": inst.seed,
        }
        spec = fault_plan.spec_for(inst.seed) if fault_plan is not None else None
        for name in solver_names:
            if name not in _SOLVER_REGISTRY:
                raise KeyError(f"solver {name!r} is not registered")
            payloads.append(
                {
                    "inst": inst_d,
                    "solver": name,
                    "trial_timeout": trial_timeout,
                    "fault": spec.to_dict() if spec is not None else None,
                }
            )

    # Records restored from a previous (crashed/interrupted) run.
    loaded: list[dict | None] = [None] * len(payloads)
    if jsonl_path is not None and Path(jsonl_path).exists():
        dropped = repair_jsonl_tail(jsonl_path)
        if dropped:
            obs.add("parallel.jsonl_torn_bytes_dropped", dropped)
        if resume:
            durable: dict[tuple, list[dict]] = {}
            for rec in iter_jsonl(jsonl_path):
                durable.setdefault(_trial_key(rec), []).append(rec)
            for i, payload in enumerate(payloads):
                bucket = durable.get(_trial_key(_base_record(payload)))
                if bucket:
                    loaded[i] = bucket.pop(0)
            obs.add("parallel.trials_resumed",
                    sum(1 for r in loaded if r is not None))

    to_run = [i for i, rec in enumerate(loaded) if rec is None]
    results: list[dict | None] = list(loaded)
    sink = (
        DurableAppender(jsonl_path) if jsonl_path is not None else None
    )

    def on_record(index: int, record: dict) -> None:
        results[to_run[index]] = record
        if sink is not None:
            sink.append_json(record)

    try:
        fresh = resilient_pool_map(
            _run_one,
            [payloads[i] for i in to_run],
            max_workers=max_workers,
            task_timeout=trial_timeout,
            stall_grace=stall_grace,
            failure_record=_trial_failure_record,
            on_record=on_record,
            shutdown=shutdown,
        )
    except SolveInterrupted as exc:
        # Durable records are already on disk; tell the caller where.
        raise SolveInterrupted(
            exc.signum,
            checkpoint_path=str(jsonl_path) if jsonl_path is not None else None,
        ) from None
    finally:
        if sink is not None:
            sink.close()
    for j, i in enumerate(to_run):
        results[i] = fresh[j]
    assert all(r is not None for r in results)
    return [TrialRecord(**r) for r in results]


def _trial_failure_record(
    payload: dict, kind: str, detail: str, seconds: float
) -> dict:
    """Map generic pool-failure kinds onto the trial-record status taxonomy."""
    rec = _base_record(payload)
    status = {"stalled": "timeout", "crashed": "crashed", "error": "error"}[kind]
    rec.update(
        status=status,
        cost=None,
        delay=None,
        seconds=seconds,
        extra={"error": detail},
        counters={},
    )
    return rec


def resilient_pool_map(
    fn: Callable[[dict], dict],
    payloads: list[dict],
    *,
    max_workers: int | None = None,
    task_timeout: float | None = None,
    stall_grace: float = 5.0,
    failure_record: Callable[[dict, str, str, float], dict],
    on_record: Callable[[int, dict], None] | None = None,
    shutdown: GracefulShutdown | None = None,
) -> list[dict]:
    """Generic fault-tolerant process-pool map: one record per payload.

    The machinery behind :func:`run_trials_parallel`, reusable for any
    picklable ``fn(payload) -> dict`` fan-out. Guarantees, in payload order:

    * ``fn``'s own return value when the worker finishes;
    * ``failure_record(payload, kind, detail, seconds)`` otherwise, with
      ``kind`` one of ``"stalled"`` (no completion within
      ``task_timeout + stall_grace``), ``"crashed"`` (worker death broke
      the pool twice — the pool is respawned once and lost tasks retried
      first), or ``"error"`` (harness-side surprise, e.g. an unpicklable
      result).

    ``on_record`` fires the moment each record is finalized (incremental
    persistence hook). Each payload is shipped with an added ``"attempt"``
    field (1 on the first round, 2 after a respawn) so deterministic fault
    injection can target specific attempts.

    ``shutdown`` makes the map interruptible: when the guard trips (first
    SIGINT/SIGTERM), remaining futures are cancelled and
    :class:`~repro.errors.SolveInterrupted` propagates — records already
    finalized (and persisted via ``on_record``) are kept.
    """
    results: list[dict | None] = [None] * len(payloads)

    def finalize(index: int, record: dict) -> None:
        results[index] = record
        if on_record is not None:
            on_record(index, record)

    lost = _run_pool_round(fn, payloads, list(range(len(payloads))), 1,
                           max_workers, task_timeout, stall_grace,
                           finalize, failure_record, shutdown)
    if lost:
        # The pool broke (a worker died). Respawn once and retry only the
        # tasks whose results were lost — everything already finalized is
        # kept.
        obs.inc("parallel.pool_respawns")
        obs.emit("parallel.pool_respawn", lost_trials=len(lost))
        lost = _run_pool_round(fn, payloads, lost, 2,
                               max_workers, task_timeout, stall_grace,
                               finalize, failure_record, shutdown)
        for i in lost:
            obs.inc("parallel.trials_crashed")
            finalize(i, failure_record(
                payloads[i], "crashed",
                "worker process died (pool broke twice)", 0.0,
            ))

    assert all(r is not None for r in results)  # one record per payload
    return results  # type: ignore[return-value]


def _run_pool_round(
    fn: Callable[[dict], dict],
    payloads: list[dict],
    pending: list[int],
    attempt: int,
    max_workers: int | None,
    task_timeout: float | None,
    stall_grace: float,
    finalize: Callable[[int, dict], None],
    failure_record: Callable[[dict, str, str, float], dict],
    shutdown: GracefulShutdown | None = None,
) -> list[int]:
    """Run one pool over ``pending`` payload indices.

    Finalizes a record for every index it can; returns the indices whose
    results were lost to a broken pool (candidates for the retry round).
    With ``shutdown``, the wait loop polls (sub-second) so a delivered
    signal cancels remaining work promptly and raises
    :class:`~repro.errors.SolveInterrupted`.
    """
    lost: list[int] = []
    guard = None if task_timeout is None else task_timeout + stall_grace
    # Without a shutdown guard we can block a full stall window at a time;
    # with one we must wake often enough to notice the signal.
    poll = guard if shutdown is None else (
        0.5 if guard is None else min(0.5, guard)
    )
    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        futures = {}
        for pos, i in enumerate(pending):
            try:
                futures[pool.submit(fn, {**payloads[i], "attempt": attempt})] = i
            except BrokenProcessPool:
                # A worker died before the last submit: the tasks not yet
                # submitted are lost with the pool, like its running ones.
                lost.extend(pending[pos:])
                break
        not_done = set(futures)
        last_progress = time.monotonic()
        while not_done:
            if shutdown is not None and shutdown.triggered:
                for fut in not_done:
                    fut.cancel()
                obs.inc("parallel.interrupted")
                raise SolveInterrupted(shutdown.signum or 0)
            done, not_done = wait(not_done, timeout=poll, return_when=FIRST_COMPLETED)
            if done:
                last_progress = time.monotonic()
            elif guard is not None and time.monotonic() - last_progress >= guard:
                # Stall: a full guard window passed with zero completions.
                # Workers stuck in non-cooperative code cannot be killed
                # from here portably; record and abandon them.
                for fut in not_done:
                    i = futures[fut]
                    fut.cancel()
                    obs.inc("parallel.trials_stalled")
                    finalize(i, failure_record(
                        payloads[i], "stalled",
                        f"no completion within {guard:.3f}s guard",
                        float(guard),
                    ))
                not_done = set()
                break
            for fut in done:
                i = futures[fut]
                if fut.cancelled():
                    lost.append(i)
                    continue
                exc = fut.exception()
                if isinstance(exc, BrokenProcessPool):
                    lost.append(i)
                elif exc is not None:
                    # Harness-side surprise (e.g. unpicklable result); the
                    # worker itself catches everything, so this is rare.
                    finalize(i, failure_record(
                        payloads[i], "error",
                        f"{type(exc).__name__}: {exc}", 0.0,
                    ))
                else:
                    finalize(i, fut.result())
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return sorted(lost)
