"""Checkpoint/resume semantics on top of the write-ahead journal.

:mod:`repro.robustness.journal` knows bytes and frames; this module knows
solver state. It provides the three public entry points of crash-safe
solving:

* :func:`solve_checkpointed` — ``solve_krsp`` with a journal attached:
  every cancellation step is durable *before* it is committed in memory,
  and a pending SIGINT/SIGTERM (via
  :class:`repro.robustness.signals.GracefulShutdown`) raises
  :class:`~repro.errors.SolveInterrupted` with every committed step
  already on disk.
* :func:`resume_krsp` — reconstructs the solver from a journal (the
  prelude plus a verified replay of every iteration record) and continues
  to a result **bit-identical** to the uninterrupted run: same paths,
  same cost/delay, same ``cancel.iteration`` telemetry trail.
* :class:`CheckpointHook` — the duck-typed seam ``cancel_to_feasibility``
  and ``_solve_krsp_impl`` call. :meth:`CheckpointHook.open` is the one
  way a journaled run starts a journal (:func:`solve_checkpointed` and
  the online warm resolve); :func:`resume_krsp` reopens one.

Replay verification
-------------------
Resume does not trust the journal blindly. Every replayed iteration record
is re-validated against the graph:

* iteration numbers are contiguous;
* the recorded flipped edge set equals ``previous ^ new`` solution edges;
* the recorded paths re-validate as ``k`` disjoint ``s``-``t`` paths whose
  recomputed totals equal the recorded ``cost_after``/``delay_after``
  (a tampered weight cannot hide);
* the recorded Lemma-12 rate ``r = DeltaD/DeltaC`` equals the recomputed
  value, and — when the journal was written with the exact optimum
  (``opt_cost``), where Lemma 12 holds unconditionally — the sequence is
  monotone non-decreasing; with estimated bounds a non-monotone step is
  legal (see :mod:`repro.core.cancellation`) and is only counted
  (``journal.resume.rate_regressions``);
* no solution state repeats (the live loop's convergence guard).

Any violation raises :class:`~repro.errors.JournalError` — a journal that
contradicts its own instance is worse than no journal.

The loop's state after step ``i`` is its current ``k`` paths, and each
iteration builds its residual from them, so the prelude plus the
iteration records are the whole state: resume replays every record after
the prelude. Older v1 journals may also hold ``snapshot`` records and
iteration records with a ``residual_version``; both are ignored.

Scope: checkpointed solves run no epsilon-scaling;
:func:`solve_checkpointed` takes no option for it. Older journal headers
also carry a ``b_max`` sweep-radius key; only ``null`` (the full sweep,
the one radius the search runs) can be replayed identically, so any
other value raises :class:`~repro.errors.JournalError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from repro import obs
from repro.core.cancellation import (
    DEFAULT_MAX_ITERATIONS,
    CancellationResult,
    IterationRecord,
    ResumeState,
    cancel_to_feasibility,
    _r_value,
)
from repro.core.instance import KRSPInstance, PathSet
from repro.core.krsp import KRSPSolution, assemble_solution, solve_krsp
from repro.core.phase1 import DEFAULT_PROVIDER
from repro.errors import GraphError, JournalError, SolveInterrupted
from repro.graph.digraph import DiGraph
from repro.graph.io import instance_from_dict, instance_to_dict
from repro.robustness.journal import (
    KIND_FINAL,
    KIND_ITERATION,
    KIND_PRELUDE,
    JournalWriter,
    instance_config_hash,
)
from repro.robustness.anytime import STATUS_OK
from repro.robustness.budget import current_meter, metered
from repro.robustness.signals import GracefulShutdown


# -- scalar / path encoding -------------------------------------------------


def _enc_fraction(f: Fraction | None) -> str | None:
    return None if f is None else str(f)


def _dec_fraction(text: str | None) -> Fraction | None:
    return None if text is None else Fraction(text)


def _enc_paths(paths) -> list[list[int]]:
    return [[int(e) for e in p] for p in paths]


# -- the write side ---------------------------------------------------------


class CheckpointHook:
    """The seam the solver calls to make one run crash-safe.

    ``cancel_to_feasibility`` invokes :meth:`poll_shutdown` at the top of
    every iteration and :meth:`record_iteration` after selecting/applying
    a cycle but *before* committing it in memory (write-ahead
    discipline); ``_solve_krsp_impl`` invokes :meth:`write_prelude` once
    phase 1 and the bound steps are done. All methods are duck-typed — the
    solver core never imports this module.
    """

    def __init__(
        self,
        writer: JournalWriter,
        *,
        shutdown: GracefulShutdown | None = None,
    ) -> None:
        self.writer = writer
        self.shutdown = shutdown

    @classmethod
    def open(
        cls,
        path,
        inst: KRSPInstance,
        *,
        phase1: str,
        max_iterations: int,
        opt_cost: int | None = None,
        strict_monitor: bool = False,
        shutdown: GracefulShutdown | None = None,
        fsync: bool = True,
    ) -> CheckpointHook:
        """Start a fresh journal at ``path`` for a solve of ``inst``: the
        header seals the instance and the solve configuration resume
        re-runs the loop under."""
        writer = JournalWriter.fresh(
            path,
            instance=instance_to_dict(
                inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
            ),
            config={
                "phase1": phase1,
                "max_iterations": max_iterations,
                "opt_cost": opt_cost,
                "strict_monitor": strict_monitor,
            },
            fsync=fsync,
        )
        return cls(writer, shutdown=shutdown)

    @property
    def path(self):
        return self.writer.path

    def close(self) -> None:
        self.writer.close()

    # -- solver-facing hooks --------------------------------------------

    def poll_shutdown(self) -> None:
        """Cooperative shutdown: on a pending first signal raise
        :class:`SolveInterrupted` (the CLI maps it to exit code
        ``128 + signum`` after printing the journal path). Every committed
        step is already durable, so there is nothing to flush."""
        if self.shutdown is None or not self.shutdown.triggered:
            return
        raise SolveInterrupted(self.shutdown.signum, checkpoint_path=self.path)

    def record_iteration(
        self, record: IterationRecord, new_sol: PathSet, prev_edge_ids
    ) -> None:
        """Append step ``record``, which took the solution from
        ``prev_edge_ids`` to ``new_sol``."""
        meter = current_meter()
        flipped = sorted(
            set(int(e) for e in prev_edge_ids)
            ^ set(int(e) for e in new_sol.edge_ids)
        )
        self.writer.append(
            {
                "kind": KIND_ITERATION,
                **record.as_dict(),
                "flipped": flipped,
                # The full new solution, not just the flip: the live loop's
                # decompose + strip ordering is what resume must land on
                # bit-identically, and re-deriving it from an edge set is
                # not guaranteed to reproduce the same path ordering.
                "paths": _enc_paths(new_sol.paths),
                "meter": meter.usage() if meter is not None else None,
            }
        )

    # -- pipeline bookends ----------------------------------------------

    def write_prelude(
        self,
        *,
        provider: str,
        p1_solution: PathSet,
        lower_bound: Fraction | None,
        cost_cap: int | None,
    ) -> None:
        """Append what the loop starts from: exactly what resume reads."""
        self.writer.append(
            {
                "kind": KIND_PRELUDE,
                "provider": provider,
                "p1_paths": _enc_paths(p1_solution.paths),
                "lower_bound": _enc_fraction(lower_bound),
                "cost_cap": None if cost_cap is None else int(cost_cap),
            }
        )

    def write_final(self, sol: KRSPSolution) -> None:
        self.writer.append(
            {
                "kind": KIND_FINAL,
                "paths": _enc_paths(sol.paths),
                "cost": sol.cost,
                "delay": sol.delay,
                "status": sol.status,
                "iterations": sol.iterations,
                "provider": sol.provider,
            }
        )


def solve_checkpointed(
    g: DiGraph,
    s: int,
    t: int,
    k: int,
    delay_bound: int,
    *,
    journal_path,
    phase1: str = DEFAULT_PROVIDER,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    opt_cost: int | None = None,
    strict_monitor: bool = False,
    shutdown: GracefulShutdown | None = None,
    fsync: bool = True,
) -> KRSPSolution:
    """``solve_krsp`` with a write-ahead journal at ``journal_path``.

    The result is bit-identical to the journal-less call (journalling only
    observes; it never changes a solver decision). On a first
    SIGINT/SIGTERM (when ``shutdown`` is active)
    :class:`SolveInterrupted` propagates with the journal path attached;
    every committed step is already durable, and
    ``resume_krsp(journal_path)`` later finishes the run.

    It runs no epsilon-scaling (scaled iterations are not replayable in
    original units), and it runs unmetered: an ambient
    :func:`repro.robustness.budget.metered` budget is masked, since
    ``resume_krsp`` replays the journal unmetered and a budgeted run
    would not replay to the same answer.
    """
    hook = CheckpointHook.open(
        journal_path,
        KRSPInstance(graph=g, s=s, t=t, k=k, delay_bound=delay_bound),
        phase1=phase1,
        max_iterations=max_iterations,
        opt_cost=opt_cost,
        strict_monitor=strict_monitor,
        shutdown=shutdown,
        fsync=fsync,
    )
    try:
        with metered(None):
            sol = solve_krsp(
                g,
                s,
                t,
                k,
                delay_bound,
                phase1=phase1,
                max_iterations=max_iterations,
                opt_cost=opt_cost,
                strict_monitor=strict_monitor,
                checkpoint_hook=hook,
            )
        hook.write_final(sol)
        return sol
    finally:
        hook.close()


# -- the resume side --------------------------------------------------------


def _rebuild_instance(header: dict[str, Any]) -> KRSPInstance:
    seal = header.get("seal")
    if seal != instance_config_hash(header["instance"], header["config"]):
        raise JournalError(
            "journal seal mismatch: header instance/config were altered "
            "after sealing"
        )
    g, s, t, k, delay_bound = instance_from_dict(header["instance"])
    return KRSPInstance(graph=g, s=s, t=t, k=k, delay_bound=delay_bound)


def _replay_tail(
    inst: KRSPInstance,
    *,
    start: PathSet,
    tail: list[dict[str, Any]],
    cost_bound: Fraction | None,
    exact_bound: bool,
) -> ResumeState:
    """Replay journal iteration records from ``start``, verifying each one.

    Every record is checked against the graph and the solution before it
    (see the module docstring) and re-emitted as its ``cancel.iteration``
    event. Returns the loop state after the last record.
    """
    D = inst.delay_bound
    sol = best = start
    seen = {tuple(sorted(start.edge_ids))}
    records: list[IterationRecord] = []
    prev_r: Fraction | None = None
    for rec in tail:
        expected = len(records) + 1
        try:
            step = IterationRecord.from_dict(rec)
        except (KeyError, ValueError, TypeError) as exc:
            raise JournalError(
                f"iteration record {expected} is malformed ({exc!r})"
            ) from None
        if step.iteration != expected:
            raise JournalError(
                f"journal iteration records not contiguous: expected "
                f"iteration {expected}, found {step.iteration}"
            )
        prev_edges = set(int(e) for e in sol.edge_ids)
        flipped = set(int(e) for e in rec["flipped"])
        paths = [list(p) for p in rec["paths"]]
        try:
            new_sol = inst.path_set(paths)
        except GraphError as exc:
            raise JournalError(
                f"iteration {expected}: recorded paths are not a valid "
                f"solution ({exc})"
            ) from None
        if set(int(e) for e in new_sol.edge_ids) != (prev_edges ^ flipped):
            raise JournalError(
                f"iteration {expected}: flipped edge set inconsistent with "
                f"recorded solution"
            )
        if (new_sol.cost, new_sol.delay) != (step.cost_after, step.delay_after):
            raise JournalError(
                f"iteration {expected}: recorded totals "
                f"({step.cost_after}, {step.delay_after}) != recomputed "
                f"({new_sol.cost}, {new_sol.delay})"
            )
        r_here = _r_value(D, cost_bound, sol)
        if r_here != step.r_value:
            raise JournalError(
                f"iteration {expected}: Lemma-12 rate mismatch — journal "
                f"says {step.r_value!r}, recomputed {r_here!r}"
            )
        if r_here is not None and prev_r is not None and r_here < prev_r:
            # With the exact optimum Lemma 12 guarantees monotonicity; a
            # regression there means the journal contradicts the theory.
            # With estimated bounds a type-2 step may legally regress.
            if exact_bound:
                raise JournalError(
                    f"iteration {expected}: Lemma-12 monotonicity violated "
                    f"on replay (r {prev_r} -> {r_here} with exact bound)"
                )
            obs.inc("journal.resume.rate_regressions")
        if r_here is not None:
            prev_r = r_here
        state = tuple(sorted(new_sol.edge_ids))
        if state in seen:
            raise JournalError(
                f"iteration {expected}: journal revisits a solution state "
                f"the live loop would have rejected"
            )
        seen.add(state)
        records.append(step)
        step.emit(D)
        obs.inc("journal.resume.replayed_iterations")
        sol = new_sol
        if (sol.delay, sol.cost) < (best.delay, best.cost):
            best = sol
    return ResumeState(solution=sol, records=records, seen_states=seen, best=best)


def resume_krsp(
    journal_path,
    *,
    shutdown: GracefulShutdown | None = None,
    fsync: bool = True,
) -> KRSPSolution:
    """Resume a (possibly crashed) checkpointed solve from its journal.

    Reads the journal (torn tail truncated), verifies the sealed header,
    rebuilds the loop state from the prelude (or — header-only — just
    restarts the solve into the same journal), replays every iteration
    record with full verification (see module docstring), re-emitting the
    ``cancel.iteration`` telemetry trail, and continues the cancellation
    loop to completion. The final :class:`KRSPSolution` is bit-identical
    to what the uninterrupted run would have produced.

    A journal that already contains a ``final`` record is replayed and
    verified the same way; its stored solution is then revalidated and
    returned without re-solving.
    """
    with obs.span("resume"):
        writer, doc = JournalWriter.reopen(journal_path, fsync=fsync)
        try:
            return _resume_inner(writer, doc, shutdown)
        finally:
            writer.close()


def _resume_inner(
    writer: JournalWriter, doc, shutdown: GracefulShutdown | None
) -> KRSPSolution:
    header = doc.header
    inst = _rebuild_instance(header)
    g, D = inst.graph, inst.delay_bound
    config = header["config"]
    if config.get("b_max") is not None:
        raise JournalError(
            f"journal was written with sweep radius b_max={config['b_max']}; "
            f"the search always sweeps to sum |c|, so its iterations "
            f"cannot be replayed identically"
        )
    prelude = doc.last_of(KIND_PRELUDE)
    hook = CheckpointHook(writer, shutdown=shutdown)

    if prelude is None:
        # Crashed before phase 1 and the bound steps finished: nothing to
        # replay, the solve simply restarts, appending into the same journal.
        obs.inc("journal.resume.restarts")
        sol = solve_krsp(
            g,
            inst.s,
            inst.t,
            inst.k,
            D,
            phase1=config["phase1"],
            max_iterations=config["max_iterations"],
            opt_cost=config["opt_cost"],
            strict_monitor=config["strict_monitor"],
            checkpoint_hook=hook,
        )
        hook.write_final(sol)
        return sol

    lower_bound = _dec_fraction(prelude.get("lower_bound"))
    opt_cost = config.get("opt_cost")
    cost_bound = Fraction(opt_cost) if opt_cost is not None else lower_bound
    provider = prelude["provider"]

    resume_state = _replay_tail(
        inst,
        start=inst.path_set([list(p) for p in prelude["p1_paths"]]),
        tail=doc.of_kind(KIND_ITERATION),
        cost_bound=cost_bound,
        exact_bound=opt_cost is not None,
    )

    final = doc.last_of(KIND_FINAL)
    if final is None:
        result = cancel_to_feasibility(
            inst,
            start=resume_state.solution,
            cost_lower_bound=lower_bound,
            opt_cost=opt_cost,
            cost_cap=prelude.get("cost_cap"),
            max_iterations=config["max_iterations"],
            strict_monitor=config["strict_monitor"],
            journal=hook,
            resume_state=resume_state,
        )
    else:
        # Completed journal: every record replayed and verified above;
        # revalidate the stored answer against the replay and return it
        # without solving. An exhausted run answers with its best so far.
        fin_sol = inst.path_set([list(p) for p in final["paths"]])
        if fin_sol.cost != int(final["cost"]) or fin_sol.delay != int(final["delay"]):
            raise JournalError(
                "final record totals do not match its recorded paths"
            )
        replayed = resume_state.solution if final.get("status") == STATUS_OK else resume_state.best
        if sorted(fin_sol.edge_ids) != sorted(replayed.edge_ids):
            raise JournalError("final record paths differ from the replayed solution")
        result = CancellationResult(solution=fin_sol, records=resume_state.records)
    sol_out = assemble_solution(
        g,
        D,
        final_paths=[list(p) for p in result.solution.paths],
        result=result,
        exhausted=result.exhausted,
        lower_bound=lower_bound,
        provider_name=provider,
        scaled=False,
        timings={},
        usage=None,
    )
    if final is None:
        hook.write_final(sol_out)
    return sol_out


__all__ = [
    "CheckpointHook",
    "resume_krsp",
    "solve_checkpointed",
]
