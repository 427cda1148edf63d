"""Checkpoint/resume semantics on top of the write-ahead journal.

:mod:`repro.robustness.journal` knows bytes and frames; this module knows
solver state. It provides the three public entry points of crash-safe
solving:

* :func:`solve_checkpointed` — ``solve_krsp`` with a journal attached:
  every cancellation step is durable *before* it is committed in memory,
  periodic snapshots bound the replay cost, and a pending SIGINT/SIGTERM
  (via :class:`repro.robustness.signals.GracefulShutdown`) flushes a final
  snapshot and raises :class:`~repro.errors.SolveInterrupted`.
* :func:`resume_krsp` — reconstructs the solver from a journal (snapshot
  load + verified tail replay) and continues to a result **bit-identical** to the uninterrupted run: same
  paths, same cost/delay, same ``cancel.iteration`` telemetry trail.
* :class:`CheckpointHook` — the duck-typed seam ``cancel_to_feasibility``
  and ``_solve_krsp_impl`` call; constructed by the two functions above.

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

Journals hold no residual graph: every cancellation iteration builds its
residual from the current solution, so a restored solution is all the
loop needs. Older journals whose iteration records carry a
``residual_version`` and whose snapshots carry a ``residual`` still
resume; both keys are ignored.

Scope: checkpointing supports the production finder (the configuration
the journal header pins) and no epsilon-scaling;
:func:`solve_checkpointed` rejects anything else up front.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable

from repro import obs
from repro.core.cancellation import (
    DEFAULT_MAX_ITERATIONS,
    IterationRecord,
    ResumeState,
    cancel_to_feasibility,
    _r_value,
)
from repro.core.bicameral import CycleType
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
    KIND_SNAPSHOT,
    JournalWriter,
    instance_config_hash,
)
from repro.robustness.signals import GracefulShutdown

#: Default snapshot cadence (iterations between full-state snapshots).
#: Snapshots carry every past record and the seen-state set, so they are
#: much heavier than iteration records; the tail replayed on resume is at
#: most this many records.
DEFAULT_CHECKPOINT_EVERY = 64


# -- scalar / path encoding -------------------------------------------------


def _enc_fraction(f: Fraction | None) -> str | None:
    return None if f is None else str(f)


def _dec_fraction(text: str | None) -> Fraction | None:
    return None if text is None else Fraction(text)


def _enc_paths(paths) -> list[list[int]]:
    return [[int(e) for e in p] for p in paths]


def _enc_record(rec: IterationRecord, *, solution_edges: int, cycle_edges: int) -> dict[str, Any]:
    """Journal-side form of one :class:`IterationRecord` (plus the two edge
    counts the ``cancel.iteration`` event needs for bit-identical
    re-emission)."""
    return {
        "iteration": rec.iteration,
        "cycle_type": rec.cycle_type.name,
        "cycle_cost": rec.cycle_cost,
        "cycle_delay": rec.cycle_delay,
        "cycle_edges": cycle_edges,
        "solution_edges": solution_edges,
        "cost_after": rec.cost_after,
        "delay_after": rec.delay_after,
        "r_value": _enc_fraction(rec.r_value),
    }


def _dec_record(data: dict[str, Any]) -> IterationRecord:
    return IterationRecord(
        iteration=int(data["iteration"]),
        cycle_type=CycleType[data["cycle_type"]],
        cycle_cost=int(data["cycle_cost"]),
        cycle_delay=int(data["cycle_delay"]),
        cost_after=int(data["cost_after"]),
        delay_after=int(data["delay_after"]),
        r_value=_dec_fraction(data.get("r_value")),
    )


def _emit_iteration_event(rec: dict[str, Any], delay_bound: int) -> None:
    """Re-emit the ``cancel.iteration`` event a live run would have emitted
    for this record (identical fields; ``seq`` is assigned fresh by the
    session, which is why trail comparisons drop it)."""
    obs.emit(
        "cancel.iteration",
        iteration=rec["iteration"],
        cycle_type=rec["cycle_type"],
        cycle_cost=rec["cycle_cost"],
        cycle_delay=rec["cycle_delay"],
        cycle_edges=rec["cycle_edges"],
        solution_edges=rec["solution_edges"],
        cost_after=rec["cost_after"],
        delay_after=rec["delay_after"],
        delay_bound=delay_bound,
        r_value=rec.get("r_value"),
    )


# -- the write side ---------------------------------------------------------


class CheckpointHook:
    """The seam the solver calls to make one run crash-safe.

    ``cancel_to_feasibility`` invokes :meth:`poll_shutdown` at the top of
    every iteration, :meth:`record_iteration` after selecting/applying a
    cycle but *before* committing it in memory (write-ahead discipline),
    and :meth:`maybe_snapshot` after the commit; ``_solve_krsp_impl``
    invokes :meth:`write_prelude` once phase 1 and the bound steps are
    done. All methods are duck-typed — the solver core never imports this
    module.
    """

    def __init__(
        self,
        writer: JournalWriter,
        *,
        every: int = DEFAULT_CHECKPOINT_EVERY,
        shutdown: GracefulShutdown | None = None,
    ) -> None:
        self.writer = writer
        self.every = max(1, int(every))
        self.shutdown = shutdown
        # {iteration: (cycle_edges, solution_edges)} — the two counts the
        # cancel.iteration event carries but IterationRecord does not;
        # snapshots embed them so resume can re-emit the trail verbatim.
        self._counts: dict[int, tuple[int, int]] = {}

    @property
    def path(self):
        return self.writer.path

    # -- solver-facing hooks --------------------------------------------

    def poll_shutdown(self, state_fn: Callable[[], dict[str, Any]]) -> None:
        """Cooperative shutdown: on a pending first signal, flush a full
        snapshot and raise :class:`SolveInterrupted` (the CLI maps it to
        exit code ``128 + signum`` after printing the journal path)."""
        if self.shutdown is None or not self.shutdown.triggered:
            return
        self.snapshot_now(state_fn)
        raise SolveInterrupted(self.shutdown.signum, checkpoint_path=self.path)

    def record_iteration(
        self,
        *,
        iteration: int,
        ctype: CycleType,
        cycle,
        prev_edge_ids,
        new_sol: PathSet,
        r_before: Fraction | None,
        meter=None,
    ) -> None:
        new_edges = set(int(e) for e in new_sol.edge_ids)
        flipped = sorted(set(int(e) for e in prev_edge_ids) ^ new_edges)
        self._counts[iteration] = (len(cycle.edges), len(new_edges))
        rec = IterationRecord(
            iteration=iteration,
            cycle_type=ctype,
            cycle_cost=cycle.cost,
            cycle_delay=cycle.delay,
            cost_after=new_sol.cost,
            delay_after=new_sol.delay,
            r_value=r_before,
        )
        payload = _enc_record(
            rec, solution_edges=len(new_edges), cycle_edges=len(cycle.edges)
        )
        payload.update(
            {
                "kind": KIND_ITERATION,
                "flipped": flipped,
                # The full new solution, not just the flip: the live loop's
                # decompose + strip ordering is what resume must land on
                # bit-identically, and re-deriving it from an edge set is
                # not guaranteed to reproduce the same path ordering.
                "paths": _enc_paths(new_sol.paths),
                "meter": meter.usage() if meter is not None else None,
            }
        )
        self.writer.append(payload)

    def maybe_snapshot(
        self, iterations: int, state_fn: Callable[[], dict[str, Any]]
    ) -> None:
        if iterations % self.every == 0:
            self.snapshot_now(state_fn)

    def snapshot_now(self, state_fn: Callable[[], dict[str, Any]]) -> None:
        """Append a full-state snapshot record (bounds the resume tail)."""
        state = state_fn()
        sol: PathSet = state["solution"]
        best: PathSet = state["best"]
        records: list[IterationRecord] = state["records"]
        meter = state.get("meter")
        self.writer.append(
            {
                "kind": KIND_SNAPSHOT,
                "iteration": len(records),
                "paths": _enc_paths(sol.paths),
                "best_paths": _enc_paths(best.paths),
                "seen_states": [list(s) for s in sorted(state["seen_states"])],
                "records": [
                    # Counts for re-emission are derivable for past records
                    # only from their journal copies; the snapshot embeds
                    # them so it is self-contained.
                    self._snapshot_record(r)
                    for r in records
                ],
                "meter": meter.usage() if meter is not None else None,
            }
        )

    def _snapshot_record(self, rec: IterationRecord) -> dict[str, Any]:
        # Edge counts live on the matching journal iteration record; pull
        # them from the in-memory cache maintained by record_iteration so
        # snapshots never need to re-read the file.
        counts = self._counts.get(rec.iteration, (0, 0))
        return _enc_record(rec, cycle_edges=counts[0], solution_edges=counts[1])

    # -- pipeline bookends ----------------------------------------------

    def write_prelude(
        self,
        *,
        provider: str,
        p1_solution: PathSet,
        lower_bound: Fraction | None,
        cost_cap: int | None,
        cap_paths: list[list[int]] | None,
        min_delay: int | None,
    ) -> None:
        self.writer.append(
            {
                "kind": KIND_PRELUDE,
                "provider": provider,
                "p1_paths": _enc_paths(p1_solution.paths),
                "lower_bound": _enc_fraction(lower_bound),
                "cost_cap": None if cost_cap is None else int(cost_cap),
                "cap_paths": None if cap_paths is None else _enc_paths(cap_paths),
                "min_delay_weight": None if min_delay is None else int(min_delay),
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


def _make_hook(
    writer: JournalWriter,
    *,
    every: int,
    shutdown: GracefulShutdown | None,
    counts: dict[int, tuple[int, int]] | None = None,
) -> CheckpointHook:
    hook = CheckpointHook(writer, every=every, shutdown=shutdown)
    if counts:
        hook._counts.update(counts)
    return hook


def _solve_config(
    *,
    phase1: str,
    b_max: int | None,
    max_iterations: int,
    opt_cost: int | None,
    strict_monitor: bool,
    checkpoint_every: int,
) -> dict[str, Any]:
    return {
        "phase1": phase1,
        "b_max": b_max,
        "max_iterations": max_iterations,
        "opt_cost": opt_cost,
        "strict_monitor": strict_monitor,
        "finder": "production",
        "checkpoint_every": checkpoint_every,
    }


def solve_checkpointed(
    g: DiGraph,
    s: int,
    t: int,
    k: int,
    delay_bound: int,
    *,
    journal_path,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    phase1: str = DEFAULT_PROVIDER,
    b_max: int | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    opt_cost: int | None = None,
    strict_monitor: bool = False,
    finder: str = "production",
    shutdown: GracefulShutdown | None = None,
    fsync: bool = True,
) -> KRSPSolution:
    """``solve_krsp`` with a write-ahead journal at ``journal_path``.

    The result is bit-identical to the journal-less call (journalling only
    observes; it never changes a solver decision). On a first
    SIGINT/SIGTERM (when ``shutdown`` is active) a snapshot is flushed and
    :class:`SolveInterrupted` propagates with the journal path attached;
    ``resume_krsp(journal_path)`` later finishes the run.

    Only the production finder is supported, and no epsilon-scaling
    (scaled iterations are not replayable in original units).
    """
    if finder != "production":
        raise GraphError(
            "checkpointed solving supports only the production finder "
            f"(got {finder!r})"
        )
    config = _solve_config(
        phase1=phase1,
        b_max=b_max,
        max_iterations=max_iterations,
        opt_cost=opt_cost,
        strict_monitor=strict_monitor,
        checkpoint_every=checkpoint_every,
    )
    writer = JournalWriter.fresh(
        journal_path,
        instance=instance_to_dict(g, s, t, k, delay_bound),
        config=config,
        fsync=fsync,
    )
    hook = _make_hook(writer, every=checkpoint_every, shutdown=shutdown)
    try:
        sol = solve_krsp(
            g,
            s,
            t,
            k,
            delay_bound,
            phase1=phase1,
            b_max=b_max,
            max_iterations=max_iterations,
            opt_cost=opt_cost,
            strict_monitor=strict_monitor,
            finder="production",
            checkpoint_hook=hook,
        )
        hook.write_final(sol)
        return sol
    finally:
        writer.close()


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
    best: PathSet,
    seen: set[tuple[int, ...]],
    records: list[IterationRecord],
    tail: list[dict[str, Any]],
    cost_bound: Fraction | None,
    exact_bound: bool,
) -> tuple[PathSet, PathSet]:
    """Replay journal iteration records, verifying each one.

    Every record is checked against the graph and the solution before it
    (see the module docstring) and re-emitted as its ``cancel.iteration``
    event. Returns the (solution, best) pair after the last record.
    """
    D = inst.delay_bound
    sol = start
    prev_r: Fraction | None = None
    for rec in tail:
        expected = len(records) + 1
        if int(rec["iteration"]) != expected:
            raise JournalError(
                f"journal iteration records not contiguous: expected "
                f"iteration {expected}, found {rec['iteration']}"
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
        if new_sol.cost != int(rec["cost_after"]) or new_sol.delay != int(
            rec["delay_after"]
        ):
            raise JournalError(
                f"iteration {expected}: recorded totals "
                f"({rec['cost_after']}, {rec['delay_after']}) != recomputed "
                f"({new_sol.cost}, {new_sol.delay})"
            )
        r_here = _r_value(D, cost_bound, sol)
        if _enc_fraction(r_here) != rec.get("r_value"):
            raise JournalError(
                f"iteration {expected}: Lemma-12 rate mismatch — journal "
                f"says {rec.get('r_value')!r}, recomputed {r_here!r}"
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
        records.append(_dec_record(rec))
        _emit_iteration_event(rec, D)
        obs.inc("cancellation.iterations")
        obs.inc(f"cancellation.applied.{rec['cycle_type'].lower()}")
        obs.inc("journal.resume.replayed_iterations")
        sol = new_sol
        if (sol.delay, sol.cost) < (best.delay, best.cost):
            best = sol
    return sol, best


def resume_krsp(
    journal_path,
    *,
    shutdown: GracefulShutdown | None = None,
    fsync: bool = True,
) -> KRSPSolution:
    """Resume a (possibly crashed) checkpointed solve from its journal.

    Reads the journal (torn tail truncated), verifies the sealed header,
    restores the newest snapshot (or the prelude, or — header-only — just
    restarts the solve into the same journal), replays the iteration tail
    with full verification (see module docstring), re-emits the ``cancel.iteration`` telemetry
    trail, and continues the cancellation loop to completion. The final
    :class:`KRSPSolution` is bit-identical to what the uninterrupted run
    would have produced.

    A journal that already contains a ``final`` record short-circuits:
    the stored solution is revalidated and returned without re-solving.
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
    every = int(config.get("checkpoint_every", DEFAULT_CHECKPOINT_EVERY))
    prelude = doc.last_of(KIND_PRELUDE)

    if prelude is None:
        # Crashed before phase 1 and the bound steps finished: nothing to
        # replay, the solve simply restarts, appending into the same journal.
        obs.inc("journal.resume.restarts")
        hook = _make_hook(writer, every=every, shutdown=shutdown)
        sol = solve_krsp(
            g,
            inst.s,
            inst.t,
            inst.k,
            D,
            phase1=config["phase1"],
            b_max=config["b_max"],
            max_iterations=config["max_iterations"],
            opt_cost=config["opt_cost"],
            strict_monitor=config["strict_monitor"],
            finder="production",
            checkpoint_hook=hook,
        )
        hook.write_final(sol)
        return sol

    lower_bound = _dec_fraction(prelude.get("lower_bound"))
    opt_cost = config.get("opt_cost")
    cost_bound = Fraction(opt_cost) if opt_cost is not None else lower_bound
    provider = prelude["provider"]

    final = doc.last_of(KIND_FINAL)
    snap = doc.last_of(KIND_SNAPSHOT)
    iter_recs = doc.of_kind(KIND_ITERATION)

    # Restore the newest durable full state.
    if snap is not None:
        sol = inst.path_set([list(p) for p in snap["paths"]])
        best = inst.path_set([list(p) for p in snap["best_paths"]])
        seen = {tuple(int(e) for e in s) for s in snap["seen_states"]}
        base_records = list(snap["records"])
        snap_iter = int(snap["iteration"])
    else:
        sol = inst.path_set([list(p) for p in prelude["p1_paths"]])
        best = sol
        seen = {tuple(sorted(sol.edge_ids))}
        base_records = []
        snap_iter = 0

    records = [_dec_record(r) for r in base_records]
    tail = [r for r in iter_recs if int(r["iteration"]) > snap_iter]

    if final is not None:
        # Completed journal: revalidate the stored answer and re-emit the
        # full trail; no solving needed.
        all_recs = base_records + tail
        fin_sol = inst.path_set([list(p) for p in final["paths"]])
        if fin_sol.cost != int(final["cost"]) or fin_sol.delay != int(final["delay"]):
            raise JournalError(
                "final record totals do not match its recorded paths"
            )
        for rec in all_recs:
            _emit_iteration_event(rec, D)
        records += [_dec_record(r) for r in tail]
        from repro.core.cancellation import CancellationResult

        result = CancellationResult(solution=fin_sol, records=records)
        return assemble_solution(
            g,
            D,
            final_paths=[list(p) for p in fin_sol.paths],
            result=result,
            exhausted=None,
            lower_bound=lower_bound,
            provider_name=provider,
            scaled=False,
            timings={},
            meter=None,
        )

    # The pre-snapshot history replays from the snapshot's embedded copy
    # (telemetry only — its state is already folded into the snapshot).
    for rec in base_records:
        _emit_iteration_event(rec, D)

    sol, best = _replay_tail(
        inst,
        start=sol,
        best=best,
        seen=seen,
        records=records,
        tail=tail,
        cost_bound=cost_bound,
        exact_bound=opt_cost is not None,
    )

    counts = {
        int(r["iteration"]): (int(r["cycle_edges"]), int(r["solution_edges"]))
        for r in base_records + tail
    }
    hook = _make_hook(writer, every=every, shutdown=shutdown, counts=counts)
    resume_state = ResumeState(
        solution=sol,
        records=records,
        seen_states=seen,
        best=best,
    )
    result = cancel_to_feasibility(
        inst,
        start=sol,
        cost_lower_bound=lower_bound,
        opt_cost=opt_cost,
        cost_cap=prelude.get("cost_cap"),
        b_max=config["b_max"],
        max_iterations=config["max_iterations"],
        strict_monitor=config["strict_monitor"],
        finder="production",
        journal=hook,
        resume_state=resume_state,
    )
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
        meter=None,
    )
    hook.write_final(sol_out)
    return sol_out


__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "CheckpointHook",
    "resume_krsp",
    "solve_checkpointed",
]
