"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``
    Solve a kRSP instance from a JSON file (schema of
    :mod:`repro.graph.io` plus ``s``, ``t``, ``k``, ``delay_bound`` keys)
    or from a generated workload, printing paths and totals.
``resume``
    Resume a crashed or interrupted ``solve --checkpoint`` run from its
    write-ahead journal; the finished result is bit-identical to the
    uninterrupted solve (see docs/ROBUSTNESS.md, "Crash safety").
``resolve``
    Apply an instance delta (edge drift/removal/addition, demand move) to
    a persisted online session (``solve --state``) and re-solve, warm when
    the delta preserves the warm-start preconditions (see docs/ONLINE.md).
``experiment``
    Run one experiment from the registry (``f1``, ``f2``, ``e1`` ... ``e9``)
    and print its table.
``generate``
    Generate a random instance and write it as JSON (for sharing or
    regression pinning).
``fuzz``
    Run the differential/metamorphic oracle (:mod:`repro.oracle`) under a
    time budget: replay the regression corpus, stream adversarial
    instances through every solver vs the exact MILP, shrink and persist
    any reproducer, and emit a JSON report for CI.
``trace``
    Render (or ``--validate``) a JSONL telemetry trace written by
    ``solve --trace`` / ``sweep --trace`` / ``fuzz --trace``: phase-time
    breakdown, hot-span tree, latency quantiles, counters, and the
    per-iteration cancellation table. ``--flamegraph OUT`` folds the span
    tree into collapsed-stack format; ``--diff A B`` compares two traces
    with counter drift ranked by contribution. See
    ``docs/OBSERVABILITY.md``.
``metrics``
    ``serve`` runs a Prometheus ``/metrics`` aggregator that solves and
    sweeps publish to via ``--metrics-port``; ``check`` validates a
    scraped exposition page as text-format 0.0.4.
``serve``
    Run the kRSP solve service (docs/SERVICE.md): an async HTTP server
    scheduling solve/resolve requests from many tenants onto a worker
    pool, with fair weighted scheduling, in-flight dedup, per-request
    deadlines, and verified certificates on every response. SIGTERM
    drains gracefully (stop admitting, finish queued work, then exit).

Examples
--------
::

    python -m repro generate --family er --n 16 --seed 7 -o inst.json
    python -m repro solve inst.json
    python -m repro solve inst.json --eps 0.25 --phase1 lagrangian
    python -m repro solve inst.json --trace out.jsonl
    python -m repro trace out.jsonl
    python -m repro trace out.jsonl --validate
    python -m repro trace out.jsonl --flamegraph out.collapsed
    python -m repro trace --diff a.jsonl b.jsonl
    python -m repro metrics serve --port 9109 &
    python -m repro solve inst.json --metrics-port 9109
    python -m repro metrics check http://127.0.0.1:9109/metrics
    python -m repro serve --port 8710 --workers 4 --metrics-port 9109
    python -m repro experiment e1
    python -m repro fuzz --budget 30 --seed 0 --report fuzz.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro import obs
from repro.core.krsp import solve_krsp
from repro.core.phase1 import DEFAULT_PROVIDER, PROVIDERS
from repro.errors import (
    InfeasibleInstanceError,
    InputError,
    JournalError,
    ReproError,
    SolveInterrupted,
)
from repro.eval.experiments import EXPERIMENTS
from repro.eval.reporting import format_table
from repro.eval.workloads import interesting_delay_bound
from repro.graph.io import instance_from_dict, instance_to_dict, load_instance
from repro.robustness import SolveBudget


def _load_instance(path: str):
    return load_instance(path)


@contextlib.contextmanager
def _telemetry(trace_path, metrics_port, label):
    """Session + optional `/metrics` attachment for one CLI command.

    Yields the live :class:`repro.obs.Telemetry` (or ``None`` when neither
    ``--trace`` nor ``--metrics-port`` was given). With a metrics port the
    session is published to the shared endpoint on that port — reusing an
    aggregator already listening there (``repro metrics serve``), else
    starting an in-process one for the duration of the command.
    """
    if not trace_path and not metrics_port:
        yield None
        return
    with obs.session(trace_path=trace_path, label=label) as tel:
        publisher = server = None
        if metrics_port:
            from repro.obs.server import attach_metrics

            publisher, server = attach_metrics(metrics_port, tel, label)
        try:
            yield tel
        finally:
            if publisher is not None:
                publisher.close()
            if server is not None:
                server.close()


def _print_solution(
    g, s, t, k, bound, *, paths, cost, delay, feasible, status, cert,
    detail, lower_bound, verify,
) -> int:
    print(f"cost={cost} delay={delay} (budget {bound}, "
          f"feasible={feasible}) status={status} {detail}")
    if lower_bound is not None:
        print(f"certified lower bound on OPT cost: {float(lower_bound):.3f}")
    if cert is not None and status != "ok":
        ratio = (
            f" cost_ratio<={cert.cost_bound_ratio:.3f}"
            if cert.cost_bound_ratio is not None
            else ""
        )
        elapsed = (
            f" elapsed={cert.elapsed_seconds:.3f}s"
            if cert.elapsed_seconds is not None
            else ""
        )
        print(f"certificate: delay_slack={cert.delay_slack}{ratio}"
              f"{elapsed} reason={cert.exhausted_reason}")
    for i, path in enumerate(paths, 1):
        hops = [int(g.tail[path[0]])] + [int(g.head[e]) for e in path]
        print(f"path {i}: {hops} cost={g.cost_of(path)} delay={g.delay_of(path)}")
    if verify:
        from repro.core.verify import verify_solution

        report = verify_solution(g, s, t, k, bound, paths)
        audit = "clean" if report.clean else f"ISSUES: {report.issues}"
        ratio = (
            f" ratio<= {report.approximation_ratio_upper_bound:.3f}"
            if report.approximation_ratio_upper_bound is not None
            else ""
        )
        print(f"independent audit: {audit}{ratio}")
        if not report.clean:
            return 4
    return 0


def _report_interrupt(exc: SolveInterrupted) -> int:
    print(f"interrupted by signal {exc.signum}; checkpoint flushed to "
          f"{exc.checkpoint_path}", file=sys.stderr)
    print(f"resume with: python -m repro resume {exc.checkpoint_path}",
          file=sys.stderr)
    return 128 + exc.signum


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        g, s, t, k, bound = _load_instance(args.instance)
    except InputError as exc:
        print(f"bad instance: {exc}", file=sys.stderr)
        return 2
    eps = args.eps if args.eps else None
    if args.checkpoint and (eps is not None or args.fallback
                            or args.deadline is not None):
        print("--checkpoint is incompatible with --eps, --fallback and "
              "--deadline (checkpointed solves must be deterministic and "
              "replayable; see docs/ROBUSTNESS.md)", file=sys.stderr)
        return 2
    if args.state and (eps is not None or args.fallback):
        print("--state is incompatible with --eps and --fallback (online "
              "sessions carry the registered (1, 2) guarantee; see "
              "docs/ONLINE.md)", file=sys.stderr)
        return 2
    session = _telemetry(
        args.trace, args.metrics_port, f"solve {args.instance}"
    )
    try:
        with session:
            if args.checkpoint:
                from repro.robustness import GracefulShutdown, solve_checkpointed

                with GracefulShutdown() as shutdown:
                    sol = solve_checkpointed(
                        g, s, t, k, bound,
                        journal_path=args.checkpoint,
                        phase1=args.phase1,
                        shutdown=shutdown,
                    )
                paths, cost, delay = sol.paths, sol.cost, sol.delay
                feasible, status, cert = sol.delay_feasible, sol.status, sol.certificate
                detail = (f"iterations={sol.iterations} "
                          f"checkpoint={args.checkpoint}")
                lower_bound = sol.cost_lower_bound
            elif args.fallback:
                from repro.robustness import solve_with_fallback

                fb = solve_with_fallback(
                    g, s, t, k, bound,
                    deadline_seconds=args.deadline,
                    phase1=args.phase1,
                    eps=eps,
                )
                paths, cost, delay = fb.paths, fb.cost, fb.delay
                feasible, status, cert = fb.delay_feasible, fb.status, fb.certificate
                detail = f"tier={fb.tier} guarantee={fb.guarantee}"
                lower_bound = None
            else:
                budget = (
                    SolveBudget(deadline_seconds=args.deadline)
                    if args.deadline is not None
                    else None
                )
                sol = solve_krsp(
                    g, s, t, k, bound, phase1=args.phase1, eps=eps, budget=budget
                )
                paths, cost, delay = sol.paths, sol.cost, sol.delay
                feasible, status, cert = sol.delay_feasible, sol.status, sol.certificate
                detail = f"iterations={sol.iterations}"
                lower_bound = sol.cost_lower_bound
    except SolveInterrupted as exc:
        return _report_interrupt(exc)
    except InfeasibleInstanceError as exc:
        # Exit 2: a property of the *instance*, proven — distinct from
        # exit 1 (the solve itself failed) so scripts can tell them apart.
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.state:
        from repro.core.instance import KRSPInstance
        from repro.online import OnlineState, save_state

        save_state(args.state, OnlineState(
            instance=KRSPInstance(graph=g, s=s, t=t, k=k, delay_bound=bound),
            solution=sol,
            lower_bound=lower_bound,
            phase1=args.phase1,
        ))
        print(f"online session state written to {args.state} "
              f"(churn it with `repro resolve {args.state} --delta ...`)")
    return _print_solution(
        g, s, t, k, bound, paths=paths, cost=cost, delay=delay,
        feasible=feasible, status=status, cert=cert, detail=detail,
        lower_bound=lower_bound, verify=args.verify,
    )


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.robustness import GracefulShutdown, read_journal, resume_krsp

    session = (
        obs.session(trace_path=args.trace, label=f"resume {args.journal}")
        if args.trace
        else contextlib.nullcontext()
    )
    try:
        header = read_journal(args.journal).header
        g, s, t, k, bound = instance_from_dict(header["instance"])
        with session:
            with GracefulShutdown() as shutdown:
                sol = resume_krsp(args.journal, shutdown=shutdown)
    except SolveInterrupted as exc:
        return _report_interrupt(exc)
    except JournalError as exc:
        print(f"bad journal: {exc}", file=sys.stderr)
        return 2
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        print(f"trace written to {args.trace}")
    return _print_solution(
        g, s, t, k, bound, paths=sol.paths, cost=sol.cost, delay=sol.delay,
        feasible=sol.delay_feasible, status=sol.status, cert=sol.certificate,
        detail=f"iterations={sol.iterations} resumed={args.journal}",
        lower_bound=sol.cost_lower_bound, verify=args.verify,
    )


def cmd_resolve(args: argparse.Namespace) -> int:
    from repro.online import load_delta, load_state
    from repro.online import resolve as online_resolve
    from repro.online import save_state

    if args.checkpoint and args.deadline is not None:
        print("--checkpoint is incompatible with --deadline (checkpointed "
              "resolves must be deterministic and replayable; see "
              "docs/ROBUSTNESS.md)", file=sys.stderr)
        return 2
    try:
        state = load_state(args.state)
        delta = load_delta(args.delta)
    except InputError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    out = args.out or args.state
    budget = (
        SolveBudget(deadline_seconds=args.deadline)
        if args.deadline is not None
        else None
    )
    session = (
        obs.session(trace_path=args.trace,
                    label=f"resolve {args.state} + {args.delta}")
        if args.trace
        else contextlib.nullcontext()
    )
    try:
        with session:
            if args.checkpoint:
                from repro.robustness import GracefulShutdown

                with GracefulShutdown() as shutdown:
                    sol = online_resolve(
                        state, delta, budget=budget,
                        journal_path=args.checkpoint,
                        shutdown=shutdown,
                    )
            else:
                sol = online_resolve(state, delta, budget=budget)
    except SolveInterrupted as exc:
        # The state file is left untouched: mid-resolve session state is
        # not a valid snapshot. Finish via `repro resume JOURNAL`, then
        # re-establish the session with `repro solve --state`.
        return _report_interrupt(exc)
    except InputError as exc:
        print(f"bad delta: {exc}", file=sys.stderr)
        return 2
    except InfeasibleInstanceError as exc:
        save_state(out, state)  # patched-but-unsolved; later deltas may recover
        print(f"infeasible after delta: {exc}", file=sys.stderr)
        print(f"session state (no solution) saved to {out}; a later delta "
              f"may restore feasibility", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save_state(out, state)
    if args.trace:
        print(f"trace written to {args.trace}")
    info = state.last
    inst = state.instance
    fb = f" fallback={info.fallback}" if info.fallback else ""
    detail = (f"mode={info.mode}{fb} cycles={info.cycles_cancelled} "
              f"iterations={sol.iterations} state={out}")
    return _print_solution(
        inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
        paths=sol.paths, cost=sol.cost, delay=sol.delay,
        feasible=sol.delay_feasible, status=sol.status, cert=sol.certificate,
        detail=detail, lower_bound=sol.cost_lower_bound, verify=args.verify,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.eval.sweeps import Sweep, pivot, run_sweep

    params: dict[str, list] = {}
    for spec in args.param or []:
        if "=" not in spec:
            print(f"bad --param {spec!r}; expected name=v1,v2,...", file=sys.stderr)
            return 2
        name, raw = spec.split("=", 1)
        values = []
        for tok in raw.split(","):
            try:
                values.append(int(tok))
            except ValueError:
                values.append(float(tok))
        params[name] = values
    sweep = Sweep(
        family=args.family,
        family_params=params,
        solvers=args.solver or ["bicameral"],
        n_instances=args.n_instances,
        seed=args.seed,
    )
    if (args.resume or args.jsonl) and not args.parallel:
        print("--jsonl/--resume require --parallel (the durable record "
              "sink lives in the parallel harness)", file=sys.stderr)
        return 2
    if args.resume and not args.jsonl:
        print("--resume requires --jsonl PATH (the file to resume from)",
              file=sys.stderr)
        return 2
    session = _telemetry(
        args.trace, args.metrics_port, f"sweep {args.family} seed={args.seed}"
    )
    try:
        with session:
            if args.parallel and args.jsonl:
                from repro.robustness import GracefulShutdown

                with GracefulShutdown() as shutdown:
                    records = run_sweep(
                        sweep, parallel=True,
                        jsonl_path=args.jsonl, resume=args.resume,
                        shutdown=shutdown,
                    )
            else:
                records = run_sweep(sweep, parallel=args.parallel)
    except SolveInterrupted as exc:
        print(f"interrupted by signal {exc.signum}; completed trials are "
              f"durable in {exc.checkpoint_path}", file=sys.stderr)
        print(f"resume with: python -m repro sweep ... --parallel "
              f"--jsonl {exc.checkpoint_path} --resume", file=sys.stderr)
        return 128 + exc.signum
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        print(f"trace written to {args.trace}")
    print(
        pivot(
            records,
            row_key=lambda r: tuple(sorted((k, r.extra[k]) for k in params)),
        )
    )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.id not in EXPERIMENTS:
        print(f"unknown experiment {args.id!r}; choose from "
              f"{sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    headers, rows = EXPERIMENTS[args.id]()
    print(format_table(headers, rows, title=f"experiment {args.id}"))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.graph.generators import gnp_digraph, grid_digraph, waxman_digraph
    from repro.graph.weights import anticorrelated_weights, uniform_weights

    if args.family == "er":
        g = gnp_digraph(args.n, 0.35, rng=args.seed)
        s, t = 0, g.n - 1
    elif args.family == "grid":
        side = max(2, int(args.n**0.5))
        g, s, t = grid_digraph(side, side)
    elif args.family == "waxman":
        g, _ = waxman_digraph(args.n, rng=args.seed)
        s, t = 0, g.n - 1
    else:
        print(f"unknown family {args.family!r}", file=sys.stderr)
        return 2
    if args.weights == "anticorrelated":
        g = anticorrelated_weights(g, rng=args.seed + 1)
    else:
        g = uniform_weights(g, rng=args.seed + 1)
    bound = interesting_delay_bound(g, s, t, args.k, tightness=args.tightness)
    if bound is None:
        print("generated instance has no interesting budget band; "
              "try another seed", file=sys.stderr)
        return 3
    Path(args.output).write_text(
        json.dumps(instance_to_dict(g, s, t, args.k, bound))
    )
    print(f"wrote {args.output}: n={g.n} m={g.m} k={args.k} D={bound}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.oracle import SUBSTRATES, FuzzConfig, run_fuzz, write_report

    substrates = None
    if args.substrates:
        substrates = [s.strip() for s in args.substrates.split(",") if s.strip()]
        unknown = sorted(set(substrates) - set(SUBSTRATES))
        if unknown:
            print(f"unknown substrates {unknown}; choose from "
                  f"{sorted(SUBSTRATES)}", file=sys.stderr)
            return 2
    corpus_dir = None if args.no_corpus else args.corpus
    config = FuzzConfig(
        seed=args.seed,
        budget_seconds=args.budget,
        max_instances=args.max_instances,
        substrates=substrates,
        corpus_dir=corpus_dir,
        replay_corpus=not args.no_replay,
        shrink_failures=not args.no_shrink,
    )
    # Label the trace header with the run's inputs (mirroring `solve
    # --trace`) so diff/flamegraph reports can name what they compare.
    session = (
        obs.session(
            trace_path=args.trace,
            label=f"fuzz seed={args.seed} budget={args.budget:g}s",
        )
        if args.trace
        else contextlib.nullcontext()
    )
    try:
        with session:
            report = run_fuzz(config)
    except (ReproError, json.JSONDecodeError) as exc:
        print(f"error: corrupt corpus entry under {corpus_dir}: {exc}",
              file=sys.stderr)
        return 2
    d = report.as_dict()
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.report:
        write_report(report, args.report)
    print(f"fuzz: {d['instances_checked']} instances "
          f"({d['base_instances']} base, {d['transformed_instances']} transformed, "
          f"{d['corpus_replayed']} corpus) in {d['elapsed_seconds']:.1f}s")
    print(f"substrates: {', '.join(f'{k}={v}' for k, v in d['per_substrate'].items())}")
    print(f"transforms: {', '.join(f'{k}={v}' for k, v in d['per_transform'].items())}")
    if report.clean:
        print("clean: no differential, metamorphic, or invariant failures")
        return 0
    print(f"FAILURES: {len(report.failures)}", file=sys.stderr)
    for rec in report.failures:
        where = f" [reproducer: {rec.reproducer}]" if rec.reproducer else ""
        print(f"  {rec.kind}/{rec.solver} on {rec.label}: {rec.message}{where}",
              file=sys.stderr)
    return 1


def _load_trace_or_complain(path: str):
    """Load a trace for the CLI; returns ``None`` after printing the
    diagnosis (exit-2 discipline: garbage input is the caller's problem,
    reported in one line, never a traceback)."""
    from repro.obs.report import load_trace

    try:
        return load_trace(path)
    except (OSError, ValueError, InputError) as exc:
        print(f"error: cannot load trace {path!r}: {exc}", file=sys.stderr)
        return None


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report, report_json, validate_trace

    if args.diff:
        if args.trace_file:
            print("error: --diff A B takes its two traces as option "
                  "arguments; drop the positional trace file",
                  file=sys.stderr)
            return 2
        from repro.obs.diff import diff_json, diff_traces, render_diff

        a = _load_trace_or_complain(args.diff[0])
        b = _load_trace_or_complain(args.diff[1])
        if a is None or b is None:
            return 2
        d = diff_traces(a, b)
        if args.json:
            print(json.dumps(diff_json(d), indent=2, sort_keys=True))
        else:
            print(render_diff(d, top=args.top))
        return 0
    if not args.trace_file:
        print("error: a trace file is required (or use --diff A B)",
              file=sys.stderr)
        return 2
    trace = _load_trace_or_complain(args.trace_file)
    if trace is None:
        return 2
    if args.flamegraph:
        from repro.obs.flamegraph import fold_trace

        folded = fold_trace(trace)
        Path(args.flamegraph).write_text(folded.text())
        capped = (f" (capped {folded.capped_ns}ns of rounding jitter)"
                  if folded.capped_ns else "")
        print(f"wrote {args.flamegraph}: {len(folded.lines)} stacks from "
              f"{folded.span_count} spans, {folded.total_ns}ns self time "
              f"== {folded.root_total_ns}ns root time{capped}")
        print("render: flamegraph.pl {0} > out.svg, or load {0} in "
              "speedscope".format(args.flamegraph))
        return 0
    if args.validate:
        problems = validate_trace(trace)
        if problems:
            print(f"INVALID: {len(problems)} problem(s) in {args.trace_file}",
                  file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            return 1
        print(f"valid: {args.trace_file} (schema {trace.header.get('schema')}, "
              f"{len(trace.spans)} spans, {len(trace.events)} events, "
              f"{len(trace.counters)} counters)")
        return 0
    if args.json:
        print(json.dumps(report_json(trace, top=args.top), indent=2, sort_keys=True))
    else:
        print(render_report(trace, top=args.top))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    if args.metrics_command == "serve":
        return _metrics_serve(args)
    return _metrics_check(args)


def _metrics_serve(args: argparse.Namespace) -> int:
    import time

    from repro.obs.server import MetricsServer

    try:
        srv = MetricsServer(args.port, host=args.host,
                            allow_remote_push=args.allow_remote_push)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    print(f"metrics aggregator on {srv.url}/metrics (push endpoint "
          f"{srv.url}/push, health {srv.url}/healthz)")
    print("attach solves with: repro solve INST --metrics-port "
          f"{args.port}")
    try:
        if args.for_seconds is not None:
            time.sleep(args.for_seconds)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        srv.close()
    return 0


def _metrics_check(args: argparse.Namespace) -> int:
    from urllib.error import URLError
    from urllib.request import urlopen

    from repro.obs.promtext import parse_prometheus

    source = args.source
    try:
        if source.startswith(("http://", "https://")):
            with urlopen(source, timeout=5.0) as resp:
                text = resp.read().decode("utf-8")
        else:
            text = Path(source).read_text()
    except (OSError, URLError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {source!r}: {exc}", file=sys.stderr)
        return 2
    try:
        families = parse_prometheus(text)
    except InputError as exc:
        print(f"INVALID exposition format: {exc}", file=sys.stderr)
        return 1
    by_type: dict[str, int] = {}
    for fam in families.values():
        by_type[fam.type] = by_type.get(fam.type, 0) + 1
    kinds = ", ".join(f"{v} {k}" for k, v in sorted(by_type.items()))
    print(f"valid text-format 0.0.4: {len(families)} metric families "
          f"({kinds}) from {source}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.server import ServiceConfig, SolveService

    weights: dict[str, int] = {}
    for spec in args.tenant_weight or []:
        name, sep, raw = spec.partition("=")
        try:
            weight = int(raw)
            if not sep or not name or weight < 1:
                raise ValueError
        except ValueError:
            print(f"error: --tenant-weight wants NAME=W with W >= 1, "
                  f"got {spec!r}", file=sys.stderr)
            return 2
        weights[name] = weight

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        spool_dir=args.spool,
        metrics_port=args.metrics_port,
        default_deadline=args.default_deadline,
        max_queue=args.max_queue,
        tenant_weights=weights,
        allow_chaos=args.allow_chaos,
        warm=not args.no_warm,
    )

    async def _main() -> int:
        service = SolveService(config)
        try:
            await service.start()
        except OSError as exc:
            print(f"error: cannot bind {config.host}:{config.port}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"kRSP service ready on {service.url} "
              f"({config.workers} workers, spool {service.spool})",
              flush=True)
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, shutdown.set)
        drained = True
        try:
            if args.for_seconds is not None:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(shutdown.wait(), args.for_seconds)
            else:
                await shutdown.wait()
            print("draining: no new requests, finishing queued work...",
                  flush=True)
            drained = await service.drain(timeout=args.drain_timeout)
        finally:
            await service.stop()
        if not drained:
            print(f"error: drain timed out after {args.drain_timeout}s",
                  file=sys.stderr)
            return 1
        print("drained cleanly", flush=True)
        return 0

    return asyncio.run(_main())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="kRSP bifactor approximation (SPAA 2015)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a JSON instance")
    p_solve.add_argument("instance", help="instance JSON path")
    p_solve.add_argument("--phase1", default=DEFAULT_PROVIDER,
                         choices=list(PROVIDERS))
    p_solve.add_argument("--eps", type=float, default=None,
                         help="run the (1+eps, 2+eps) polynomial variant")
    p_solve.add_argument("--verify", action="store_true",
                         help="independently audit the returned solution")
    p_solve.add_argument("--deadline", type=float, default=None, metavar="S",
                         help="wall-clock budget in seconds; on exhaustion "
                              "the best valid solution found is returned "
                              "with status != ok (anytime semantics)")
    p_solve.add_argument("--fallback", action="store_true",
                         help="on tier failure degrade through the chain "
                              "bicameral -> lp_rounding_2_2 -> "
                              "greedy_sequential (shares --deadline)")
    p_solve.add_argument("--trace", default=None, metavar="OUT.JSONL",
                         help="record a telemetry trace (spans, counters, "
                              "events) to this JSONL file; inspect with "
                              "`repro trace OUT.JSONL`")
    p_solve.add_argument("--checkpoint", default=None, metavar="JOURNAL",
                         help="write a crash-safe write-ahead journal here; "
                              "if the process dies, `repro resume JOURNAL` "
                              "finishes the solve bit-identically")
    p_solve.add_argument("--state", default=None, metavar="STATE",
                         help="persist the solved instance + solution as an "
                              "online session; apply churn deltas to it "
                              "with `repro resolve` (docs/ONLINE.md)")
    p_solve.add_argument("--metrics-port", type=int, default=None, metavar="P",
                         help="publish live telemetry to a /metrics endpoint "
                              "on this localhost port (joins a running "
                              "`repro metrics serve` aggregator, else serves "
                              "in-process for the duration of the solve)")
    p_solve.set_defaults(func=cmd_solve)

    p_resolve = sub.add_parser(
        "resolve",
        help="apply a churn delta to an online session and re-solve warm",
    )
    p_resolve.add_argument("state", help="session state from solve --state "
                                         "or a previous resolve")
    p_resolve.add_argument("--delta", required=True, metavar="DELTA",
                           help="instance-delta/1 JSON file (docs/ONLINE.md)")
    p_resolve.add_argument("--out", default=None, metavar="STATE",
                           help="write the updated session here instead of "
                                "overwriting the input state")
    p_resolve.add_argument("--verify", action="store_true",
                           help="independently audit the returned solution")
    p_resolve.add_argument("--deadline", type=float, default=None, metavar="S",
                           help="wall-clock budget in seconds (anytime "
                                "semantics as in solve --deadline)")
    p_resolve.add_argument("--trace", default=None, metavar="OUT.JSONL",
                           help="record a telemetry trace (includes "
                                "online.* counters and the resolve event)")
    p_resolve.add_argument("--checkpoint", default=None, metavar="JOURNAL",
                           help="write a crash-safe journal for the warm "
                                "cancellation; `repro resume JOURNAL` "
                                "finishes a killed resolve bit-identically")
    p_resolve.set_defaults(func=cmd_resolve)

    p_resume = sub.add_parser(
        "resume", help="resume a crashed/interrupted checkpointed solve"
    )
    p_resume.add_argument("journal", help="journal path from solve --checkpoint")
    p_resume.add_argument("--verify", action="store_true",
                          help="independently audit the final solution")
    p_resume.add_argument("--trace", default=None, metavar="OUT.JSONL",
                          help="record a telemetry trace (includes the "
                               "re-emitted cancel.iteration trail and the "
                               "resume span)")
    p_resume.set_defaults(func=cmd_resume)

    p_sweep = sub.add_parser("sweep", help="run a parameter-grid sweep")
    p_sweep.add_argument("family", help="workload family name")
    p_sweep.add_argument("--param", action="append",
                         help="grid axis, e.g. --param n=10,14")
    p_sweep.add_argument("--solver", action="append",
                         default=None, help="solver name (repeatable)")
    p_sweep.add_argument("--n-instances", type=int, default=5)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--parallel", action="store_true")
    p_sweep.add_argument("--jsonl", default=None, metavar="PATH",
                         help="with --parallel: append every trial record "
                              "durably to this JSONL the moment it finishes")
    p_sweep.add_argument("--resume", action="store_true",
                         help="with --jsonl: skip trials that already have "
                              "a durable record (continue a killed sweep)")
    p_sweep.add_argument("--trace", default=None, metavar="OUT.JSONL",
                         help="record a telemetry trace of the whole sweep "
                              "to this JSONL file")
    p_sweep.add_argument("--metrics-port", type=int, default=None, metavar="P",
                         help="publish live sweep telemetry to a /metrics "
                              "endpoint on this localhost port (see "
                              "`repro metrics serve`)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_exp = sub.add_parser("experiment", help="run a registered experiment")
    p_exp.add_argument("id", help="experiment id (f1, f2, e1..e9)")
    p_exp.set_defaults(func=cmd_experiment)

    p_gen = sub.add_parser("generate", help="generate a random instance")
    p_gen.add_argument("--family", default="er", choices=["er", "grid", "waxman"])
    p_gen.add_argument("--weights", default="anticorrelated",
                       choices=["anticorrelated", "uniform"])
    p_gen.add_argument("--n", type=int, default=14)
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--tightness", type=float, default=0.5)
    p_gen.add_argument("-o", "--output", default="instance.json")
    p_gen.set_defaults(func=cmd_generate)

    p_fuzz = sub.add_parser(
        "fuzz", help="run the differential/metamorphic oracle under a budget"
    )
    p_fuzz.add_argument("--budget", type=float, default=30.0,
                        help="time budget in seconds (default 30)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="master seed; the instance stream is a pure "
                             "function of it")
    p_fuzz.add_argument("--max-instances", type=int, default=None,
                        help="also stop after this many instances")
    p_fuzz.add_argument("--substrates", default=None,
                        help="comma-separated substrate subset (default all)")
    p_fuzz.add_argument("--corpus", default="tests/corpus",
                        help="regression corpus directory (replayed first; "
                             "crashers land here)")
    p_fuzz.add_argument("--no-corpus", action="store_true",
                        help="disable the corpus entirely")
    p_fuzz.add_argument("--no-replay", action="store_true",
                        help="skip corpus replay (still saves crashers)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="save crashers unminimized")
    p_fuzz.add_argument("--report", default=None,
                        help="write a machine-readable JSON report here")
    p_fuzz.add_argument("--trace", default=None, metavar="OUT.JSONL",
                        help="record a telemetry trace of the whole fuzz "
                             "run to this JSONL file")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_trace = sub.add_parser(
        "trace", help="render, validate, diff, or export a telemetry trace"
    )
    p_trace.add_argument("trace_file", nargs="?", default=None,
                         help="trace JSONL path (from solve/sweep/fuzz "
                              "--trace); omitted with --diff")
    p_trace.add_argument("--validate", action="store_true",
                         help="schema-validate instead of rendering; exit 1 "
                              "on any problem")
    p_trace.add_argument("--json", action="store_true",
                         help="emit the machine-readable report (or --diff) "
                              "JSON")
    p_trace.add_argument("--top", type=int, default=10,
                         help="rows in the hot-span tree / diff tables "
                              "(default 10)")
    p_trace.add_argument("--diff", nargs=2, default=None,
                         metavar=("A.JSONL", "B.JSONL"),
                         help="compare two traces: counter drift ranked by "
                              "contribution, phase-share shift, wall clock")
    p_trace.add_argument("--flamegraph", default=None, metavar="OUT.COLLAPSED",
                         help="fold the span tree into collapsed-stack "
                              "format (flamegraph.pl / speedscope input)")
    p_trace.set_defaults(func=cmd_trace)

    p_metrics = sub.add_parser(
        "metrics", help="Prometheus endpoint: serve an aggregator or "
                        "validate exposition output"
    )
    metrics_sub = p_metrics.add_subparsers(dest="metrics_command",
                                           required=True)
    p_mserve = metrics_sub.add_parser(
        "serve", help="run a /metrics aggregator that solves push to"
    )
    p_mserve.add_argument("--port", type=int, required=True,
                          help="TCP port to listen on")
    p_mserve.add_argument("--host", default="127.0.0.1",
                          help="bind address (default 127.0.0.1)")
    p_mserve.add_argument("--for-seconds", type=float, default=None,
                          metavar="S",
                          help="exit after S seconds (default: run until "
                               "interrupted)")
    p_mserve.add_argument("--allow-remote-push", action="store_true",
                          help="accept /push from non-loopback sources "
                               "(default: loopback only, 403 otherwise)")
    p_mserve.set_defaults(func=cmd_metrics)
    p_mcheck = metrics_sub.add_parser(
        "check", help="validate a /metrics page (file or http URL) as "
                      "text-format 0.0.4"
    )
    p_mcheck.add_argument("source", help="path to a scraped exposition file, "
                                         "or an http(s)://.../metrics URL")
    p_mcheck.set_defaults(func=cmd_metrics)

    p_serve = sub.add_parser(
        "serve", help="run the kRSP solve service (docs/SERVICE.md)"
    )
    p_serve.add_argument("--port", type=int, default=8710,
                         help="TCP port to listen on (default 8710; 0 picks "
                              "a free port)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--workers", type=int, default=2, metavar="N",
                         help="solver worker processes (default 2)")
    p_serve.add_argument("--metrics-port", type=int, default=None, metavar="P",
                         help="publish service.* telemetry to a /metrics "
                              "endpoint on port P (reuses a running "
                              "`repro metrics serve` aggregator)")
    p_serve.add_argument("--spool", default=None, metavar="DIR",
                         help="directory for per-job status journals "
                              "(default: a private temp dir)")
    p_serve.add_argument("--default-deadline", type=float, default=None,
                         metavar="S",
                         help="deadline applied to requests that do not "
                              "set deadline_seconds")
    p_serve.add_argument("--max-queue", type=int, default=256,
                         help="admission cap; beyond it submissions get "
                              "HTTP 429 (default 256)")
    p_serve.add_argument("--tenant-weight", action="append", metavar="NAME=W",
                         help="give tenant NAME a dispatch weight of W "
                              "(repeatable; unlisted tenants weigh 1)")
    p_serve.add_argument("--for-seconds", type=float, default=None,
                         metavar="S",
                         help="begin draining after S seconds (default: "
                              "run until SIGTERM/SIGINT)")
    p_serve.add_argument("--drain-timeout", type=float, default=60.0,
                         metavar="S",
                         help="max seconds to wait for queued work on "
                              "shutdown (default 60)")
    p_serve.add_argument("--allow-chaos", action="store_true",
                         help="accept the test-only 'chaos' request field "
                              "(worker fault injection)")
    p_serve.add_argument("--no-warm", action="store_true",
                         help="skip pre-spawning the worker pool at start")
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
