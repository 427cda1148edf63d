#!/usr/bin/env python
"""Profile the solver on a seeded workload — the guides' "no optimization
without measuring" entry point, rewired onto the telemetry layer.

    PYTHONPATH=src python scripts/profile_solver.py [--n 14] [--instances 5]
        [--eps 0.5] [--phase1 lp_rounding] [--top 15]
        [--trace out.jsonl] [--cprofile]

The whole run executes inside one :func:`repro.obs.session`, so the output
is the same report ``repro trace`` renders: phase-time breakdown over the
root spans, the hot-span *tree* (who spends the time, and under whom —
ratio-LP solves inside the bicameral sweep vs the flow LP inside the lower
bound), and the solver-work counters. That replaces the old raw cProfile
dump as the default view; pass ``--cprofile`` to additionally print the
classic top-functions table when you need line-level attribution, and
``--trace out.jsonl`` to keep the machine-readable trace for later
``repro trace`` / ``repro trace --json`` runs.
"""

from __future__ import annotations

import argparse

from repro import obs
from repro.core import solve_krsp
from repro.core.phase1 import DEFAULT_PROVIDER, PROVIDERS
from repro.errors import ReproError
from repro.eval.workloads import er_anticorrelated
from repro.obs.report import Trace, render_report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=14)
    parser.add_argument("--instances", type=int, default=5)
    parser.add_argument("--eps", type=float, default=None)
    parser.add_argument("--phase1", default=DEFAULT_PROVIDER, choices=list(PROVIDERS))
    parser.add_argument("--top", type=int, default=15,
                        help="rows in the hot-span tree")
    parser.add_argument("--trace", default=None, metavar="OUT.JSONL",
                        help="also write the telemetry trace here")
    parser.add_argument("--cprofile", action="store_true",
                        help="additionally print the cProfile top functions")
    args = parser.parse_args()

    instances = list(
        er_anticorrelated(n=args.n, n_instances=args.instances, seed=515, tightness=0.7)
    )
    if not instances:
        print("workload emitted no instances; change parameters")
        return 1

    profiler = None
    if args.cprofile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    solved = 0
    with obs.session(trace_path=args.trace, label="profile_solver") as tel:
        for inst in instances:
            try:
                solve_krsp(
                    inst.graph,
                    inst.s,
                    inst.t,
                    inst.k,
                    inst.delay_bound,
                    phase1=args.phase1,
                    eps=args.eps,
                )
            except ReproError:
                continue
            solved += 1

    if profiler is not None:
        profiler.disable()

    print(f"solved {solved}/{len(instances)} instances\n")
    print(render_report(Trace.from_session(tel), top=args.top))
    if args.trace:
        print(f"\ntrace written to {args.trace}")

    if profiler is not None:
        import io
        import pstats

        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(15)
        print(stream.getvalue())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
