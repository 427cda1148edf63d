#!/usr/bin/env python
"""CI wall-clock guard: budgeted solves must respect their deadline.

Runs the E10-style stress workload (the largest instances the repo solves
routinely) under ``SolveBudget(deadline_seconds=D)`` and fails when:

* any solve overruns ``D`` by more than ``--grace`` (default 25%, the
  contract stated in docs/ROBUSTNESS.md — cooperative checkpoints are
  spaced so one LP solve is the largest indivisible overrun), or
* any returned solution fails the independent auditor.

Each instance is also solved under ``SolveBudget(max_iterations=1)``; the
guard fails when such a solve cancels more than once, when its meter did
not count the iterations it ran (``certificate.iterations_used``), or when
the auditor rejects its answer, so the cap must reach the cancellation
loop.

Exit status: 0 when every solve honored the deadline and verified, 1
otherwise. Usage (CI runs this with the defaults)::

    PYTHONPATH=src python scripts/deadline_guard.py --deadline 2
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import solve_krsp
from repro.core.verify import verify_solution
from repro.errors import InfeasibleInstanceError
from repro.eval.workloads import er_anticorrelated
from repro.robustness import SolveBudget


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--deadline", type=float, default=2.0,
                        help="per-solve wall-clock budget in seconds")
    parser.add_argument("--grace", type=float, default=0.25,
                        help="allowed fractional overrun (0.25 = +25%%)")
    parser.add_argument("--sizes", default="20,30,40",
                        help="comma-separated instance sizes (E10 stress)")
    parser.add_argument("--n-instances", type=int, default=2)
    args = parser.parse_args(argv)

    limit = args.deadline * (1.0 + args.grace)
    violations: list[str] = []
    solves = 0
    worst = 0.0
    for n in (int(tok) for tok in args.sizes.split(",")):
        for k in (2, 3):
            instances = er_anticorrelated(
                n=n, p=min(0.3, 6.0 / n + 0.1), k=k,
                n_instances=args.n_instances, seed=10_000 + n * 10 + k,
            )
            for inst in instances:
                start = time.perf_counter()
                try:
                    sol = solve_krsp(
                        inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
                        budget=SolveBudget(deadline_seconds=args.deadline),
                    )
                except InfeasibleInstanceError:
                    continue  # a property of the instance, not of the budget
                elapsed = time.perf_counter() - start
                solves += 1
                worst = max(worst, elapsed)
                label = f"n={n} k={k} seed={inst.seed}"
                if elapsed > limit:
                    violations.append(
                        f"{label}: {elapsed:.3f}s > {limit:.3f}s "
                        f"(deadline {args.deadline}s +{args.grace:.0%})"
                    )
                    continue
                capped = solve_krsp(
                    inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
                    budget=SolveBudget(max_iterations=1),
                )
                counted = capped.certificate.iterations_used
                if capped.iterations > 1 or counted != capped.iterations:
                    violations.append(
                        f"{label}: {capped.iterations} iterations, {counted} "
                        f"metered, under max_iterations=1 "
                        f"(status={capped.status})"
                    )
                for tag, answer in (("deadline", sol), ("max_iterations=1", capped)):
                    report = verify_solution(
                        inst.graph, inst.s, inst.t, inst.k, inst.delay_bound,
                        answer.paths,
                    )
                    if not (report.valid and report.delay_feasible):
                        violations.append(
                            f"{label}: unverifiable answer under {tag} budget "
                            f"(status={answer.status}): {report.issues}"
                        )

    print(f"deadline guard: {solves} deadline solves, worst {worst:.3f}s "
          f"against a {limit:.3f}s limit; each also under max_iterations=1")
    if violations:
        print(f"FAILED: {len(violations)} violation(s)", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print("ok: every solve honored its budget and verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
