#!/usr/bin/env python
"""Performance gate over pinned solver kernels (PR 4, extended PR 9).

Runs a fixed set of kernels drawn from the benchmark suite's experiment
areas (E5 cancellation, E6 bicameral finder, E7 full solver, E10 stress
scale, F2 auxiliary-graph construction), records median wall-clock plus the
deterministic telemetry-counter snapshot of each, and enforces these gates:

* **Regression gate** — any pinned kernel more than ``--tolerance`` (15%
  default) slower than the committed ``BENCH_PR9.json`` baseline fails the
  run. Skipped under ``--quick`` (CI hardware is not the baseline's).
  Failures carry a counter-drift attribution block (via
  :mod:`repro.obs.diff`): the kernels are deterministic, so moved counters
  name the behavioural cause, while identical counters point at the
  machine.
* **Online resolve gate (PR 6)** — warm re-solving a pinned E10-scale
  churn trace through :func:`repro.online.resolve` must beat from-scratch
  ``solve_krsp`` replays of the same instance sequence by >= 2x (median,
  ratio-gated: a ratio measured on the same machine in the same process,
  so it holds on any hardware and runs under ``--quick`` too). The warm
  replay's median is also regression-gated against the committed
  ``BENCH_PR6.json`` in full mode.

The solver's inner layers are gated by deterministic counters instead
(enforced in every mode, including ``--quick`` — counters don't depend on
hardware):

* **Flow-LP gate** — the default solve takes its phase-1 start and its
  exact lower bound from Lagrangian min-cost flows, so the E7 full-solver
  kernel must make no ``lp.flow_lp.solves`` at all. Neither may the E10
  warm churn replay (``kernel_online_warm``), whose bound refreshes run
  the same walk from the session's last multiplier. (This replaced an E5
  ``lp.pivots`` ceiling that passed at 0 once the ratio search left HiGHS.)
* **Ratio search gate** — the exact ratio search
  (:func:`repro.core.auxlp.min_ratio_cycle`) is held to a deterministic
  ``search.ratio.newton_steps`` ceiling on the E5 cancellation kernel, so a change
  that makes the Newton iteration converge more slowly fails in every
  mode.
* **Aux-graph gate** — the layered graphs the bicameral sweep builds are
  held to a deterministic ``search.aux_edges`` ceiling on the same kernel,
  so a change that makes the sweep build more or larger levels fails.
  (This replaced wall-clock speedup floors on a synthetic residual drift
  that timed an aux-graph cache no benchmark workload ever hit.)

Reports go to ``.bench_build/`` unless ``--out``/``--online-out`` say
otherwise; only ``--update-baseline`` rewrites the committed baselines.

Usage::

    PYTHONPATH=src python scripts/bench_gate.py              # full gate
    PYTHONPATH=src python scripts/bench_gate.py --quick      # CI mode
    PYTHONPATH=src python scripts/bench_gate.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro._util.atomicio import atomic_write_json  # noqa: E402
from repro.obs.diff import format_drift_block, rank_counter_drift  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "BENCH_PR9.json"
ONLINE_BASELINE = REPO_ROOT / "BENCH_PR6.json"
# Where a run that does not update the baselines writes its reports.
SCRATCH_OUT = REPO_ROOT / ".bench_build" / "bench_gate.json"
SCRATCH_ONLINE_OUT = REPO_ROOT / ".bench_build" / "bench_online.json"
SCHEMA = "bench-gate/1"
ONLINE_SCHEMA = "bench-online/1"

# The online resolve floor is the PR 6 acceptance bar: warm re-solving a
# pinned E10-scale churn trace must beat from-scratch solving by >= 2x.
SPEEDUP_FLOORS = {
    "e10_online_resolve": 2.0,
}

# Deterministic flow-LP ceilings per kernel: the default phase-1 provider
# and lower bound solve no HiGHS flow LP, and neither does the online
# bound refresh (the E10 warm replay, kernel_online_warm). Enforced in
# every mode including --quick: counters are machine-independent.
FLOW_LP_CEILINGS = {
    "e7_solver": 0,
    "e10_online_warm": 0,
}
# Deterministic Newton-step ceilings per kernel: the E5 measurement once
# each sign's search starts from its optimum at the sweep level below
# (11 passes after the first; 106 when every search started fresh) plus 5%.
NEWTON_STEP_CEILINGS = {
    "e5_cancellation": 12,
}
# Deterministic aux-graph size ceilings per kernel: the E5 measurement once
# levels ruled out on the residual build no aux graph (203,659 edges built;
# 203,927 before) plus 5%.
AUX_EDGE_CEILINGS = {
    "e5_cancellation": 213_842,
}
# Budget levels of the F2 construction kernel — a pinned prefix of the
# production finder's doubling schedule.
B_VALUES = (1, 2, 4, 8, 16)


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _counters_of(fn) -> dict:
    from repro import obs

    with obs.session(label="bench_gate") as tel:
        fn()
    return {k: v for k, v in sorted(tel.counters.items())}


# ---------------------------------------------------------------------------
# pinned end-to-end kernels (regression-gated)
# ---------------------------------------------------------------------------


def _pinned_instances(n, count, seed, k=2):
    from repro.eval.workloads import er_anticorrelated

    return list(er_anticorrelated(n=n, n_instances=count, seed=seed, k=k))


def kernel_e5_cancellation():
    """A handful of full cancellation runs (production finder)."""
    from repro.core import KRSPInstance, cancel_to_feasibility
    from repro.core.phase1 import phase1_minsum
    from repro.errors import ReproError

    for inst in _pinned_instances(n=10, count=2, seed=6500):
        problem = KRSPInstance(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
        try:
            start = phase1_minsum(problem).solution
            cancel_to_feasibility(problem, start)
        except ReproError:
            continue


def _delay_infeasible_start(n, seed):
    from repro.core.instance import KRSPInstance
    from repro.core.phase1 import phase1_minsum

    for inst in _pinned_instances(n=n, count=8, seed=seed):
        problem = KRSPInstance(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
        try:
            start = phase1_minsum(problem).solution
        except Exception:  # noqa: BLE001 — workload scan, skip infeasible
            continue
        if start.delay > inst.delay_bound:
            return inst.graph, start
    raise SystemExit("bench_gate: no delay-infeasible start in pinned workload")


def kernel_e6_finder():
    """One exhaustive (no-early-exit) bicameral candidate sweep."""
    from repro.core import build_residual, find_bicameral_candidates

    g, start = _E6_FIXTURE
    residual = build_residual(g, start.edge_ids)
    find_bicameral_candidates(residual)


def kernel_e7_solver():
    """Full solver on one pinned mid-size instance."""
    from repro.core.krsp import solve_krsp
    from repro.errors import ReproError

    for inst in _pinned_instances(n=12, count=4, seed=712):
        try:
            solve_krsp(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
        except ReproError:
            pass


def kernel_e10_stress():
    """Full solver at stress scale (n = 20, the gate-budget slice of E10)."""
    from repro.core.krsp import solve_krsp
    from repro.errors import ReproError

    # Index 3 of this workload needs real cancellation work (the first
    # three are phase-1 feasible and would time nothing but phase 1).
    inst = _pinned_instances(n=20, count=4, seed=1020)[3]
    try:
        solve_krsp(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
    except ReproError:
        pass


def kernel_f2_auxgraph():
    """Figure-2 auxiliary-graph constructions, paper and shifted variants."""
    from repro.core import build_aux_paper, build_residual
    from repro.core.auxgraph import build_aux_shifted
    from repro.eval.experiments import figure2_instance

    g, ids, path = figure2_instance()
    residual = build_residual(g, path)
    for b in B_VALUES:
        build_aux_shifted(residual.graph, b)
    for anchor in (ids["x"], ids["y"], ids["z"]):
        for sign in (+1, -1):
            build_aux_paper(residual.graph, anchor, 6, sign)


KERNELS = {
    "e5_cancellation": kernel_e5_cancellation,
    "e6_finder": kernel_e6_finder,
    "e7_solver": kernel_e7_solver,
    "e10_stress": kernel_e10_stress,
    "f2_auxgraph": kernel_f2_auxgraph,
}

_E6_FIXTURE = None


# ---------------------------------------------------------------------------
# online warm-vs-cold resolve kernel (PR 6, ratio-gated + BENCH_PR6.json)
# ---------------------------------------------------------------------------

# Pinned E10-scale churn workload: an n = 40 anticorrelated ER instance
# under an 8-delta feasibility-preserving churn trace.
# Churn seed 62 is pinned because its replay stays warm on every step —
# the kernel measures the warm path, not the (separately tested) fallback
# taxonomy — and because none of its deltas tighten the delay budget into
# a cancellation blow-up that would swamp the timing with LP solves.
ONLINE_N = 40
ONLINE_WORKLOAD_SEED = 1040
ONLINE_CHURN_SEED = 62
ONLINE_STEPS = 8

_ONLINE_FIXTURE = None


def _online_fixture():
    """(base workload instance, pinned churn trace), built once."""
    global _ONLINE_FIXTURE
    if _ONLINE_FIXTURE is None:
        from repro.oracle import generate_churn_trace
        from repro.oracle.instances import OracleInstance

        w = _pinned_instances(n=ONLINE_N, count=1, seed=ONLINE_WORKLOAD_SEED)[0]
        inst = OracleInstance(
            graph=w.graph,
            s=w.s,
            t=w.t,
            k=w.k,
            delay_bound=w.delay_bound,
            label="bench-e10-online",
            substrate="er_anticorrelated",
            seed=ONLINE_WORKLOAD_SEED,
        )
        trace = generate_churn_trace(inst, ONLINE_STEPS, rng=ONLINE_CHURN_SEED)
        _ONLINE_FIXTURE = (w, trace)
    return _ONLINE_FIXTURE


def kernel_online_warm():
    """Warm replay: one cold start, then ``resolve`` per churn delta."""
    from repro.online import resolve, start_online

    w, trace = _online_fixture()
    state = start_online(w.graph, w.s, w.t, w.k, w.delay_bound)
    for delta in trace.deltas:
        resolve(state, delta)


def kernel_online_cold():
    """Cold replay: a from-scratch solve of every post-delta instance."""
    from repro.core.krsp import solve_krsp
    from repro.oracle import replay_instances

    w, trace = _online_fixture()
    solve_krsp(w.graph, w.s, w.t, w.k, w.delay_bound)
    for _step, _delta, g, s, t, k, bound in replay_instances(trace):
        solve_krsp(g, s, t, k, bound)


def measure_online_resolve(repeats: int) -> dict:
    """Warm-vs-cold medians, ratio, and the warm replay's mode ledger.

    Both closures include the one unavoidable cold solve of the base
    instance (``start_online`` on the warm side), so the ratio compares
    equal step counts: 1 base + ``ONLINE_STEPS`` churn states each.
    """
    from repro.online import resolve, start_online

    w, trace = _online_fixture()
    kernel_online_warm()  # warm imports and the LP solver before timing
    t_warm = _median_time(kernel_online_warm, repeats)
    t_cold = _median_time(kernel_online_cold, repeats)

    state = start_online(w.graph, w.s, w.t, w.k, w.delay_bound)
    modes = []
    for delta in trace.deltas:
        resolve(state, delta)
        modes.append(
            state.last.mode
            if state.last.fallback is None
            else f"cold:{state.last.fallback}"
        )

    return {
        "ratio": round(t_cold / t_warm, 3) if t_warm > 0 else float("inf"),
        "floor": SPEEDUP_FLOORS["e10_online_resolve"],
        "warm_median_s": round(t_warm, 6),
        "cold_median_s": round(t_cold, 6),
        "repeats": repeats,
        "n": ONLINE_N,
        "steps": len(trace.deltas),
        "workload_seed": ONLINE_WORKLOAD_SEED,
        "churn_seed": ONLINE_CHURN_SEED,
        "modes": modes,
        "counters": _counters_of(kernel_online_warm),
    }


# ---------------------------------------------------------------------------
# gate driver
# ---------------------------------------------------------------------------


def _attribution(base_counters, counters) -> str:
    """Counter-drift attribution block for a regression failure.

    The kernels are deterministic, so a wall-clock regression with moved
    counters names its own cause ("lp.pivots grew 40%"); identical counters
    mean the machine, not the code, changed. Rendered via the same
    :func:`repro.obs.diff.format_drift_block` that ``repro trace --diff``
    uses.
    """
    if not base_counters:
        return "\n      (no baseline counters to attribute against)"
    drifts = rank_counter_drift(base_counters, counters)
    lines = ["    counter drift (baseline -> current), by contribution:"]
    lines += format_drift_block(drifts, top=8, indent="      ")
    return "\n" + "\n".join(lines)


def run_gate(args) -> int:
    global _E6_FIXTURE
    _E6_FIXTURE = _delay_infeasible_start(n=10, seed=6100)

    repeats = 3 if args.quick else args.repeats
    baseline = None
    if args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())

    report = {"schema": SCHEMA, "quick": bool(args.quick), "kernels": {}}
    failures = []

    for name, fn in KERNELS.items():
        fn()  # warm imports and caches outside the timed region
        median = _median_time(fn, repeats)
        counters = _counters_of(fn)
        report["kernels"][name] = {
            "median_s": round(median, 6),
            "repeats": repeats,
            "counters": counters,
        }
        line = f"{name:18s} median {median * 1e3:9.2f} ms"
        if baseline and not args.quick and not args.update_baseline:
            base = baseline["kernels"].get(name, {}).get("median_s")
            if base:
                rel = median / base - 1.0
                line += f"  ({rel:+.1%} vs baseline)"
                if rel > args.tolerance:
                    failures.append(
                        f"{name}: {median:.4f}s is {rel:.1%} over baseline "
                        f"{base:.4f}s (tolerance {args.tolerance:.0%})"
                        + _attribution(
                            baseline["kernels"].get(name, {}).get("counters"),
                            counters,
                        )
                    )
        print(line)

    # -- deterministic counter ceilings: flow-LP solves, Newton steps and
    # aux-graph edges
    kernel_counters = {
        name: entry["counters"] for name, entry in report["kernels"].items()
    }
    kernel_counters["e10_online_warm"] = _counters_of(kernel_online_warm)
    for block, key, counter, ceilings in (
        ("flow_lp", "solves", "lp.flow_lp.solves", FLOW_LP_CEILINGS),
        ("ratio_search", "newton_steps", "search.ratio.newton_steps",
         NEWTON_STEP_CEILINGS),
        ("aux_graph", "aux_edges", "search.aux_edges", AUX_EDGE_CEILINGS),
    ):
        values = {
            name: counters.get(counter, 0)
            for name, counters in kernel_counters.items()
        }
        report[block] = {key: values, "ceilings": ceilings}
        for kname, ceiling in ceilings.items():
            print(f"{kname:18s} {counter} {values[kname]:7d} (ceiling {ceiling})")
            if values[kname] > ceiling:
                failures.append(
                    f"{kname}: {counter} {values[kname]} exceeds the ceiling {ceiling}"
                )

    online = measure_online_resolve(repeats)
    print(
        f"{'e10_online_resolve':18s} speedup {online['ratio']:6.2f}x "
        f"(floor {online['floor']}x)  warm {online['warm_median_s'] * 1e3:.2f} ms  "
        f"cold {online['cold_median_s'] * 1e3:.2f} ms"
    )
    if online["ratio"] < online["floor"]:
        failures.append(
            f"e10_online_resolve: warm-vs-cold speedup {online['ratio']}x "
            f"below the {online['floor']}x floor"
        )
    if args.online_baseline.exists() and not args.quick and not args.update_baseline:
        base = json.loads(args.online_baseline.read_text())
        base_warm = base.get("online", {}).get("warm_median_s")
        if base_warm:
            rel = online["warm_median_s"] / base_warm - 1.0
            print(f"{'':18s} warm replay {rel:+.1%} vs baseline")
            if rel > args.tolerance:
                failures.append(
                    f"e10_online_resolve: warm replay {online['warm_median_s']:.4f}s "
                    f"is {rel:.1%} over baseline {base_warm:.4f}s "
                    f"(tolerance {args.tolerance:.0%})"
                    + _attribution(
                        base.get("online", {}).get("counters"),
                        online["counters"],
                    )
                )
    online_report = {
        "schema": ONLINE_SCHEMA,
        "quick": bool(args.quick),
        "online": online,
    }
    atomic_write_json(args.online_out, online_report, indent=2, sort_keys=True)

    atomic_write_json(args.out, report, indent=2, sort_keys=True)
    print(f"wrote {args.out} and {args.online_out}")

    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line and resolve where the reports go: the
    baselines under ``--update-baseline``, else the scratch paths."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: fewer repeats, skip the hardware-dependent baseline "
        "comparison (the online speedup ratio and the counter ceilings are "
        "still enforced)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats per kernel"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed relative regression vs baseline medians",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="committed baseline JSON to compare against",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=f"where to write the report (default {SCRATCH_OUT.relative_to(REPO_ROOT)}, "
        "or --baseline under --update-baseline)",
    )
    parser.add_argument(
        "--online-baseline",
        type=Path,
        default=ONLINE_BASELINE,
        help="committed online-resolve baseline JSON to compare against",
    )
    parser.add_argument(
        "--online-out",
        type=Path,
        default=None,
        help="where to write the online-resolve report (default "
        f"{SCRATCH_ONLINE_OUT.relative_to(REPO_ROOT)}, or --online-baseline "
        "under --update-baseline)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="skip the regression comparison and rewrite the baselines",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = args.baseline if args.update_baseline else SCRATCH_OUT
    if args.online_out is None:
        args.online_out = (
            args.online_baseline if args.update_baseline else SCRATCH_ONLINE_OUT
        )
    return args


def main(argv=None) -> int:
    return run_gate(parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
