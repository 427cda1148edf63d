#!/usr/bin/env python
"""Telemetry overhead gate: obs primitives priced against a Figure-1 solve.

Counts the telemetry primitive calls (counter writes, spans, events,
histogram observations) that one Figure-1 solve makes, prices them at
each primitive's measured per-call cost, and requires the total to stay
under 5% of the median solve time, in two modes:

* **disabled** — tracing off; priced at the generous per-solve budget
  :data:`DISABLED_CEILINGS`, far above what the solve makes;
* **enabled** — a session recording, histograms fed and a live
  ``/metrics`` publisher attached on its own thread; priced at the calls
  the solve really makes (each under :data:`ENABLED_CEILINGS`).

Per-call costs are the minimum over repeated batches, as ``timeit``
takes them: scheduler noise only ever adds time. Still a wall-clock
ratio, so it runs in CI's perf job, not in the unit tests; those
(``tests/test_obs.py::TestOverheadGuard``) hold the deterministic call
counts under the same ceilings.

Usage::

    PYTHONPATH=src python scripts/obs_overhead_gate.py

Exit status 1 when either mode exceeds the 5% bar.
"""

from __future__ import annotations

import itertools
import math
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.core.krsp import solve_krsp  # noqa: E402
from repro.eval.experiments import figure1_instance  # noqa: E402
from repro.obs.spans import span  # noqa: E402

#: Share of the solve time the priced primitive calls may take.
BAR = 0.05

#: Per-solve call budget priced with tracing disabled. ``counter`` covers
#: the counters-module writes (``add``, ``inc``, ``gauge``).
DISABLED_CEILINGS = {"counter": 200, "span": 100, "emit": 50}

#: Per-solve call ceilings with tracing enabled. A closing span also feeds
#: its histogram, so explicit ``observe`` calls are capped at the span
#: ceiling plus the one solve-level latency observation.
ENABLED_CEILINGS = {"counter": 200, "span": 100, "observe": 101, "emit": 50}

PRIMITIVES = ("add", "inc", "gauge", "emit", "observe")


def figure1():
    """The Figure-1 gadget as ``(graph, s, t, k, D)``."""
    g, ids = figure1_instance(6, 10)
    return g, ids["s"], ids["t"], 2, 6


def solve(instance) -> None:
    solve_krsp(*instance, phase1="minsum")


def count_primitive_calls(instance, enabled: bool) -> dict[str, int]:
    """Primitive calls of one solve of ``instance``, by primitive.

    Counts go through the public ``repro.obs`` functions and, for spans,
    ``span.__enter__`` (decorators and ``Timer`` hold span objects); the
    key ``counter`` sums ``add``, ``inc`` and ``gauge``. Deterministic:
    the solve makes the same calls on every run.
    """
    calls = dict.fromkeys((*PRIMITIVES, "span"), 0)
    saved = {name: getattr(obs, name) for name in PRIMITIVES}
    enter = span.__enter__

    def counted_enter(self):
        calls["span"] += 1
        return enter(self)

    for name, fn in saved.items():
        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        setattr(obs, name, counted)
    span.__enter__ = counted_enter
    try:
        if enabled:
            with obs.session(label="count"):
                solve(instance)
        else:
            solve(instance)
    finally:
        span.__enter__ = enter
        for name, fn in saved.items():
            setattr(obs, name, fn)
    calls["counter"] = calls["add"] + calls["inc"] + calls["gauge"]
    return calls


def over_ceilings(calls: dict[str, int], ceilings: dict[str, int]) -> list[str]:
    """The primitives whose call count exceeds its ceiling."""
    return [
        f"{name} {calls[name]} > {cap}"
        for name, cap in ceilings.items()
        if calls[name] > cap
    ]


def median_solve_seconds(instance, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        solve(instance)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_call(fn, reps: int = 5_000, repeats: int = 5) -> float:
    """Seconds per call of ``fn``: the least of ``repeats`` batches."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in itertools.repeat(None, reps):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / reps


def _one_span() -> None:
    with obs.span("x"):
        pass


def primitive_costs() -> dict[str, float]:
    """Per-call cost of each primitive under the current tracing state."""
    return {
        "add": per_call(lambda: obs.add("x", 3)),
        "inc": per_call(lambda: obs.inc("x")),
        "gauge": per_call(lambda: obs.gauge("x.g", 1.0)),
        "emit": per_call(lambda: obs.emit("x")),
        "observe": per_call(lambda: obs.observe("x.latency", 1e-4)),
        "span": per_call(_one_span),
    }


def disabled_overhead() -> tuple[float, float]:
    """``(priced budget, median solve seconds)`` with tracing disabled."""
    assert not obs.enabled()
    instance = figure1()
    solve_seconds = median_solve_seconds(instance)
    cost = primitive_costs()
    counter_cost = max(cost["add"], cost["inc"], cost["gauge"])
    budget = (
        DISABLED_CEILINGS["counter"] * counter_cost
        + DISABLED_CEILINGS["span"] * cost["span"]
        + DISABLED_CEILINGS["emit"] * cost["emit"]
    )
    return budget, solve_seconds


def enabled_overhead() -> tuple[float, float, dict[str, int]]:
    """``(priced calls, median solve seconds, calls)`` with tracing enabled
    and a live ``/metrics`` publisher attached."""
    from repro.obs.server import MetricsPublisher, MetricsServer

    instance = figure1()
    solve_seconds = median_solve_seconds(instance)
    calls = count_primitive_calls(instance, enabled=True)
    srv = MetricsServer(0)
    try:
        with obs.session(label="overhead") as tel:
            publisher = MetricsPublisher(srv.url, tel, "overhead", interval=0.05)
            cost = primitive_costs()
            publisher.close()
    finally:
        srv.close()
    budget = sum(calls[name] * cost[name] for name in (*PRIMITIVES, "span"))
    return budget, solve_seconds, calls


def main() -> int:
    failed = False
    budget, solve_seconds = disabled_overhead()
    ok = budget < BAR * solve_seconds
    failed |= not ok
    print(
        f"disabled: budget {budget * 1e6:.1f} us of solve {solve_seconds * 1e3:.2f} ms "
        f"({budget / solve_seconds:.2%}, bar {BAR:.0%}) {'ok' if ok else 'FAIL'}"
    )
    budget, solve_seconds, calls = enabled_overhead()
    over = over_ceilings(calls, ENABLED_CEILINGS)
    ok = budget < BAR * solve_seconds and not over
    failed |= not ok
    print(
        f"enabled: {calls} cost {budget * 1e6:.1f} us of solve "
        f"{solve_seconds * 1e3:.2f} ms ({budget / solve_seconds:.2%}, bar {BAR:.0%})"
        f"{'; over ceilings: ' + ', '.join(over) if over else ''} "
        f"{'ok' if ok else 'FAIL'}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
