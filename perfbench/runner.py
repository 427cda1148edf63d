"""Measurement loops and metric assembly behind ``run.py``.

Closed-loop workloads run one operation after another (one client) and
time only ``Op.run``; ``ops_per_s`` is correct operations per second of
that busy time. They are timed, set-up included, by the process CPU clock:
the loop is single-threaded and compute-bound, and on a shared host the
hypervisor's steal moved wall-clock medians by up to 2x between runs while
CPU time stayed within a few percent. The run record keeps the wall-clock
median beside it. The open-loop service workload, where waiting is what
is measured, uses wall-clock time throughout: every request is timed from
when it was due, and ``ops_per_s`` is goodput, correct answers within
``loadgen.LATENCY_LIMIT_S`` per second of wall time.

Even CPU time drifts with the host's speed over minutes, so latencies
are scaled to a reference host speed by the loop of ``calibrate.py``,
timed in the same run: each closed-loop operation by the samples just
before and after it (a run-level factor fitted medians but not tails,
because slow moments come and go within a run), and each service request
by the samples taken on both of the service's CPUs in the idle gaps
before and after its ``SEGMENT_S`` window of the schedule (samples taken
only before and after the whole load tracked the host worse than no
scaling). Closed-loop ``ops_per_s`` follows from the scaled latencies;
the service's goodput, paced by its offered rate, is not scaled.
Closed-loop set-up is scaled by the samples between its repetitions; the
service's wall-clock set-up is not. Over ten runs, scaling cut the spread
of closed-loop ``latency_p50_s`` from 0.13-0.44 to 0.04-0.10. The run
record keeps the unscaled values and every calibration sample. Per-layer
metrics are not scaled.
"""

from __future__ import annotations

import time
from pathlib import Path

import calibrate
import fixtures
import loadgen
import stats
import tracer

#: Set-up is repeated this many times per run; ``setup_s`` is the import
#: time plus the median repetition.
SETUP_REPEATS = 3

#: Closed loops time the calibration loop this often (wall seconds),
#: between operations, and their set-up takes this many samples before
#: each repetition and after the last.
CALIBRATE_EVERY_S = 0.5
CALIBRATE_SAMPLES = 3

#: The service workload's schedule runs in windows of this many seconds,
#: with ``CALIBRATE_SAMPLES`` samples on each of its two CPUs between them.
SEGMENT_S = 2.0

#: Tail percentile per workload, pinned so runs compare like with like:
#: each leaves at least ten samples beyond it at the workload's usual
#: operation count (a run short of samples falls back to a lower one and
#: records it). The service's 300 requests would allow p95, but a burst of
#: host noise moved its p95 across runs more than its p90 in every
#: variant tried (ten-run spreads up to 0.28 against 0.21).
TAIL_PERCENTILE = {
    "tight_budget": 75.0,
    "loose_budget": 95.0,
    "online_churn": 95.0,
    "service_open_loop": 90.0,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "cost_over_opt": "ratio",
    "peak_rss_mb": "MB",
}

#: Program counters the traced run reads (``repro.obs`` names).
COUNTERS = (
    "lp.pivots",
    "lp.ratio_lp.solves",
    "lp.flow_lp.solves",
    "cancellation.iterations",
    "mincost.dijkstra_pops",
    "search.aux_cache.hit",
    "search.aux_cache.miss",
    "online.warm",
    "online.cold",
)

SERVICE_UNITS = {
    "service.queue_wait_p50_s": "s",
    "service.queue_wait_tail_s": "s",
    "service.worker_p50_s": "s",
    "service.frontend_p50_s": "s",
    "service.dedup_hit_ratio": "ratio",
    "service.degraded_fraction": "ratio",
    "bench.generator_late_max_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in tracer.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.share"] = "ratio"
    units.update({
        "lp.pivots": "count",
        "cancellation.iterations": "count",
        "mincost.dijkstra_pops": "count",
        "search.lp_per_iteration": "ratio",
        "search.aux_cache.hit_ratio": "ratio",
        "online.warm_fraction": "ratio",
    })
    units.update(SERVICE_UNITS)
    units["bench.trace_overhead_s"] = "s"
    return units


class Tally:
    """Outcomes of one measured phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.ratios: list[float] = []
        self.failures: list[dict] = []
        self.calibration: list[float] = []  # calibrate.sample() times
        self.cal_at: list[int] = []  # per operation: last sample before it
        self.attempted = 0
        self.good = 0  # correct and (open loop) within the latency limit

    def add(self, label: str, latency: float, wall: float, ratio, error,
            good: bool = True) -> None:
        self.attempted += 1
        self.latencies.append(latency)
        self.walls.append(wall)
        self.cal_at.append(len(self.calibration) - 1)
        if error is not None:
            self.failures.append({"instance": label, "error": error})
            return
        self.ratios.append(ratio)
        self.good += good

    def scaled_latencies(self, window: int = 1) -> list[float]:
        """Latencies at reference speed, each scaled by the ``window``
        calibration samples just before its operation and the ``window``
        just after."""
        cal = self.calibration
        return [
            latency * calibrate.scale(cal[max(0, j + 1 - window):j + 1 + window])
            for latency, j in zip(self.latencies, self.cal_at)
        ]

    def extend(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.walls += other.walls
        self.ratios += other.ratios
        self.failures += other.failures
        self.attempted += other.attempted
        self.good += other.good


# -- measurement loops --------------------------------------------------------


def closed_loop(pool, tally: Tally, seconds: float | None = None,
                count: int | None = None) -> None:
    """Run ``pool``'s operations one after another for ``seconds`` (or for
    exactly ``count`` operations); only ``Op.run`` is timed. The
    calibration loop is timed between operations every
    ``CALIBRATE_EVERY_S`` and once at the end.

    A timed run stops only between whole passes over the pool, finishing
    the pass under way at the deadline, so every run weighs each pinned
    input equally whatever order the seed chose.
    """
    deadline = None if seconds is None else time.perf_counter() + seconds
    next_sample = 0.0
    for i, op in enumerate(pool.ops()):
        if (count is not None and i >= count) or (
            deadline is not None
            and i % pool.pass_size == 0
            and time.perf_counter() >= deadline
        ):
            tally.calibration.append(calibrate.sample())
            return
        if time.perf_counter() >= next_sample:
            tally.calibration.append(calibrate.sample())
            next_sample = time.perf_counter() + CALIBRATE_EVERY_S
        if op.prepare is not None:
            op.prepare()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.process_time() - c0
        wall = time.perf_counter() - t0
        ratio = None
        if error is None:
            ratio, error = op.check(out)
        tally.add(op.label, latency, wall, ratio, error)


def open_loop(fixture, requests, tally: Tally) -> "loadgen.LoadResult":
    """Fire ``requests`` at the service; failures miss the latency limit."""
    result = loadgen.run_load(fixture, requests)
    for out in result.outcomes:
        req = out.request
        tally.add(f"{req.kind} {req.label}", out.latency, out.latency,
                  out.ratio, out.error, good=out.latency <= loadgen.LATENCY_LIMIT_S)
    return result


def service_layers(result) -> dict:
    """Per-request phase split from the service's own response fields."""
    answered = [o for o in result.outcomes if isinstance(o.body, dict)
                and o.body.get("queue_wait_seconds") is not None]
    waits = [o.body["queue_wait_seconds"] for o in answered]
    workers = [o.body.get("elapsed_seconds") or 0.0 for o in answered]
    fronts = [o.latency - w - e for o, w, e in zip(answered, waits, workers)]
    wait_tail = stats.tail(waits, TAIL_PERCENTILE["service_open_loop"])
    n = max(1, len(result.outcomes))
    return {
        "service.queue_wait_p50_s": stats.median(waits),
        "service.queue_wait_tail_s": wait_tail[1] if wait_tail else 0.0,
        "service.worker_p50_s": stats.median(workers),
        "service.frontend_p50_s": stats.median(fronts),
        "service.dedup_hit_ratio": sum(o.dedup for o in result.outcomes) / n,
        "service.degraded_fraction": sum(
            isinstance(o.body, dict) and o.body.get("state") == "degraded"
            for o in result.outcomes
        ) / n,
        "bench.generator_late_max_s": result.late_max_s,
    }


# -- one run ----------------------------------------------------------------------


def build(workload: str, seed: int, spool: Path):
    if workload == "service_open_loop":
        return loadgen.ServiceFixture(seed, spool)
    return getattr(fixtures, workload)(seed)


def measure(workload: str, fixture, seconds: float) -> tuple[Tally, dict, dict]:
    """Untraced run: every end-to-end metric but ``setup_s``."""
    tally = Tally()
    extra: dict = {}
    if workload == "service_open_loop":
        busy = late = 0.0
        for segment in loadgen.segments(fixture.schedule(seconds), SEGMENT_S):
            tally.calibration += fixture.calibration(CALIBRATE_SAMPLES)
            result = open_loop(fixture, segment, tally)
            busy += result.elapsed
            late = max(late, result.late_max_s)
        tally.calibration += fixture.calibration(CALIBRATE_SAMPLES)
        latencies = tally.scaled_latencies(window=2 * CALIBRATE_SAMPLES)
        extra = {
            "generator_late_max_s": late,
            "connections": fixture.connections,
            "offered_rps": loadgen.OFFERED_RPS,
            "latency_limit_s": loadgen.LATENCY_LIMIT_S,
        }
    else:
        closed_loop(fixture, tally, seconds=seconds)
        latencies = tally.scaled_latencies()
        busy = sum(latencies)
        extra["wall_p50_s"] = stats.median(tally.walls)
    found = stats.tail(latencies, TAIL_PERCENTILE[workload])
    tail_p, tail_v = found if found else (100.0, max(latencies))
    extra.update(tail_percentile=tail_p, tail_samples=len(latencies))
    extra["calibration_s"] = tally.calibration
    extra["unscaled"] = {
        "latency_p50_s": stats.median(tally.latencies),
        "latency_tail_s": stats.percentile(tally.latencies, tail_p),
    }
    metrics = {
        "latency_p50_s": stats.median(latencies),
        "latency_tail_s": tail_v,
        "ops_per_s": tally.good / busy if busy else 0.0,
        "cost_over_opt": (sum(tally.ratios) / len(tally.ratios)
                          if tally.ratios else 0.0),
        "failed_fraction": len(tally.failures) / max(1, tally.attempted),
        "peak_rss_mb": stats.peak_rss_mb(
            include_children=workload == "service_open_loop"
        ),
    }
    return tally, metrics, extra


def measure_traced(workload: str, fixture, seconds: float) -> tuple[Tally, dict, dict]:
    """Half the time untraced, then exactly the same operations with
    ``repro.obs`` on and the layer wrappers installed."""
    from repro import obs

    plain, traced = Tally(), Tally()
    layers: dict[str, float] = {}
    if workload == "service_open_loop":
        # The solver runs in the worker process, out of the wrappers'
        # reach; its counters come from the service's /metrics instead.
        requests = fixture.schedule(seconds / 2)
        open_loop(fixture, requests, plain)
        before = fixture.counters(COUNTERS)
        with obs.session(label="perfbench"), tracer.LayerTracer() as tr:
            result = open_loop(fixture, requests, traced)
        after = fixture.counters(COUNTERS)
        counters = {name: after[name] - before[name] for name in COUNTERS}
        layers.update(service_layers(result))
        n = len(requests)
    else:
        closed_loop(fixture, plain, seconds=seconds / 2)
        n = plain.attempted
        with obs.session(label="perfbench") as tel, tracer.LayerTracer() as tr:
            closed_loop(fixture, traced, count=n)
        counters = {name: tel.counters.get(name, 0) for name in COUNTERS}
        tr.cross_check(counters)
    total = sum(traced.walls)  # spans are wall-clock
    for layer in tracer.LAYERS:
        layers[f"{layer}.self_s"] = tr.self_s[layer]
        layers[f"{layer}.calls"] = tr.calls[layer]
        layers[f"{layer}.share"] = tr.self_s[layer] / total if total else 0.0
    for name in ("lp.pivots", "cancellation.iterations", "mincost.dijkstra_pops"):
        layers[name] = counters[name]
    layers["search.lp_per_iteration"] = _ratio(
        counters["lp.ratio_lp.solves"], counters["cancellation.iterations"]
    )
    layers["search.aux_cache.hit_ratio"] = _ratio(
        counters["search.aux_cache.hit"],
        counters["search.aux_cache.hit"] + counters["search.aux_cache.miss"],
    )
    layers["online.warm_fraction"] = _ratio(
        counters["online.warm"], counters["online.warm"] + counters["online.cold"]
    )
    for name in SERVICE_UNITS:
        layers.setdefault(name, 0.0)
    layers["bench.trace_overhead_s"] = (
        sum(traced.latencies) - sum(plain.latencies)
    ) / max(1, n)
    plain.extend(traced)
    return plain, layers, {"replayed_ops": n, "counters": counters}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        import_s: dict[str, float], rundir: Path) -> tuple[dict, dict]:
    """One benchmark run: ``(run record, result object)``.

    ``import_s`` holds the program's import time by both clocks
    (``"wall"`` and ``"cpu"``).
    """
    service = workload == "service_open_loop"
    clock = time.perf_counter if service else time.process_time
    setups, setup_cal = [], []
    fixture = None
    try:
        for i in range(SETUP_REPEATS):
            if fixture is not None:
                fixture.close()
                fixture = None
            if not service:
                setup_cal += calibrate.samples(CALIBRATE_SAMPLES)
            t0 = clock()
            fixture = build(workload, seed, rundir / f"spool{i}")
            setups.append(clock() - t0)
        if not service:
            setup_cal += calibrate.samples(CALIBRATE_SAMPLES)
        if trace:
            tally, metrics, extra = measure_traced(workload, fixture, seconds)
            units = per_layer_units()
        else:
            tally, metrics, extra = measure(workload, fixture, seconds)
            setup = import_s["wall" if service else "cpu"] + stats.median(setups)
            metrics["setup_s"] = setup
            if not service:
                extra["unscaled"]["setup_s"] = setup
                extra["setup_calibration_s"] = setup_cal
                metrics["setup_s"] = setup * calibrate.scale(setup_cal)
            units = END_TO_END_UNITS
    finally:
        if fixture is not None:
            fixture.close()

    failed = len(tally.failures)
    record = {
        "schema": "perfbench-run/1",
        "env": stats.environment(workload, seed),
        "trace": int(trace),
        "seconds": seconds,
        "attempted": tally.attempted,
        "failed": failed,
        "failures": tally.failures[:50],
        "import_s": import_s,
        "setup_samples_s": setups,
        **extra,
        "metrics": metrics,
    }
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return record, result
