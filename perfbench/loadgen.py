"""``service_open_loop``: open-loop load against an in-process solve service.

The service is a :class:`repro.service.ServiceThread` with one worker
process, so the front end and this generator keep the other core: once
the service is warm, every thread of this process is pinned to one CPU
and the worker to another (left to the scheduler, the two sometimes
shared a CPU). Load is open loop at a fixed offered rate: request ``i``
is *due* at ``start + i / SLOT_RATE`` whatever the server is doing. The
end-to-end run fires its schedule in windows (``segments``) with a short
idle gap between them, where the benchmark times its calibration loop.
At most ``nproc`` connections are in flight (one generator thread
each); a request that
comes due while every connection is busy waits, and because latency is
timed from the due time, that wait counts. ``late_max_s`` reports how far
behind schedule the generator itself ran.

The mix cycles through unique loose-budget solves, simultaneous duplicate
pairs (two identical requests due at the same instant, which the service
deduplicates) and resolves against open online sessions. Resolve deltas
reweight a fixed edge set to absolute values, so the instance after a
resolve does not depend on the order in which resolves land, and its exact
optimum is known in advance.
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import calibrate
import stats

from repro.eval import workloads
from repro.graph.io import instance_from_dict, instance_to_dict
from repro.lp.milp import solve_krsp_milp
from repro.obs.promtext import metric_name, parse_prometheus
from repro.service import client
from repro.service.protocol import canonical_instance, instance_digest
from repro.service.server import ServiceConfig, ServiceThread

#: Slots per second. One MIX cycle of 8 slots carries 10 requests (a pair
#: is two), so 12 slots/s offer 15 requests/s: 12 jobs/s against a worker
#: that measured ~70 jobs/s on this mix. Past ~40 requests/s the front end
#: and the generator, sharing the second core, fall behind schedule.
SLOT_RATE = 12.0
MIX = ("unique", "resolve", "pair", "unique", "resolve", "unique", "pair", "resolve")
OFFERED_RPS = SLOT_RATE * (len(MIX) + MIX.count("pair")) / len(MIX)

#: A request answered later than this after it was due misses goodput.
LATENCY_LIMIT_S = 0.25
REQUEST_TIMEOUT_S = 30.0

POOL_SEED = 2015
UNIQUE_INSTANCES = 32
SESSIONS = 4
VARIANTS = (1, 3, 2, 5)  # cost multipliers of the resolve edge set


@dataclass
class Request:
    kind: str
    due: float  # seconds after the start of the run
    body: dict
    label: str
    delay_bound: int
    opt: int


@dataclass
class Outcome:
    request: Request
    latency: float
    late: float
    status: int | None = None
    body: Any = None
    dedup: bool = False
    error: str | None = None
    ratio: float | None = None


@dataclass
class LoadResult:
    outcomes: list[Outcome] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def late_max_s(self) -> float:
        return max((o.late for o in self.outcomes), default=0.0)


def _instance(w) -> tuple[dict, int]:
    canon = canonical_instance(
        instance_to_dict(w.graph, w.s, w.t, w.k, w.delay_bound)
    )
    g, s, t, k, bound = instance_from_dict(canon)
    exact = solve_krsp_milp(g, s, t, k, bound)
    if exact is None:
        raise RuntimeError(f"service instance seed={w.seed} is infeasible")
    return canon, exact


def check_response(status, body, delay_bound: int, opt: int):
    """``(cost / OPT, None)`` for a verified answer, else ``(None, why)``."""
    if status != 200:
        return None, f"HTTP {status}"
    if not isinstance(body, dict):
        return None, f"body is not JSON: {body!r:.200}"
    if body.get("state") not in ("done", "degraded"):
        return None, f"state {body.get('state')}: {body.get('error')}"
    ver = body.get("verification") or {}
    sol = body.get("solution") or {}
    if not ver.get("verified") or not ver.get("delay_feasible"):
        return None, f"verification {ver.get('issues')}"
    if ver.get("cost") != sol.get("cost") or sol.get("delay_bound") != delay_bound:
        return None, "verified totals disagree with the answer"
    if ver["cost"] > 2 * opt:
        return None, f"cost {ver['cost']} > 2 * OPT {opt}"
    return (ver["cost"] / opt if opt else 1.0), None


class ServiceFixture:
    """Pinned request pool plus a warmed service with open sessions; the
    workload seed sets the order in which instances and sessions are used
    (pinned for the reason given in ``fixtures``)."""

    def __init__(self, seed: int, spool: Path) -> None:
        stream = workloads.er_uniform(
            n=16, p=0.3, tightness=0.0, n_instances=400, seed=POOL_SEED
        )
        self.unique = []
        self.sessions = []
        for w in stream:
            canon, exact = _instance(w)
            if len(self.unique) < UNIQUE_INSTANCES:
                self.unique.append((canon, exact.cost, f"unique seed={w.seed}"))
                continue
            self.sessions.append(self._session(canon, exact, w.seed))
            if len(self.sessions) == SESSIONS:
                break
        order = random.Random(seed)
        order.shuffle(self.unique)
        order.shuffle(self.sessions)
        self.cpus = sorted(os.sched_getaffinity(0))
        self.connections = len(self.cpus)
        self.thread = ServiceThread(ServiceConfig(workers=1, spool_dir=spool))
        try:
            self._warm()
            self._pin()
        except BaseException:
            self.close()
            raise

    def _session(self, canon: dict, exact, seed: int) -> dict:
        # Reweight the first edge of every optimal path: the edges the
        # current answer uses, so the resolves actually move it.
        edges = [p[0] for p in exact.paths]
        g, s, t, k, bound = instance_from_dict(canon)
        variants = []
        for mult in VARIANTS:
            ops = [
                {"op": "reweight", "edge": int(e),
                 "cost": int(g.cost[e]) * mult, "delay": int(g.delay[e])}
                for e in edges
            ]
            g2 = g.copy()
            for op in ops:
                g2.cost[op["edge"]] = op["cost"]
            opt = solve_krsp_milp(g2, s, t, k, bound).cost
            variants.append(({"schema": "instance-delta/1", "ops": ops}, opt))
        return {
            "canon": canon,
            "hash": instance_digest(canon),
            "bound": bound,
            "opt": exact.cost,
            "variants": variants,
            "label": f"session seed={seed}",
        }

    def _warm(self) -> None:
        """Open every session and run one resolve on it, sequentially."""
        for sess in self.sessions:
            status, body, _ = client.submit(
                self.thread.url, client.solve_request(sess["canon"]),
                timeout=REQUEST_TIMEOUT_S,
            )
            _, err = check_response(status, body, sess["bound"], sess["opt"])
            if err is None and body.get("instance_hash") != sess["hash"]:
                err = "instance hash mismatch"
            delta, opt = sess["variants"][0]
            if err is None:
                status, body, _ = client.submit(
                    self.thread.url,
                    client.solve_request(
                        kind="resolve", instance_hash=sess["hash"], delta=delta
                    ),
                    timeout=REQUEST_TIMEOUT_S,
                )
                _, err = check_response(status, body, sess["bound"], opt)
            if err is not None:
                raise RuntimeError(f"service warm-up failed: {err}")

    def _pin(self) -> None:
        """This process (front end, generator) on the first allowed CPU,
        the worker on the last; with one CPU both share it."""
        _set_affinity(os.getpid(), {self.cpus[0]})
        for pid in stats.child_pids():  # the worker, and multiprocessing's tracker
            _set_affinity(pid, {self.cpus[-1]})

    def calibration(self, n: int) -> list[float]:
        """``n`` calibration samples on each of the two CPUs in use; the
        service must be idle."""
        out = []
        for cpu in (self.cpus[0], self.cpus[-1]):
            os.sched_setaffinity(0, {cpu})
            out += calibrate.samples(n)
        os.sched_setaffinity(0, {self.cpus[0]})
        return out

    def schedule(self, seconds: float) -> list[Request]:
        """The request list of one run, in due order."""
        requests = []
        unique_i = resolve_i = 0
        for slot in range(int(seconds * SLOT_RATE)):
            due = slot / SLOT_RATE
            kind = MIX[slot % len(MIX)]
            if kind == "resolve":
                sess = self.sessions[resolve_i % len(self.sessions)]
                delta, opt = sess["variants"][(resolve_i // len(self.sessions))
                                             % len(VARIANTS)]
                resolve_i += 1
                body = client.solve_request(
                    kind="resolve", instance_hash=sess["hash"], delta=delta
                )
                requests.append(Request(kind, due, body, sess["label"],
                                        sess["bound"], opt))
                continue
            canon, opt, label = self.unique[unique_i % len(self.unique)]
            unique_i += 1
            body = client.solve_request(canon)
            for _ in range(2 if kind == "pair" else 1):
                requests.append(Request(kind, due, body, label,
                                        canon["delay_bound"], opt))
        return requests

    def counters(self, names) -> dict[str, int]:
        """Program counters harvested from the workers, via ``/metrics``."""
        families = parse_prometheus(client.scrape_metrics(self.thread.url))
        out = {}
        for name in names:
            family = families.get(metric_name(name, suffix="_total"))
            out[name] = int(family.samples[0][2]) if family else 0
        return out

    def close(self) -> None:
        try:
            self.thread.stop(drain=True)
        finally:
            _set_affinity(os.getpid(), set(self.cpus))


def _set_affinity(pid: int, cpus: set[int]) -> None:
    """Pin every thread of process ``pid``."""
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            os.sched_setaffinity(int(task.name), cpus)
        except (ProcessLookupError, FileNotFoundError):
            pass  # the thread has ended


def segments(requests: list[Request], seconds: float) -> list[list[Request]]:
    """``requests`` cut into consecutive windows of ``seconds``, each
    re-timed to start at 0 (the two requests of a pair share a window)."""
    windows: dict[int, list[Request]] = {}
    for req in requests:
        k = int(req.due // seconds)
        windows.setdefault(k, []).append(
            dataclasses.replace(req, due=req.due - k * seconds)
        )
    return [windows[k] for k in sorted(windows)]


def run_load(fixture: ServiceFixture, requests: list[Request]) -> LoadResult:
    """Fire ``requests`` open loop; returns every outcome."""
    result = LoadResult()
    lock = threading.Lock()
    cursor = [0]
    url = fixture.thread.url
    start = time.perf_counter()

    def sender() -> None:
        while True:
            with lock:
                idx = cursor[0]
                cursor[0] += 1
            if idx >= len(requests):
                return
            req = requests[idx]
            due = start + req.due
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late = time.perf_counter() - due
            out = Outcome(request=req, latency=0.0, late=late)
            try:
                out.status, out.body, headers = client.submit(
                    url, req.body, timeout=REQUEST_TIMEOUT_S
                )
                out.dedup = headers.get("x-krsp-dedup") == "hit"
            except OSError as exc:
                out.error = f"{type(exc).__name__}: {exc}"
            out.latency = time.perf_counter() - due
            if out.error is None:
                out.ratio, out.error = check_response(
                    out.status, out.body, req.delay_bound, req.opt
                )
            with lock:
                result.outcomes.append(out)

    threads = [
        threading.Thread(target=sender, name=f"perfbench-conn-{i}")
        for i in range(fixture.connections)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=REQUEST_TIMEOUT_S + requests[-1].due + 60.0)
        if th.is_alive():
            raise RuntimeError("load generator thread did not finish")
    result.elapsed = time.perf_counter() - start
    return result
