"""The repository benchmark: four workloads through the public kRSP API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tight_budget --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

* ``tight_budget`` -- ``solve_krsp`` in a closed loop (one client) on ER,
  ring and grid instances at tightness 0.9 that run the ratio LP;
* ``loose_budget`` -- ``solve_krsp`` in a closed loop on n ~ 40 ER, Waxman
  and grid instances at tightness 0 whose phase-1 start already meets D;
* ``online_churn`` -- ``resolve`` in a closed loop over seeded churn traces
  from pinned ``start_online`` bases;
* ``service_open_loop`` -- open-loop HTTP load on an in-process
  ``ServiceThread`` with one worker (see ``loadgen.py``).

Closed-loop workloads first pin the process to the least-loaded CPU
(see ``pin_to_fastest_cpu``). ``--trace 0`` measures with telemetry
disabled and prints the end-to-end metrics. ``--trace 1`` runs half the
time untraced, then replays exactly
the same operations with ``repro.obs`` enabled and the layer wrappers of
``tracer.py`` installed, and prints the per-layer metrics; the
per-operation difference between the halves is ``bench.trace_overhead_s``.

Every answer is checked (structure, exact totals, delay <= D, cost <=
2 * OPT against the exact MILP optimum computed during set-up); a failing
operation is counted and listed with its instance seed, and the run goes
on. Standard output carries one run record (schema ``perfbench-run/1``,
stamped with the environment; it also holds ``failed_fraction``) and, as
the last line, the result object ``{"correct", "attempted", "failed",
"metrics"}``. ``compare.py`` compares two sets of saved run records.

The program is imported from ``src/`` beside this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

import calibrate
import stats

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tight_budget", "loose_budget", "online_churn", "service_open_loop")


def pin_to_fastest_cpu() -> dict:
    """Pin this process to the allowed CPU that runs a fixed loop fastest.

    On a shared host one vCPU ran a fixed loop ~1.4x slower than the other
    (a busy neighbour on its core), and a closed loop moves its medians by
    that much depending on where the scheduler happens to put it. Returns
    the choice and each CPU's loop time, for the run record.
    """
    loop_s = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        loop_s[cpu] = min(calibrate.samples(3))
    cpu = min(loop_s, key=loop_s.get)
    os.sched_setaffinity(0, {cpu})
    return {"cpu": cpu, "loop_s": loop_s}


def stop_children(timeout: float = 30.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The service shuts its worker pool down without waiting, and
    multiprocessing's resource tracker only exits after the interpreter
    does, so either would otherwise outlive the benchmark. Worker pools
    are joined by their (non-daemon) manager threads; whatever is left is
    joined, then terminated. Then multiprocessing's exit routine runs
    early, which unlinks and unregisters the pools' semaphores, and the
    resource tracker is stopped once nothing holds its pipe open.
    """
    import multiprocessing
    import multiprocessing.util
    import threading

    deadline = time.monotonic() + timeout
    for th in threading.enumerate():
        if th is not threading.current_thread() and not th.daemon:
            th.join(max(0.0, deadline - time.monotonic()))
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive():
            proc.terminate()
            proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    multiprocessing.util._exit_function()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()
    for pid in stats.child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: list[str] | None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # The service workload spreads over processes that inherit affinity,
    # so only the single-threaded closed loops are pinned.
    pinned = None if args.workload == "service_open_loop" else pin_to_fastest_cpu()

    t0, c0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        import runner
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {HERE.parent / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    import_s = {"wall": time.perf_counter() - t0, "cpu": time.process_time() - c0}

    # Service spools, and anything else that asks for a temporary file,
    # stay inside the checkout (worker processes inherit TMPDIR).
    rundir = HERE / "_run" / str(os.getpid())
    (rundir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(rundir / "tmp")
    try:
        record, result = runner.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            import_s, rundir,
        )
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass
    record["pinned"] = pinned
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
