"""Percentiles, memory and environment helpers shared by the runners."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from pathlib import Path

#: Tail percentiles tried from highest down; the reported tail is the
#: first one with at least ``TAIL_MIN_BEYOND`` samples beyond it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

#: CPUs this process may use, read on import: ``run.py`` imports this
#: module before it pins the process to one CPU.
NPROC = len(os.sched_getaffinity(0))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in percent)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float], preferred: float) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile <= ``preferred``
    with at least ``TAIL_MIN_BEYOND`` samples beyond it, or ``None``."""
    n = len(values)
    for p in TAIL_LADDER:
        if p > preferred:
            continue
        if n - math.ceil(p / 100.0 * n) >= TAIL_MIN_BEYOND:
            return p, percentile(values, p)
    return None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident memory of this process, plus (optionally) the peak of
    every live child process, read from ``/proc`` before they exit."""
    total_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if include_children:
        for pid in child_pids():
            total_kb += _vm_hwm_kb(pid)
    return total_kb / 1024.0


def child_pids() -> list[int]:
    """Pids of this process's direct children, zombies included."""
    me = str(os.getpid())
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            pids.append(int(stat.parent.name))
    return pids


def _vm_hwm_kb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def environment(workload: str, seed: int) -> dict:
    """The stamp every run record carries."""
    import numpy
    import scipy

    from repro.lp.engine import get_engine, highspy_available

    return {
        "workload": workload,
        "seed": seed,
        "lp_backend": get_engine().backend_name,
        "highspy_available": highspy_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
    }
