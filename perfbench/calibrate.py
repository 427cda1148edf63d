"""Host-speed calibration: a fixed reference loop that never calls the
program.

On a shared host the speed of a vCPU drifts by up to ~1.5x over minutes
(neighbours on the same core), even by the process CPU clock, and moves
every timing of a run together. The benchmark times this loop between
operations and scales its timings to a reference host speed:
``scaled = measured * REFERENCE_S / median loop time``. No change to the
program can move the loop.

Over four minutes of interleaved samples on a 2-vCPU host, 16-second
medians of the loop tracked those of a fixed ``solve_krsp`` pass with
correlation 0.7 (tight budgets) to 0.9 (loose budgets), and scaling cut
the spread of 30-second medians from 0.10-0.12 to 0.06-0.08 (quartile
distance over median). A Dijkstra over Python dicts and a small HiGHS LP
were tried as references and tracked the solver worse.
"""

from __future__ import annotations

import statistics
import time

#: CPU seconds one :func:`sample` took on the 2-vCPU host the benchmark was
#: tuned on (median of ~340 samples over four minutes). Scaled timings
#: read as seconds there.
REFERENCE_S = 0.0148

_ITERATIONS = 300_000


def sample() -> float:
    """Process CPU seconds of one pass of the reference loop."""
    c0 = time.process_time()
    total = 0
    for i in range(_ITERATIONS):
        total += i
    return time.process_time() - c0


def samples(n: int) -> list[float]:
    return [sample() for _ in range(n)]


def scale(times: list[float]) -> float:
    """Factor from timings made beside ``times`` to reference speed."""
    return REFERENCE_S / statistics.median(times)
