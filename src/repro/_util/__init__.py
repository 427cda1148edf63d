"""Internal utilities: RNG helpers, timers, integer math, atomic writes.

Nothing in here is part of the public API; modules under :mod:`repro._util`
may change without notice.
"""

from repro._util.rng import spawn_rng, as_rng
from repro._util.timer import Timer
from repro._util.intmath import ratio_le, ratio_lt, ratio_cmp, ceil_div, floor_div

__all__ = [
    "spawn_rng",
    "as_rng",
    "Timer",
    "ratio_le",
    "ratio_lt",
    "ratio_cmp",
    "ceil_div",
    "floor_div",
]
