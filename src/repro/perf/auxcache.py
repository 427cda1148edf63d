"""Former home of the layered auxiliary-graph cache; now only a binding.

The bicameral search builds every sweep level fresh with
:func:`repro.core.auxgraph.build_aux_shifted`: measured on the benchmark
workloads, a cache of those graphs served no hits, and its miss and growth
bookkeeping cost more than a fresh build. The name below stays importable
from this module because the benchmark's layer tracer
(``perfbench/tracer.py``) binds ``repro.perf.auxcache.build_aux_shifted``.
"""

from repro.core.auxgraph import build_aux_shifted

__all__ = ["build_aux_shifted"]
