"""Incremental candidate-search engine (PR 4).

The dominant cost of Algorithm 1 outside the LP solves is redundant
reconstruction: every cancellation iteration rebuilt the residual graph
from scratch and re-materialised every layered auxiliary graph of the
doubling schedule, even though a cancelled cycle flips only
``O(cycle length)`` residual edges. This package removes that redundancy
without changing a single solver decision:

* :class:`~repro.perf.engine.IncrementalSearch` — owns a long-lived
  :class:`~repro.core.residual.ResidualGraph` updated in place via
  versioned edge flips, plus an :class:`~repro.perf.auxcache.AuxCache`
  of layered auxiliary graphs keyed ``(residual version, B)``.
* :class:`~repro.perf.auxcache.AuxCache` — delta-patches cached aux
  graphs when the residual changes (only the flipped edges' layer
  segments are rewritten) and grows level ``B`` from level ``B/2``
  instead of re-enumerating all layer copies.

Correctness contract: for both finders the incremental engine is
**bit-identical** to the from-scratch path — same residual arrays, same
auxiliary graphs edge-for-edge, hence the same LP inputs, the same
cancelled cycles and the same ``cancel.iteration`` telemetry trail
(enforced by ``tests/test_search_incremental.py``). The production
finder draws residual and layered graphs from the engine; the
paper-literal finder draws only the residual and builds its per-anchor
``H_v^±(B)`` graphs itself. See docs/PERFORMANCE.md.
"""

from repro.perf.auxcache import AuxCache
from repro.perf.engine import IncrementalSearch

__all__ = ["AuxCache", "IncrementalSearch"]
