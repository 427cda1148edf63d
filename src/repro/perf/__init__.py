"""Incremental candidate-search engine (PR 4).

The dominant cost of Algorithm 1 outside the ratio searches was redundant
reconstruction: every cancellation iteration rebuilt the residual graph
from scratch, even though a cancelled cycle flips only
``O(cycle length)`` residual edges. This package removes that redundancy
without changing a single solver decision:

* :class:`~repro.perf.engine.IncrementalSearch` — owns a long-lived
  :class:`~repro.core.residual.ResidualGraph` updated in place via
  versioned edge flips, reweights and structural edits.

Correctness contract: for both finders the incremental engine is
**bit-identical** to the from-scratch path — same residual arrays, same
auxiliary graphs edge-for-edge, hence the same ratio-search inputs, the
same cancelled cycles and the same ``cancel.iteration`` telemetry trail
(enforced by ``tests/test_search_incremental.py``). Layered graphs are
built fresh per sweep level by
:func:`~repro.core.auxgraph.build_aux_shifted`. See docs/PERFORMANCE.md.
"""

from repro.perf.engine import IncrementalSearch

__all__ = ["IncrementalSearch"]
