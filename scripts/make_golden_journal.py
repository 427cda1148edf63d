#!/usr/bin/env python
"""Regenerate the pinned golden journal fixture.

Writes ``tests/corpus/golden_v1.journal`` (a complete checkpointed solve
of the 3-iteration chaos instance) and ``tests/corpus/golden_v1.expect``
(the expected solution, plain JSON). Run this ONLY when
``JOURNAL_FORMAT_VERSION`` is bumped; the point of the fixture is that a
journal written by an old build keeps resuming on every future build of
the same format version (tests/test_crash_resume.py replays it in CI).

The committed v1 fixture predates snapshot-free journals and still holds
a ``snapshot`` record after iteration 2; tests/test_crash_resume.py uses
it to check that resume never reads one. Regenerating it would drop that
record, so do it only together with a format bump.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro._util.atomicio import atomic_write_json  # noqa: E402
from repro.graph.generators import gnp_digraph  # noqa: E402
from repro.graph.weights import anticorrelated_weights  # noqa: E402
from repro.robustness import JOURNAL_FORMAT_VERSION, solve_checkpointed  # noqa: E402


def main() -> int:
    rng = np.random.default_rng(21)
    g = gnp_digraph(16, 0.30, rng=rng)
    g = anticorrelated_weights(g, total=37, noise=3, rng=rng)

    out = REPO_ROOT / "tests" / "corpus" / f"golden_v{JOURNAL_FORMAT_VERSION}.journal"
    sol = solve_checkpointed(g, 0, 15, 3, 231, journal_path=out, phase1="minsum")
    atomic_write_json(
        out.parent / f"golden_v{JOURNAL_FORMAT_VERSION}.expect",
        {
            "cost": sol.cost,
            "delay": sol.delay,
            "iterations": sol.iterations,
            "paths": [list(map(int, p)) for p in sol.paths],
        },
        indent=1, sort_keys=True,
    )
    print(f"wrote {out} ({out.stat().st_size} bytes, "
          f"{sol.iterations} iterations, cost={sol.cost} delay={sol.delay})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
