"""Compare two sets of benchmark runs, workload by workload.

Usage::

    python3 perfbench/run.py --workload loose_budget --seed 1 ... >> base.jsonl
    ...
    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds the standard output of untraced runs (``--trace 0``); only
the ``perfbench-run/1`` run records in it are read. For every workload and
end-to-end metric of ``BENCHMARK.json`` it prints both sides' medians and
quartiles and a verdict: ``worse`` when the new median is worse than the
base median by more than the metric's bound, ``unresolved`` when either
side's spread (quartile distance over median) exceeds the bound, else
``ok``.

Runs are comparable only on the same LP backend: the two sets are refused
(exit status 2) when their ``lp_backend`` stamps differ, so a backend
change is never compared across a silent fallback. Exit status is 1 when a
metric got worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SCHEMA = "perfbench-run/1"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> list[dict]:
    runs = []
    for line in path.read_text().splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(rec, dict) and rec.get("schema") == SCHEMA and not rec["trace"]:
            runs.append(rec)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)

    sides = [load_runs(args.base), load_runs(args.new)]
    for path, runs in zip((args.base, args.new), sides):
        if not runs:
            print(f"compare: no {SCHEMA} run records in {path}", file=sys.stderr)
            return 2
    backends = [sorted({r["env"]["lp_backend"] for r in runs}) for runs in sides]
    if backends[0] != backends[1] or len(backends[0]) != 1:
        print(f"compare: refusing to compare LP backends {backends[0]} "
              f"against {backends[1]}", file=sys.stderr)
        return 2

    spec = json.loads(BENCHMARK.read_text())["end_to_end"]
    grouped = [defaultdict(list) for _ in sides]
    for runs, groups in zip(sides, grouped):
        for rec in runs:
            groups[rec["env"]["workload"]].append(rec)

    worse = False
    print(f"{'workload':18s} {'metric':15s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s}  verdict")
    for workload in sorted(set(grouped[0]) & set(grouped[1])):
        for metric in spec:
            name, bound = metric["name"], metric["bound"]
            base, new = (
                summary([r["metrics"][name] for r in groups[workload]])
                for groups in grouped
            )
            change = (new[0] - base[0]) / base[0] if base[0] else 0.0
            if metric["better"] == "higher":
                change = -change
            spread = max((s[2] - s[1]) / s[0] if s[0] else 0.0 for s in (base, new))
            verdict = "worse" if change > bound else (
                "unresolved" if spread > bound else "ok"
            )
            worse |= verdict == "worse"
            print(f"{workload:18s} {name:15s} "
                  f"{base[0]:12.5g} [{base[1]:9.4g}, {base[2]:9.4g}] "
                  f"{new[0]:12.5g} [{new[1]:9.4g}, {new[2]:9.4g}] "
                  f"{change:+8.3f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
