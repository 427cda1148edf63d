#!/usr/bin/env python
"""Aggregate committed ``BENCH_*.json`` baselines into a markdown trend table.

The bench gate (:mod:`scripts.bench_gate`) writes one JSON report per
baseline family (``BENCH_PR4.json`` end-to-end kernels + speedup ratios,
``BENCH_PR6.json`` online resolve). This script folds every ``BENCH_*.json``
it finds — the committed baselines plus any ``--extra`` reports produced by
the current run — into a single markdown document: kernel medians side by
side, speedup ratios vs their floors, and the headline counters of the
online replay. CI uploads the result as the ``perf-trend`` artifact so a
reviewer can see where the numbers stand without replaying the gate.

Usage::

    PYTHONPATH=src python scripts/perf_trend.py                  # to stdout
    PYTHONPATH=src python scripts/perf_trend.py --out trend.md
    PYTHONPATH=src python scripts/perf_trend.py --extra ci_bench.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

KNOWN_SCHEMAS = ("bench-gate/1", "bench-online/1", "load-harness/1")


def _load_reports(paths: list[Path]) -> list[tuple[str, dict]]:
    reports = []
    for path in paths:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"perf_trend: skipping {path}: {exc}", file=sys.stderr)
            continue
        schema = data.get("schema")
        if schema not in KNOWN_SCHEMAS:
            print(f"perf_trend: skipping {path}: unknown schema {schema!r}",
                  file=sys.stderr)
            continue
        reports.append((path.name, data))
    return reports


def _fmt_ms(seconds: float | None) -> str:
    return f"{seconds * 1e3:.2f}" if seconds is not None else "—"


def _pivots_of(report: dict, kernel: str) -> int | None:
    """``lp.pivots`` for one kernel, from the PR 9 ``lp_engine`` section or
    (older reports) the kernel's raw counter snapshot."""
    pivots = report.get("lp_engine", {}).get("pivots", {})
    if kernel in pivots:
        return int(pivots[kernel])
    counters = report.get("kernels", {}).get(kernel, {}).get("counters", {})
    value = counters.get("lp.pivots")
    return int(value) if value is not None else None


def render_trend(reports: list[tuple[str, dict]]) -> str:
    """The full markdown document for a set of parsed reports."""
    gate = [(n, d) for n, d in reports if d.get("schema") == "bench-gate/1"]
    online = [(n, d) for n, d in reports if d.get("schema") == "bench-online/1"]
    load = [(n, d) for n, d in reports if d.get("schema") == "load-harness/1"]

    lines = ["# Performance trend", ""]
    lines.append(
        "Medians are wall-clock and only comparable within one machine; "
        "speedup ratios and counters are deterministic and comparable "
        "everywhere. `quick` reports come from CI hardware."
    )
    lines.append("")

    if gate:
        kernel_names = sorted({k for _, d in gate for k in d.get("kernels", {})})
        lines.append("## Kernel medians (ms)")
        lines.append("")
        header = ["kernel"] + [
            f"{name}{' (quick)' if d.get('quick') else ''}" for name, d in gate
        ]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for kernel in kernel_names:
            row = [f"`{kernel}`"]
            for _, d in gate:
                row.append(_fmt_ms(d["kernels"].get(kernel, {}).get("median_s")))
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")

        lines.append("## LP pivot trend (deterministic)")
        lines.append("")
        lines.append(
            "Simplex iterations per kernel (`lp.pivots`), comparable across "
            "machines and releases; drift is current-vs-oldest report."
        )
        lines.append("")
        header = ["kernel"] + [name for name, _ in gate] + ["drift"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for kernel in kernel_names:
            vals = [_pivots_of(d, kernel) for _, d in gate]
            row = [f"`{kernel}`"] + [
                str(v) if v is not None else "—" for v in vals
            ]
            known = [v for v in vals if v is not None]
            if len(known) >= 2 and known[0]:
                row.append(f"{(known[-1] / known[0] - 1.0):+.1%}")
            else:
                row.append("—")
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")

        speedup_names = sorted({k for _, d in gate for k in d.get("speedups", {})})
        if speedup_names:
            lines.append("## Speedup ratios (gated floors)")
            lines.append("")
            lines.append("| ratio | " + " | ".join(n for n, _ in gate) + " | floor |")
            lines.append("|" + "---|" * (len(gate) + 2))
            for name in speedup_names:
                row = [f"`{name}`"]
                floor = None
                for _, d in gate:
                    entry = d.get("speedups", {}).get(name)
                    row.append(f"{entry['ratio']:.2f}x" if entry else "—")
                    floor = entry.get("floor", floor) if entry else floor
                row.append(f"{floor}x" if floor is not None else "—")
                lines.append("| " + " | ".join(row) + " |")
            lines.append("")

    if online:
        lines.append("## Online resolve (warm vs cold replay)")
        lines.append("")
        lines.append(
            "| report | warm (ms) | cold (ms) | speedup | floor | steps | modes |"
        )
        lines.append("|" + "---|" * 7)
        for name, d in online:
            o = d.get("online", {})
            modes = ",".join(o.get("modes", [])) or "—"
            lines.append(
                f"| {name}{' (quick)' if d.get('quick') else ''} "
                f"| {_fmt_ms(o.get('warm_median_s'))} "
                f"| {_fmt_ms(o.get('cold_median_s'))} "
                f"| {o.get('ratio', '—')}x | {o.get('floor', '—')}x "
                f"| {o.get('steps', '—')} | `{modes}` |"
            )
        lines.append("")
        counters = {
            name: d.get("online", {}).get("counters") or {} for name, d in online
        }
        counter_names = sorted({c for cs in counters.values() for c in cs})
        if counter_names:
            lines.append("### Warm-replay counters (deterministic)")
            lines.append("")
            lines.append("| counter | " + " | ".join(counters) + " |")
            lines.append("|" + "---|" * (len(counters) + 1))
            for cname in counter_names:
                row = [f"`{cname}`"]
                row += [str(cs.get(cname, "—")) for cs in counters.values()]
                lines.append("| " + " | ".join(row) + " |")
            lines.append("")

    if load:
        lines.append("## Service load harness (scripts/load_harness.py)")
        lines.append("")
        lines.append(
            "| report / run | workers | offered rps | achieved rps "
            "| dropped | dedup hit-rate | p50 (ms) | p99 (ms) "
            "| deadline miss | verified |"
        )
        lines.append("|" + "---|" * 10)
        for name, d in load:
            for entry in d.get("runs", []):
                cfg = entry.get("config", {})
                m = entry.get("metrics", {})
                tag = " (quick)" if d.get("quick") else ""
                lines.append(
                    f"| {name}{tag} / {cfg.get('name', '—')} "
                    f"| {cfg.get('workers', '—')} "
                    f"| {m.get('offered_rate_rps', '—')} "
                    f"| {m.get('achieved_rate_rps', '—')} "
                    f"| {m.get('dropped', '—')} "
                    f"| {m.get('dedup_hit_rate', '—')} "
                    f"| {_fmt_ms(m.get('latency_p50_seconds'))} "
                    f"| {_fmt_ms(m.get('latency_p99_seconds'))} "
                    f"| {m.get('deadline_miss_fraction', '—')} "
                    f"| {m.get('verified_fraction', '—')} |"
                )
        lines.append("")

    if not gate and not online and not load:
        lines.append("_No bench reports found._")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo", type=Path, default=REPO_ROOT,
        help="repository root to glob BENCH_*.json from",
    )
    parser.add_argument(
        "--extra", type=Path, action="append", default=[],
        help="additional bench report JSON (e.g. the current CI run's "
             "--out); repeatable",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the markdown here instead of stdout",
    )
    args = parser.parse_args(argv)

    paths = sorted(args.repo.glob("BENCH_*.json")) + list(args.extra)
    reports = _load_reports(paths)
    doc = render_trend(reports)
    if args.out:
        args.out.write_text(doc + "\n")
        print(f"wrote {args.out} ({len(reports)} reports)")
    else:
        print(doc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
