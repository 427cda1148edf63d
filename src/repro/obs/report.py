"""Render a run's telemetry: phase table, hot-span tree, JSON, validation.

Consumes either a live :class:`repro.obs.Telemetry` session or a JSONL
trace file written by it (``repro solve --trace out.jsonl``), and backs
the ``repro trace`` CLI command:

* **phase-time breakdown** — root spans aggregated by name with share of
  wall time (where did the solve go: feasibility, phase 1, LP bounds,
  the cancellation loop?);
* **hot-span tree** — the span call tree aggregated by name-path, child
  time nested under parents, top-N nodes by total time;
* **counter glossary dump** — every counter with its value;
* **machine-readable JSON** — the same content for dashboards/CI;
* **schema validation** — structural checks plus the cross-check that
  the ``cancellation.iterations`` counter equals the number of
  ``cancel.iteration`` events (the Lemma 12 audit invariant).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import InputError
from repro.obs._state import SUPPORTED_SCHEMAS, TRACE_SCHEMA, Telemetry
from repro.obs.hist import validate_histogram

#: Line types a valid trace may contain.
KNOWN_TYPES = {
    "header", "span", "event", "counters", "gauges", "histograms", "summary",
}


@dataclass
class Trace:
    """A parsed telemetry trace (from a file or a live session)."""

    header: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict[str, Any]] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_lines(cls, lines: list[dict[str, Any]]) -> "Trace":
        """Assemble a trace from JSONL-decoded dicts (unvalidated)."""
        trace = cls()
        for line in lines:
            kind = line.get("type")
            if kind == "header":
                trace.header = line
            elif kind == "span":
                trace.spans.append(line)
            elif kind == "event":
                trace.events.append(line)
            elif kind == "counters":
                trace.counters = dict(line.get("values", {}))
            elif kind == "gauges":
                trace.gauges = dict(line.get("values", {}))
            elif kind == "histograms":
                trace.histograms = dict(line.get("values", {}))
            elif kind == "summary":
                trace.summary = line
        return trace

    @classmethod
    def from_session(cls, tel: Telemetry) -> "Trace":
        """Snapshot a live session into the same shape a file loads to."""
        return cls.from_lines(tel.trace_lines())

    @property
    def wall_seconds(self) -> float:
        return float(self.summary.get("wall_seconds", 0.0))


def load_trace(path: str | Path) -> Trace:
    """Parse a JSONL trace file; raises :class:`repro.errors.InputError`
    on anything that is not a well-formed trace.

    Untrusted-input discipline (mirrors :mod:`repro.graph.io`): an empty
    file, a binary blob, mid-file garbage, or a torn tail all raise a
    typed :class:`InputError` with a one-line diagnosis — never a raw
    traceback. Torn *tails* are identified with the same semantics as
    :func:`repro._util.atomicio.repair_jsonl_tail` (an unterminated or
    JSON-invalid final line is crash debris), but the file is left
    untouched and the load is refused: a trace missing its ``summary``
    seal is incomplete, and reports over it would silently lie.
    """
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read trace file: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"not a JSONL trace (binary data at byte {exc.start})"
        ) from exc
    if not text.strip():
        raise InputError("empty trace file (no records)")
    if not text.endswith("\n"):
        raise InputError(
            "torn trailing record (file does not end in a newline) — "
            "the writer died mid-append; re-record the trace"
        )
    lines: list[dict[str, Any]] = []
    raw_lines = text.splitlines()
    last_content = max(i for i, r in enumerate(raw_lines) if r.strip())
    for i, raw_line in enumerate(raw_lines):
        if not raw_line.strip():
            continue
        try:
            line = json.loads(raw_line)
            if not isinstance(line, dict):
                raise ValueError("expected a JSON object")
        except ValueError as exc:
            if i == last_content:
                raise InputError(
                    f"torn trailing record at line {i + 1} "
                    f"({len(raw_line)} bytes of crash debris) — "
                    "the writer died mid-append; re-record the trace"
                ) from exc
            raise InputError(f"line {i + 1}: not valid JSON ({exc})") from exc
        lines.append(line)
    return Trace.from_lines(lines)


def validate_trace(trace: Trace) -> list[str]:
    """Structural + cross-check validation; returns problem strings.

    An empty list means the trace is schema-valid. Checks:

    1. header present with the supported schema version;
    2. every span has id/name/seq and a resolvable parent;
    3. counters are nonnegative integers;
    4. summary counts match the body;
    5. the ``cancellation.iterations`` counter equals the number of
       ``cancel.iteration`` events (when either is present);
    6. the incremental-search counters are internally consistent:
       ``search.aux_cache.evict <= search.aux_cache.miss`` (only built
       entries can be evicted), ``search.aux_cache.delta_refresh <=
       search.aux_cache.hit`` (a delta refresh is a stale hit);
    7. LP-engine accounting: ``lp.pivots_unreported`` cannot exceed the
       total LP solve count (``lp.flow_lp.solves + lp.ratio_lp.solves +
       lp.lp6.solves``) — each solve reports its pivots at most once, to
       exactly one of the two pivot counters.
    """
    problems: list[str] = []
    if not trace.header:
        problems.append("missing header line")
    elif trace.header.get("schema") not in SUPPORTED_SCHEMAS:
        problems.append(
            f"unsupported schema {trace.header.get('schema')!r} "
            f"(supported: {sorted(SUPPORTED_SCHEMAS)})"
        )

    span_ids = set()
    for s in trace.spans:
        if not all(k in s for k in ("id", "name", "seq", "start", "dur")):
            problems.append(f"span missing required keys: {s}")
            continue
        span_ids.add(s["id"])
    for s in trace.spans:
        parent = s.get("parent")
        if parent is not None and parent not in span_ids:
            problems.append(
                f"span {s.get('id')} ({s.get('name')}) has unknown parent {parent}"
            )

    for name, value in trace.counters.items():
        if not isinstance(value, int) or value < 0:
            problems.append(f"counter {name!r} is not a nonnegative int: {value!r}")

    span_counts: dict[str, int] = {}
    for s in trace.spans:
        if "name" in s:
            span_counts[s["name"]] = span_counts.get(s["name"], 0) + 1
    for name, h in trace.histograms.items():
        problems.extend(validate_histogram(name, h))
        # Every span close observes its duration, so a span name's
        # histogram count must equal its span count in the same trace.
        if name in span_counts and isinstance(h, dict):
            if h.get("count") != span_counts[name]:
                problems.append(
                    f"histogram {name!r} count ({h.get('count')}) != "
                    f"span count ({span_counts[name]})"
                )

    prev_seq = 0
    for ev in trace.events:
        if "kind" not in ev or "seq" not in ev:
            problems.append(f"event missing kind/seq: {ev}")
            continue
        if ev["seq"] <= prev_seq:
            problems.append(f"event seq not increasing at {ev['kind']} #{ev['seq']}")
        prev_seq = ev["seq"]

    if trace.summary:
        if trace.summary.get("spans") != len(trace.spans):
            problems.append(
                f"summary says {trace.summary.get('spans')} spans, "
                f"trace has {len(trace.spans)}"
            )
        if trace.summary.get("events") != len(trace.events):
            problems.append(
                f"summary says {trace.summary.get('events')} events, "
                f"trace has {len(trace.events)}"
            )
    else:
        problems.append("missing summary line")

    cancel_events = sum(1 for ev in trace.events if ev.get("kind") == "cancel.iteration")
    cancel_counter = trace.counters.get("cancellation.iterations")
    if cancel_counter is not None or cancel_events:
        if (cancel_counter or 0) != cancel_events:
            problems.append(
                f"cancellation.iterations counter ({cancel_counter}) != "
                f"cancel.iteration event count ({cancel_events})"
            )

    c = trace.counters
    if c.get("search.aux_cache.evict", 0) > c.get("search.aux_cache.miss", 0):
        problems.append(
            f"search.aux_cache.evict ({c.get('search.aux_cache.evict')}) > "
            f"search.aux_cache.miss ({c.get('search.aux_cache.miss', 0)}) — "
            "evicted entries that were never built"
        )
    if c.get("search.aux_cache.delta_refresh", 0) > c.get("search.aux_cache.hit", 0):
        problems.append(
            f"search.aux_cache.delta_refresh ({c.get('search.aux_cache.delta_refresh')}) "
            f"> search.aux_cache.hit ({c.get('search.aux_cache.hit', 0)}) — "
            "a delta refresh must be a (stale) cache hit"
        )
    lp_solves = (
        c.get("lp.flow_lp.solves", 0)
        + c.get("lp.ratio_lp.solves", 0)
        + c.get("lp.lp6.solves", 0)
    )
    if c.get("lp.pivots_unreported", 0) > lp_solves:
        problems.append(
            f"lp.pivots_unreported ({c.get('lp.pivots_unreported')}) > "
            f"total LP solves ({lp_solves}) — a solve can fail to report "
            "its pivot count at most once"
        )
    return problems


def validate_file(path: str | Path) -> list[str]:
    """Like :func:`validate_trace` but also catches parse errors."""
    try:
        trace = load_trace(path)
    except (OSError, ValueError, InputError) as exc:
        return [str(exc)]
    return validate_trace(trace)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_table(headers: list[str], rows: list[list[Any]]) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    out = []
    for r_i, row in enumerate(cells):
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if r_i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def phase_breakdown(trace: Trace) -> list[tuple[str, float, int, float]]:
    """Root spans aggregated by name: (name, seconds, count, share).

    ``share`` is the fraction of total root-span time (not wall time, so
    the table is meaningful even for partial traces).
    """
    agg: dict[str, tuple[float, int]] = {}
    for s in trace.spans:
        if s.get("parent") is not None:
            continue
        tot, cnt = agg.get(s["name"], (0.0, 0))
        agg[s["name"]] = (tot + float(s["dur"]), cnt + 1)
    grand = sum(tot for tot, _ in agg.values()) or 1.0
    rows = [
        (name, tot, cnt, tot / grand)
        for name, (tot, cnt) in sorted(agg.items(), key=lambda kv: -kv[1][0])
    ]
    return rows


def hot_span_nodes(trace: Trace) -> list[tuple[tuple[str, ...], float, float, int]]:
    """Aggregate spans by name-path: (path, total, self, count).

    The *path* is the chain of span names from the root, so identically
    named spans under different parents stay distinct; *self* time is
    total minus the time of direct children.
    """
    by_id = {s["id"]: s for s in trace.spans}

    def path_of(s: dict[str, Any]) -> tuple[str, ...]:
        names: list[str] = []
        cur: dict[str, Any] | None = s
        guard = 0
        while cur is not None:
            names.append(cur["name"])
            parent = cur.get("parent")
            cur = by_id.get(parent) if parent is not None else None
            guard += 1
            if guard > len(trace.spans) + 1:  # corrupt parent chain
                break
        return tuple(reversed(names))

    totals: dict[tuple[str, ...], tuple[float, int]] = {}
    child_time: dict[tuple[str, ...], float] = {}
    for s in trace.spans:
        path = path_of(s)
        tot, cnt = totals.get(path, (0.0, 0))
        totals[path] = (tot + float(s["dur"]), cnt + 1)
        if len(path) > 1:
            parent_path = path[:-1]
            child_time[parent_path] = child_time.get(parent_path, 0.0) + float(s["dur"])
    return [
        (path, tot, tot - child_time.get(path, 0.0), cnt)
        for path, (tot, cnt) in totals.items()
    ]


def render_hot_tree(trace: Trace, top: int = 10) -> str:
    """Indented top-N hot-span tree, hottest subtrees first."""
    nodes = hot_span_nodes(trace)
    if not nodes:
        return "(no spans recorded)"
    keep = {n[0] for n in sorted(nodes, key=lambda n: -n[1])[:top]}
    # Keep ancestors of kept nodes so the tree stays connected.
    for path in list(keep):
        for i in range(1, len(path)):
            keep.add(path[:i])
    by_path = {n[0]: n for n in nodes}
    lines = []

    def emit_subtree(prefix: tuple[str, ...], depth: int) -> None:
        children = sorted(
            (n for n in nodes if n[0][:-1] == prefix and n[0] in keep),
            key=lambda n: -n[1],
        )
        for path, tot, self_t, cnt in children:
            lines.append(
                f"{'  ' * depth}{path[-1]:<{max(4, 40 - 2 * depth)}} "
                f"{tot:9.4f}s  self {self_t:9.4f}s  x{cnt}"
            )
            emit_subtree(path, depth + 1)

    emit_subtree((), 0)
    # by_path retained for future drill-down helpers; silence linters.
    _ = by_path
    return "\n".join(lines)


def latency_quantiles(trace: Trace) -> list[tuple[str, int, float, float, float, float]]:
    """Per-histogram latency summary: (name, count, p50, p90, p99, sum).

    Quantiles are bucket-interpolated estimates over the fixed log-spaced
    ladder (:data:`repro.obs.hist.BUCKET_BOUNDS`); rows are sorted by
    total observed time, descending.
    """
    from repro.obs.hist import Histogram

    rows = []
    for name, d in trace.histograms.items():
        try:
            h = Histogram.from_dict(d)
        except (KeyError, TypeError, ValueError):
            continue  # malformed entries are reported by validate_trace
        rows.append(
            (name, h.count, h.percentile(0.50), h.percentile(0.90),
             h.percentile(0.99), h.sum)
        )
    rows.sort(key=lambda r: -r[5])
    return rows


def _fmt_lat(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def render_report(trace: Trace, top: int = 10) -> str:
    """Human-readable telemetry report (the ``repro trace`` output)."""
    parts: list[str] = []
    label = trace.header.get("label") or "(unlabeled)"
    parts.append(
        f"telemetry trace: {label}  wall={trace.wall_seconds:.4f}s  "
        f"spans={len(trace.spans)} events={len(trace.events)}"
    )
    parts.append("")
    parts.append("phase-time breakdown (root spans):")
    rows = [
        [name, f"{tot:.4f}", cnt, f"{100 * share:5.1f}%"]
        for name, tot, cnt, share in phase_breakdown(trace)
    ]
    parts.append(
        _fmt_table(["phase", "seconds", "count", "share"], rows)
        if rows
        else "(no root spans)"
    )
    parts.append("")
    parts.append(f"hot spans (top {top} by total time):")
    parts.append(render_hot_tree(trace, top=top))
    lat_rows = latency_quantiles(trace)
    if lat_rows:
        parts.append("")
        parts.append("latency histograms (bucket-interpolated quantiles):")
        parts.append(
            _fmt_table(
                ["name", "count", "p50", "p90", "p99", "total"],
                [
                    [name, cnt, _fmt_lat(p50), _fmt_lat(p90), _fmt_lat(p99),
                     _fmt_lat(tot)]
                    for name, cnt, p50, p90, p99, tot in lat_rows
                ],
            )
        )
    parts.append("")
    parts.append("counters:")
    counter_rows = [[k, v] for k, v in sorted(trace.counters.items())]
    parts.append(
        _fmt_table(["counter", "value"], counter_rows)
        if counter_rows
        else "(no counters recorded)"
    )
    if trace.gauges:
        parts.append("")
        parts.append("gauges:")
        parts.append(
            _fmt_table(
                ["gauge", "value"], [[k, v] for k, v in sorted(trace.gauges.items())]
            )
        )
    cancel = [ev for ev in trace.events if ev.get("kind") == "cancel.iteration"]
    if cancel:
        parts.append("")
        parts.append(f"cancellation iterations ({len(cancel)}):")
        iter_rows = [
            [
                ev.get("iteration"),
                ev.get("cycle_type"),
                ev.get("cycle_cost"),
                ev.get("cycle_delay"),
                ev.get("cost_after"),
                ev.get("delay_after"),
                ev.get("r_value"),
            ]
            for ev in cancel
        ]
        parts.append(
            _fmt_table(
                ["iter", "type", "c(O)", "d(O)", "cost", "delay", "r"], iter_rows
            )
        )
    return "\n".join(parts)


def report_json(trace: Trace, top: int = 10) -> dict[str, Any]:
    """Machine-readable version of :func:`render_report`."""
    return {
        "schema": TRACE_SCHEMA,
        "label": trace.header.get("label"),
        "wall_seconds": trace.wall_seconds,
        "phases": [
            {"name": name, "seconds": tot, "count": cnt, "share": share}
            for name, tot, cnt, share in phase_breakdown(trace)
        ],
        "hot_spans": [
            {
                "path": list(path),
                "seconds": tot,
                "self_seconds": self_t,
                "count": cnt,
            }
            for path, tot, self_t, cnt in sorted(
                hot_span_nodes(trace), key=lambda n: -n[1]
            )[:top]
        ],
        "counters": dict(sorted(trace.counters.items())),
        "gauges": dict(sorted(trace.gauges.items())),
        "histograms": {
            name: {
                "count": cnt,
                "p50": p50,
                "p90": p90,
                "p99": p99,
                "sum": tot,
            }
            for name, cnt, p50, p90, p99, tot in latency_quantiles(trace)
        },
        # The incremental-search engine's health at a glance (PR 4); the
        # same keys also appear in "counters"/"gauges" above.
        "search_cache": {
            k: v
            for k, v in sorted({**trace.counters, **trace.gauges}.items())
            if k.startswith(("search.aux_cache.", "residual."))
            or k == "search.rebuild_bytes"
        },
        "events": len(trace.events),
        "cancel_iterations": [
            ev for ev in trace.events if ev.get("kind") == "cancel.iteration"
        ],
    }
