"""Trace diffing: attribute a perf regression to the counters that moved.

Wall clock says *that* two runs differ; the deterministic counters say
*why*. :func:`diff_traces` compares two telemetry traces (same seed +
instance ⇒ identical counters, so any drift is a behavioural change, not
noise) on three axes:

* **counter drift**, ranked by contribution — each counter's share of
  the total absolute drift, so the top rows name the work that appeared
  or vanished (``search.ratio.newton_steps`` exploding,
  ``online.lb_refresh.multiplier_kept`` collapsing, ...);
* **phase shares** — root-span time distribution of each run, so a
  shifted bottleneck is visible even when total wall time moved;
* **wall clock** — reported, never ranked (it is not deterministic).

:func:`rank_counter_drift` is the reusable core: it also powers the
attribution block ``scripts/bench_gate.py`` prints when a pinned kernel
regresses past tolerance, turning "the gate is red" into "these counters
moved".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.obs.report import Trace, phase_breakdown


@dataclass(frozen=True)
class CounterDrift:
    """One counter's movement between run A and run B."""

    name: str
    a: int
    b: int
    #: ``b - a``.
    delta: int
    #: Relative change vs A (``None`` when the counter is new, i.e. a=0).
    rel: float | None
    #: ``|delta|`` as a share of the total absolute drift across all
    #: counters — the ranking key ("this counter explains 62% of what
    #: changed").
    share: float


def rank_counter_drift(
    a: Mapping[str, int], b: Mapping[str, int]
) -> list[CounterDrift]:
    """Counters that differ between two snapshots, largest contribution
    first. An empty list means the snapshots agree exactly."""
    deltas: list[tuple[str, int, int, int]] = []
    for name in sorted(set(a) | set(b)):
        va, vb = int(a.get(name, 0)), int(b.get(name, 0))
        if va != vb:
            deltas.append((name, va, vb, vb - va))
    total_abs = sum(abs(d) for _, _, _, d in deltas)
    drifts = [
        CounterDrift(
            name=name,
            a=va,
            b=vb,
            delta=d,
            rel=(d / va) if va else None,
            share=abs(d) / total_abs,
        )
        for name, va, vb, d in deltas
    ]
    drifts.sort(key=lambda c: (-c.share, c.name))
    return drifts


@dataclass(frozen=True)
class PhaseShareDiff:
    """One root-span phase's time share in each run."""

    name: str
    seconds_a: float
    seconds_b: float
    share_a: float
    share_b: float

    @property
    def share_delta(self) -> float:
        return self.share_b - self.share_a


@dataclass
class TraceDiff:
    """Everything :func:`diff_traces` computed (render with
    :func:`render_diff` / :func:`diff_json`)."""

    label_a: str
    label_b: str
    wall_a: float
    wall_b: float
    counters: list[CounterDrift]
    phases: list[PhaseShareDiff]

    @property
    def counters_identical(self) -> bool:
        """True when the deterministic side of the two runs is identical."""
        return not self.counters


def diff_traces(a: Trace, b: Trace) -> TraceDiff:
    """Compare two traces; see the module docstring for the axes."""
    pa = {name: (tot, share) for name, tot, _, share in phase_breakdown(a)}
    pb = {name: (tot, share) for name, tot, _, share in phase_breakdown(b)}
    phases = [
        PhaseShareDiff(
            name=name,
            seconds_a=pa.get(name, (0.0, 0.0))[0],
            seconds_b=pb.get(name, (0.0, 0.0))[0],
            share_a=pa.get(name, (0.0, 0.0))[1],
            share_b=pb.get(name, (0.0, 0.0))[1],
        )
        for name in sorted(set(pa) | set(pb))
    ]
    phases.sort(key=lambda p: -abs(p.share_delta))
    return TraceDiff(
        label_a=a.header.get("label") or "(unlabeled)",
        label_b=b.header.get("label") or "(unlabeled)",
        wall_a=a.wall_seconds,
        wall_b=b.wall_seconds,
        counters=rank_counter_drift(a.counters, b.counters),
        phases=phases,
    )


def format_drift_block(
    drifts: list[CounterDrift], top: int = 8, indent: str = "  "
) -> list[str]:
    """The counter-drift attribution block as printable lines (shared by
    ``repro trace --diff`` and the bench-gate failure report)."""
    if not drifts:
        return [f"{indent}(counters identical)"]
    lines = []
    for c in drifts[:top]:
        rel = f"{c.rel:+.1%}" if c.rel is not None else "new"
        lines.append(
            f"{indent}{c.name:<42} {c.a:>12} -> {c.b:>12}  "
            f"({c.delta:+d}, {rel}, {c.share:.0%} of drift)"
        )
    if len(drifts) > top:
        lines.append(f"{indent}... and {len(drifts) - top} more counters moved")
    return lines


def render_diff(d: TraceDiff, top: int = 8) -> str:
    """Human-readable diff report (``repro trace --diff``)."""
    parts = [
        f"trace diff: A={d.label_a}  B={d.label_b}",
        f"wall: A={d.wall_a:.4f}s  B={d.wall_b:.4f}s  "
        f"({_rel(d.wall_a, d.wall_b)}; wall clock is informational, "
        "counters are the deterministic signal)",
        "",
        f"counter drift, ranked by contribution "
        f"({len(d.counters)} counters moved):",
    ]
    parts.extend(format_drift_block(d.counters, top=top))
    parts.append("")
    parts.append("phase shares (root spans):")
    moved = [p for p in d.phases if p.seconds_a or p.seconds_b]
    if not moved:
        parts.append("  (no root spans in either trace)")
    for p in moved[:top]:
        parts.append(
            f"  {p.name:<30} {p.share_a:6.1%} -> {p.share_b:6.1%}  "
            f"({p.seconds_a:.4f}s -> {p.seconds_b:.4f}s)"
        )
    if d.counters_identical:
        parts.append("")
        parts.append(
            "runs are behaviourally identical (no deterministic counter drift)"
        )
    return "\n".join(parts)


def diff_json(d: TraceDiff) -> dict[str, Any]:
    """Machine-readable version of :func:`render_diff`."""
    return {
        "label_a": d.label_a,
        "label_b": d.label_b,
        "wall_a": d.wall_a,
        "wall_b": d.wall_b,
        "counters_identical": d.counters_identical,
        "counter_drift": [
            {
                "name": c.name,
                "a": c.a,
                "b": c.b,
                "delta": c.delta,
                "rel": c.rel,
                "share": c.share,
            }
            for c in d.counters
        ],
        "phase_shares": [
            {
                "name": p.name,
                "seconds_a": p.seconds_a,
                "seconds_b": p.seconds_b,
                "share_a": p.share_a,
                "share_b": p.share_b,
                "share_delta": p.share_delta,
            }
            for p in d.phases
        ],
    }


def _rel(a: float, b: float) -> str:
    if a <= 0:
        return "n/a"
    return f"{(b - a) / a:+.1%}"
