"""Prometheus text-format 0.0.4 exposition of a telemetry session.

:func:`render_prometheus` turns the counters / gauges / histograms of a
:class:`repro.obs.Telemetry` session (or plain dicts in the same shape)
into the exposition format every Prometheus-compatible scraper speaks:

* counters → ``# TYPE ... counter`` with the conventional ``_total``
  suffix;
* gauges → ``# TYPE ... gauge``;
* histograms → ``# TYPE ... histogram`` with cumulative ``_bucket``
  series (``le`` upper bounds from the fixed ladder
  :data:`repro.obs.hist.BUCKET_BOUNDS`, plus ``+Inf``), ``_sum`` and
  ``_count``.

Dotted telemetry names are mapped to the metric namespace by replacing
every non-``[a-zA-Z0-9_]`` character with ``_`` and prefixing ``repro_``
(``search.ratio.newton_steps`` → ``repro_search_ratio_newton_steps_total``);
duration histograms additionally get a ``_seconds`` unit suffix.

:func:`parse_prometheus` is the inverse — a strict parser used by the
round-trip tests, ``repro metrics check``, and the CI metrics smoke job
to prove the endpoint emits valid 0.0.4 output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.errors import InputError
from repro.obs.hist import BUCKET_BOUNDS, Histogram

#: Prefix of every exported metric name.
NAMESPACE = "repro"

_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")
_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def metric_name(name: str, *, suffix: str = "") -> str:
    """Map a dotted telemetry name onto the Prometheus namespace."""
    return f"{NAMESPACE}_{_SANITIZE.sub('_', name)}{suffix}"


def _fmt_value(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()):
        return str(int(v))
    return repr(float(v))


def _fmt_le(bound: float) -> str:
    """Stable ``le`` label value for a bucket bound."""
    return _fmt_value(bound)


def render_prometheus(
    counters: Mapping[str, int] | None = None,
    gauges: Mapping[str, float] | None = None,
    histograms: Mapping[str, Any] | None = None,
    *,
    extra_lines: Iterable[str] = (),
) -> str:
    """Render one exposition-format page (text-format 0.0.4).

    ``histograms`` values may be :class:`~repro.obs.hist.Histogram`
    objects or their ``as_dict()`` form. ``extra_lines`` (already-valid
    exposition lines, e.g. the server's own meta-metrics) are appended
    verbatim before the terminating newline.
    """
    out: list[str] = []
    for name, value in sorted((counters or {}).items()):
        m = metric_name(name, suffix="_total")
        out.append(f"# HELP {m} repro counter {name}")
        out.append(f"# TYPE {m} counter")
        out.append(f"{m} {_fmt_value(value)}")
    for name, value in sorted((gauges or {}).items()):
        m = metric_name(name)
        out.append(f"# HELP {m} repro gauge {name}")
        out.append(f"# TYPE {m} gauge")
        out.append(f"{m} {_fmt_value(float(value))}")
    for name, h in sorted((histograms or {}).items()):
        if isinstance(h, dict):
            h = Histogram.from_dict(h)
        m = metric_name(name, suffix="_seconds")
        out.append(f"# HELP {m} repro duration histogram {name}")
        out.append(f"# TYPE {m} histogram")
        cum = 0
        for bound, count in zip(BUCKET_BOUNDS, h.counts):
            cum += count
            out.append(f'{m}_bucket{{le="{_fmt_le(bound)}"}} {cum}')
        out.append(f'{m}_bucket{{le="+Inf"}} {h.count}')
        out.append(f"{m}_sum {_fmt_value(h.sum)}")
        out.append(f"{m}_count {h.count}")
    out.extend(extra_lines)
    return "\n".join(out) + "\n"


def render_session(tel: Any, *, extra_lines: Iterable[str] = ()) -> str:
    """Render a live :class:`repro.obs.Telemetry` (or any object with
    ``counters``/``gauges``/``histograms`` attributes)."""
    return render_prometheus(
        dict(tel.counters),
        dict(tel.gauges),
        {k: v for k, v in tel.histograms.items()},
        extra_lines=extra_lines,
    )


@dataclass
class MetricFamily:
    """One parsed metric family: declared type plus its samples."""

    name: str
    type: str = "untyped"
    #: (sample name, labels dict, float value) triples, document order.
    samples: list[tuple[str, dict[str, str], float]] = field(default_factory=list)


def _parse_labels(body: str, lineno: int) -> dict[str, str]:
    """Parse a ``{...}`` label body strictly (escapes per the 0.0.4 spec)."""
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(body):
        m = _LABEL_RE.match(body, pos)
        if m is None:
            raise InputError(f"line {lineno}: malformed labels {body!r}")
        value = (
            m.group(2)
            .replace(r"\n", "\n")
            .replace(r"\"", '"')
            .replace("\\\\", "\\")
        )
        labels[m.group(1)] = value
        pos = m.end()
        if pos < len(body):
            if body[pos] != ",":
                raise InputError(f"line {lineno}: malformed labels {body!r}")
            pos += 1
    return labels


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    if raw == "NaN":
        return float("nan")
    try:
        return float(raw)
    except ValueError as exc:
        raise InputError(f"bad sample value {raw!r}") from exc


def parse_prometheus(text: str) -> dict[str, MetricFamily]:
    """Strict text-format 0.0.4 parser: family name → :class:`MetricFamily`.

    Raises :class:`repro.errors.InputError` on malformed lines, samples
    whose family was ``# TYPE``-declared after first use, histogram
    ``_bucket`` series that are not cumulative, or histograms missing
    ``_sum``/``_count``/``+Inf``. Built for validation, not speed.
    """
    families: dict[str, MetricFamily] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4 or not _NAME_RE.fullmatch(parts[2]):
                raise InputError(f"line {lineno}: malformed TYPE line {line!r}")
            name, mtype = parts[2], parts[3].strip()
            if mtype not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise InputError(f"line {lineno}: unknown metric type {mtype!r}")
            if name in families and families[name].samples:
                raise InputError(
                    f"line {lineno}: TYPE for {name!r} declared after samples"
                )
            families.setdefault(name, MetricFamily(name)).type = mtype
            continue
        if line.startswith("#"):
            continue  # HELP and comments
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise InputError(f"line {lineno}: malformed sample line {line!r}")
        sample_name = m.group("name")
        labels = _parse_labels(m.group("labels") or "", lineno)
        family_name = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if base and base in families and families[base].type == "histogram":
                family_name = base
                break
        fam = families.setdefault(family_name, MetricFamily(family_name))
        fam.samples.append((sample_name, labels, _parse_value(m.group("value"))))
    for fam in families.values():
        if fam.type == "histogram":
            _check_histogram_family(fam)
    return families


def _check_histogram_family(fam: MetricFamily) -> None:
    buckets = [(ls, v) for n, ls, v in fam.samples if n == f"{fam.name}_bucket"]
    if not buckets:
        raise InputError(f"histogram {fam.name!r} has no _bucket samples")
    if buckets[-1][0].get("le") != "+Inf":
        raise InputError(f"histogram {fam.name!r} missing the le=\"+Inf\" bucket")
    cum = [v for _, v in buckets]
    if any(prev > nxt for prev, nxt in zip(cum, cum[1:])):
        raise InputError(f"histogram {fam.name!r} buckets are not cumulative")
    counts = [v for n, _, v in fam.samples if n == f"{fam.name}_count"]
    sums = [v for n, _, v in fam.samples if n == f"{fam.name}_sum"]
    if len(counts) != 1 or len(sums) != 1:
        raise InputError(f"histogram {fam.name!r} needs exactly one _sum and _count")
    if counts[0] != cum[-1]:
        raise InputError(
            f"histogram {fam.name!r}: _count {counts[0]} != +Inf bucket {cum[-1]}"
        )
