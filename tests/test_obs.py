"""Tests for the telemetry layer (:mod:`repro.obs`).

Covers the primitives (spans, counters, events, sessions), the report and
validation pipeline behind ``repro trace``, the solver's counter
determinism contract (same seed + instance ⇒ identical counters), and the
Lemma-12 audit invariant: the ``cancellation.iterations`` counter, the
``cancel.iteration`` event trail, and ``KRSPSolution.iterations`` must
all agree.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro import obs
from repro._util.timer import Timer
from repro.cli import main as cli_main
from repro.core.krsp import solve_krsp
from repro.eval.experiments import figure1_instance
from repro.graph.io import instance_to_dict
from repro.obs.report import (
    Trace,
    load_trace,
    phase_breakdown,
    render_report,
    report_json,
    validate_file,
    validate_trace,
)
from repro.oracle.fuzzer import instance_stream

REPO_ROOT = Path(__file__).resolve().parent.parent


def solve_under_session(g, s, t, k, bound, **kw):
    """Solve once inside a fresh session; return (solution, telemetry)."""
    with obs.session(label="test") as tel:
        sol = solve_krsp(g, s, t, k, bound, **kw)
    return sol, tel


@pytest.fixture
def fig1():
    """The Figure-1 gadget as (graph, s, t, k, D)."""
    g, ids = figure1_instance(6, 10)
    return g, ids["s"], ids["t"], 2, 6


class TestPrimitives:
    def test_disabled_records_nothing(self):
        assert not obs.enabled()
        obs.inc("x")
        obs.add("x", 5)
        obs.gauge("g", 1.0)
        obs.emit("e", a=1)
        with obs.span("dead"):
            pass
        assert obs.snapshot() == {}
        assert obs.current() is None

    def test_session_collects_and_isolates(self):
        with obs.session(label="outer") as tel:
            assert obs.enabled()
            obs.inc("a")
            obs.add("a", 2)
            obs.gauge("g", 3.5)
            obs.emit("k", x=1)
        assert not obs.enabled()
        assert tel.counters == {"a": 3}
        assert tel.gauges == {"g": 3.5}
        assert [e["kind"] for e in tel.events] == ["k"]
        assert tel.wall_seconds > 0.0

    def test_add_zero_is_a_noop(self):
        with obs.session() as tel:
            obs.add("a", 0)
        assert tel.counters == {}

    def test_nested_sessions_both_see_records(self):
        with obs.session(label="outer") as outer:
            obs.inc("before")
            with obs.session(label="inner") as inner:
                obs.inc("during")
            obs.inc("after")
        assert outer.counters == {"before": 1, "during": 1, "after": 1}
        assert inner.counters == {"during": 1}

    def test_span_nesting_and_parent_links(self):
        with obs.session() as tel:
            with obs.span("root"):
                with obs.span("child"):
                    pass
            with obs.span("root2"):
                pass
        by_name = {s.name: s for s in tel.spans}
        assert set(by_name) == {"root", "child", "root2"}
        assert by_name["child"].parent_id == by_name["root"].span_id
        assert by_name["root"].parent_id is None
        assert by_name["root2"].parent_id is None
        # Monotonic open order: root before child before root2.
        assert by_name["root"].seq < by_name["child"].seq < by_name["root2"].seq

    def test_span_decorator_preserves_metadata(self):
        @obs.span("test.fn")
        def fn(x):
            """Docstring survives."""
            return x + 1

        assert fn.__name__ == "fn"
        assert fn.__doc__ == "Docstring survives."
        with obs.session() as tel:
            assert fn(1) == 2
            assert fn(2) == 3
        assert [s.name for s in tel.spans] == ["test.fn", "test.fn"]

    def test_span_closes_on_exception(self):
        with obs.session() as tel:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("x")
        assert [s.name for s in tel.spans] == ["boom"]
        assert obs.current_span_id() is None

    def test_events_accessor_filters_by_kind(self):
        with obs.session() as tel:
            obs.emit("a", v=1)
            obs.emit("b", v=2)
            obs.emit("a", v=3)
            assert [e["v"] for e in obs.events("a")] == [1, 3]
            assert len(obs.events()) == 3
        assert len(tel.events) == 3

    def test_event_payload_coercion(self):
        from fractions import Fraction

        with obs.session() as tel:
            obs.emit("k", frac=Fraction(1, 3), ok=True, none=None)
        (ev,) = tel.events
        assert ev["frac"] == "1/3" and ev["ok"] is True and ev["none"] is None
        # Coerced payloads must stay JSON-serializable.
        json.dumps(tel.trace_lines())


class TestTimerShim:
    def test_sections_become_spans_under_session(self):
        with obs.session() as tel:
            t = Timer(span_prefix="unit")
            with t.section("work"):
                pass
        assert [s.name for s in tel.spans] == ["unit.work"]


class TestSolverTelemetry:
    def test_lemma12_audit_counter_equals_event_trail(self, fig1):
        g, s, t, k, bound = fig1
        sol, tel = solve_under_session(g, s, t, k, bound, phase1="minsum")
        cancel_events = [e for e in tel.events if e["kind"] == "cancel.iteration"]
        assert tel.counters["cancellation.iterations"] == len(cancel_events)
        assert sol.iterations == len(cancel_events)
        assert len(cancel_events) >= 1  # minsum start is delay-infeasible
        for i, ev in enumerate(cancel_events, 1):
            assert ev["iteration"] == i
            assert ev["cycle_type"] in ("TYPE0", "TYPE1", "TYPE2")
            assert ev["delay_bound"] == bound

    def test_solution_counters_attached_under_session(self, fig1):
        g, s, t, k, bound = fig1
        sol, tel = solve_under_session(g, s, t, k, bound, phase1="minsum")
        assert sol.counters["krsp.solves"] == 1
        assert sol.counters["cancellation.iterations"] == sol.iterations
        # Solve-level counters are a subset of what the outer session saw.
        for name, value in sol.counters.items():
            assert tel.counters[name] == value

    def test_no_counters_without_session(self, fig1):
        g, s, t, k, bound = fig1
        sol = solve_krsp(g, s, t, k, bound, phase1="minsum")
        assert sol.counters == {}
        assert sol.timings  # phase timings stay available regardless

    @pytest.mark.parametrize("substrate", ["er", "grid", "layered"])
    def test_counters_deterministic_across_runs(self, substrate):
        inst = next(instance_stream(7, substrates=[substrate]))
        runs = []
        for _ in range(2):
            try:
                _, tel = solve_under_session(
                    inst.graph, inst.s, inst.t, inst.k, inst.delay_bound
                )
            except Exception:
                pytest.skip(f"substrate {substrate} produced an unsolvable seed")
            runs.append(tel.counters)
        assert runs[0] == runs[1]
        assert runs[0]  # nonempty: the solver actually recorded work


class TestTraceFileAndReport:
    def test_trace_round_trip_and_validation(self, fig1, tmp_path):
        g, s, t, k, bound = fig1
        path = tmp_path / "trace.jsonl"
        with obs.session(trace_path=path, label="round-trip"):
            solve_krsp(g, s, t, k, bound, phase1="minsum")
        trace = load_trace(path)
        assert validate_trace(trace) == []
        assert validate_file(path) == []
        assert trace.header["label"] == "round-trip"
        assert trace.header["schema"] == obs.TRACE_SCHEMA == 2
        assert trace.counters["cancellation.iterations"] >= 1
        assert trace.summary["spans"] == len(trace.spans)
        # Schema 2: the histograms line round-trips, and each span-name
        # histogram's count equals the trace's span count for that name.
        assert trace.histograms["krsp.solve"]["count"] == 1
        span_names = [s["name"] for s in trace.spans]
        for name, h in trace.histograms.items():
            if name in span_names:
                assert h["count"] == span_names.count(name)

    def test_histogram_span_count_cross_check(self, fig1, tmp_path):
        g, s, t, k, bound = fig1
        path = tmp_path / "trace.jsonl"
        with obs.session(trace_path=path):
            solve_krsp(g, s, t, k, bound, phase1="minsum")
        lines = [json.loads(raw) for raw in path.read_text().splitlines()]
        for line in lines:
            if line["type"] == "histograms":
                name = next(iter(line["values"]))
                line["values"][name]["counts"][0] += 1
                line["values"][name]["count"] += 1
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        problems = validate_file(path)
        assert any("histogram" in p for p in problems)

    def test_report_renders_all_sections(self, fig1):
        g, s, t, k, bound = fig1
        _, tel = solve_under_session(g, s, t, k, bound, phase1="minsum")
        trace = Trace.from_session(tel)
        text = render_report(trace)
        assert "phase-time breakdown" in text
        assert "hot spans" in text
        assert "cancellation.iterations" in text
        assert "cancellation iterations" in text
        phases = dict((name, cnt) for name, _, cnt, _ in phase_breakdown(trace))
        assert phases.get("krsp.cancel") == 1
        d = report_json(trace)
        assert d["schema"] == obs.TRACE_SCHEMA
        assert d["counters"] == trace.counters
        assert len(d["cancel_iterations"]) == trace.counters["cancellation.iterations"]
        json.dumps(d)  # machine-readable means JSON-serializable

    def test_validation_catches_corruption(self, fig1, tmp_path):
        g, s, t, k, bound = fig1
        path = tmp_path / "trace.jsonl"
        with obs.session(trace_path=path):
            solve_krsp(g, s, t, k, bound, phase1="minsum")
        lines = [json.loads(raw) for raw in path.read_text().splitlines()]
        # Break the Lemma-12 cross-check: claim one more iteration.
        for line in lines:
            if line["type"] == "counters":
                line["values"]["cancellation.iterations"] += 1
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        problems = validate_file(path)
        assert any("cancellation.iterations" in p for p in problems)

    def test_validation_catches_bad_header_and_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "summary", "spans": 0, "events": 0}\n')
        assert any("header" in p for p in validate_file(path))
        path.write_text("not json\n")
        assert validate_file(path)


class TestCli:
    def test_solve_trace_then_trace_command(self, fig1, tmp_path, capsys):
        g, s, t, k, bound = fig1
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(instance_to_dict(g, s, t, k, bound)))
        trace_path = tmp_path / "out.jsonl"
        assert cli_main(["solve", str(inst_path), "--phase1", "minsum",
                         "--trace", str(trace_path)]) == 0
        assert trace_path.exists()
        capsys.readouterr()
        assert cli_main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "phase-time breakdown" in out and "counters:" in out
        assert cli_main(["trace", str(trace_path), "--validate"]) == 0
        assert "valid:" in capsys.readouterr().out
        assert cli_main(["trace", str(trace_path), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["counters"]["krsp.solves"] == 1

    def test_trace_command_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        assert cli_main(["trace", str(bad)]) == 2
        assert cli_main(["trace", str(tmp_path / "missing.jsonl")]) == 2
        good_header_only = tmp_path / "partial.jsonl"
        good_header_only.write_text(json.dumps({"type": "header", "schema": 99}) + "\n")
        assert cli_main(["trace", str(good_header_only), "--validate"]) == 1


@pytest.fixture(scope="module")
def overhead_gate():
    spec = importlib.util.spec_from_file_location(
        "_obs_overhead_gate", REPO_ROOT / "scripts" / "obs_overhead_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOverheadGuard:
    """Telemetry primitive calls per Figure-1 solve, held to deterministic
    ceilings. Pricing those calls against the solve's wall time is a
    timing ratio, so it runs in CI's perf job
    (``scripts/obs_overhead_gate.py``, which owns the ceilings)."""

    def test_disabled_primitives_are_cheap(self, overhead_gate):
        """Tracing disabled: the solve's calls stay inside the budget the
        gate prices against 5% of the solve time."""
        assert not obs.enabled()
        calls = overhead_gate.count_primitive_calls(
            overhead_gate.figure1(), enabled=False
        )
        assert calls["counter"] > 0 and calls["span"] > 0, calls
        assert not overhead_gate.over_ceilings(
            calls, overhead_gate.DISABLED_CEILINGS
        ), calls

    def test_enabled_primitives_with_metrics_endpoint_are_cheap(self, overhead_gate):
        """Tracing enabled: the solve's calls, which the gate prices with
        a live ``/metrics`` publisher attached, stay under their ceilings."""
        calls = overhead_gate.count_primitive_calls(
            overhead_gate.figure1(), enabled=True
        )
        assert calls["span"] > 0 and calls["observe"] > 0, calls
        assert not overhead_gate.over_ceilings(
            calls, overhead_gate.ENABLED_CEILINGS
        ), calls
