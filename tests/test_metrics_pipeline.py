"""Tests for the metrics export pipeline (PR 7).

Covers the latency-histogram primitive, the Prometheus text-format
renderer and its strict parser (round-trip), the push-aggregating
`/metrics` server, the collapsed-stack flamegraph export and its
self-time invariant, trace diffing, and the CLI surface that ties them
together (``repro trace --diff/--flamegraph``, ``repro metrics``,
garbage-input hardening, trace labels).
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.core.krsp import solve_krsp
from repro.errors import InputError
from repro.eval.experiments import figure1_instance
from repro.graph.io import instance_to_dict
from repro.obs.diff import diff_traces, format_drift_block, rank_counter_drift
from repro.obs.flamegraph import fold_trace
from repro.obs.hist import BUCKET_BOUNDS, N_BUCKETS, Histogram, validate_histogram
from repro.obs.promtext import (
    metric_name,
    parse_prometheus,
    render_prometheus,
    render_session,
)
from repro.obs.report import Trace, load_trace, validate_trace
from repro.obs.server import (
    PUSH_SCHEMA,
    MetricsServer,
    attach_metrics,
    push_snapshot,
    snapshot_session,
)
from repro.oracle.fuzzer import instance_stream


@pytest.fixture
def fig1():
    g, ids = figure1_instance(6, 10)
    return g, ids["s"], ids["t"], 2, 6


def solve_trace(fig1, tmp_path, name, phase1="minsum"):
    """Solve the Figure-1 gadget under a traced session; return the path."""
    g, s, t, k, bound = fig1
    path = tmp_path / name
    with obs.session(trace_path=path, label=f"test {name}"):
        solve_krsp(g, s, t, k, bound, phase1=phase1)
    return path


class TestHistogram:
    def test_bucket_ladder_shape(self):
        assert len(BUCKET_BOUNDS) == 25
        assert N_BUCKETS == 26
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-6)
        assert BUCKET_BOUNDS[-1] == pytest.approx(100.0)
        # Log-spaced: three buckets per decade.
        for lo, hi in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert hi / lo == pytest.approx(10 ** (1 / 3))

    def test_observe_places_values_in_buckets(self):
        h = Histogram()
        h.observe(1e-9)     # below the ladder -> first bucket
        h.observe(5e-3)
        h.observe(1e9)      # beyond the ladder -> overflow bucket
        assert h.count == 3
        assert h.sum == pytest.approx(1e-9 + 5e-3 + 1e9)
        assert h.counts[0] == 1
        assert h.counts[-1] == 1
        assert sum(h.counts) == 3

    def test_percentiles_interpolate_and_degrade(self):
        h = Histogram()
        assert h.percentile(0.5) == 0.0  # empty
        for _ in range(100):
            h.observe(2e-3)
        p50 = h.percentile(0.5)
        # All mass in one bucket: the quantile lands inside that bucket.
        lo_idx = next(i for i, c in enumerate(h.counts) if c)
        lo = BUCKET_BOUNDS[lo_idx - 1] if lo_idx else 0.0
        assert lo <= p50 <= BUCKET_BOUNDS[lo_idx]
        assert h.percentile(0.99) >= p50
        h2 = Histogram()
        h2.observe(1e9)
        assert h2.percentile(0.5) == BUCKET_BOUNDS[-1]  # overflow clamps

    def test_merge_matches_joint_observation(self):
        values_a = [1e-5, 3e-4, 0.2, 50.0]
        values_b = [2e-6, 0.2, 7.0, 1e4]
        a, b, joint = Histogram(), Histogram(), Histogram()
        for v in values_a:
            a.observe(v)
            joint.observe(v)
        for v in values_b:
            b.observe(v)
            joint.observe(v)
        a.merge(b)
        assert a.counts == joint.counts
        assert a.count == joint.count
        assert a.sum == pytest.approx(joint.sum)
        # Merging the as_dict form works too (the server's path).
        c = Histogram()
        c.merge(joint.as_dict())
        assert c.counts == joint.counts

    def test_dict_round_trip_and_validation(self):
        h = Histogram()
        h.observe(0.01)
        d = h.as_dict()
        assert validate_histogram("x", d) == []
        assert Histogram.from_dict(d).as_dict() == d
        assert validate_histogram("x", {"counts": [0], "sum": 0, "count": 0})
        bad = dict(d, count=99)
        assert any("count" in p for p in validate_histogram("x", bad))
        assert validate_histogram("x", "not a dict")

    def test_session_records_span_histograms(self):
        with obs.session() as tel:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            with obs.span("outer"):
                pass
            obs.observe("custom.latency", 0.25)
        assert tel.histograms["outer"].count == 2
        assert tel.histograms["inner"].count == 1
        assert tel.histograms["custom.latency"].count == 1
        # Module-level observe is a no-op when disabled.
        obs.observe("dead", 1.0)
        assert obs.snapshot() == {}

    def test_solve_level_latency_recorded(self, fig1):
        g, s, t, k, bound = fig1
        with obs.session() as tel:
            solve_krsp(g, s, t, k, bound, phase1="minsum")
            solve_krsp(g, s, t, k, bound, phase1="minsum")
        assert tel.histograms["krsp.solve"].count == 2
        assert tel.histograms["krsp.solve"].sum > 0.0


class TestPrometheusRoundTrip:
    def test_metric_name_sanitization(self):
        assert metric_name("search.ratio.potential_rounds", suffix="_total") == \
            "repro_search_ratio_potential_rounds_total"
        assert metric_name("krsp.solve", suffix="_seconds") == \
            "repro_krsp_solve_seconds"

    def test_render_parse_round_trip(self):
        h = Histogram()
        for v in (1e-5, 2e-3, 2e-3, 0.5, 1e9):
            h.observe(v)
        text = render_prometheus(
            {"krsp.solves": 3, "lp.pivots": 120},
            {"krsp.cost": 45.0},
            {"krsp.solve": h},
        )
        families = parse_prometheus(text)
        assert families["repro_krsp_solves_total"].type == "counter"
        assert families["repro_krsp_solves_total"].samples[0][2] == 3
        assert families["repro_krsp_cost"].type == "gauge"
        fam = families["repro_krsp_solve_seconds"]
        assert fam.type == "histogram"
        buckets = [(ls, v) for n, ls, v in fam.samples
                   if n == "repro_krsp_solve_seconds_bucket"]
        assert len(buckets) == N_BUCKETS  # 25 bounds + +Inf
        assert buckets[-1][0]["le"] == "+Inf" and buckets[-1][1] == 5
        counts = [v for _, v in buckets]
        assert counts == sorted(counts)  # cumulative
        (sum_v,) = [v for n, _, v in fam.samples
                    if n == "repro_krsp_solve_seconds_sum"]
        assert sum_v == pytest.approx(h.sum)

    def test_render_session_covers_live_telemetry(self, fig1):
        g, s, t, k, bound = fig1
        with obs.session() as tel:
            solve_krsp(g, s, t, k, bound, phase1="minsum")
        families = parse_prometheus(render_session(tel))
        assert families["repro_krsp_solves_total"].samples[0][2] == 1
        assert families["repro_krsp_solve_seconds"].type == "histogram"

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("repro_x{ 1\n", "malformed sample"),
            ('repro_x{le=nope} 1\n', "malformed labels"),
            ("repro_x 1\n# TYPE repro_x counter\n", "after samples"),
            ("# TYPE repro_h histogram\nrepro_h_sum 1\nrepro_h_count 1\n",
             "no _bucket"),
            ('# TYPE repro_h histogram\nrepro_h_bucket{le="1"} 2\n'
             'repro_h_bucket{le="+Inf"} 1\nrepro_h_sum 1\nrepro_h_count 1\n',
             "not cumulative"),
            ('# TYPE repro_h histogram\nrepro_h_bucket{le="1"} 1\n'
             "repro_h_sum 1\nrepro_h_count 1\n", "+Inf"),
            ('# TYPE repro_h histogram\nrepro_h_bucket{le="+Inf"} 2\n'
             "repro_h_sum 1\nrepro_h_count 1\n", "_count 1"),
        ],
    )
    def test_parser_rejects_malformed_pages(self, text, fragment):
        with pytest.raises(InputError) as exc_info:
            parse_prometheus(text)
        assert fragment in str(exc_info.value)


class TestMetricsServer:
    def _scrape(self, url):
        with urllib.request.urlopen(url + "/metrics", timeout=5.0) as resp:
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            return resp.read().decode("utf-8")

    def test_push_merge_scrape_and_health(self):
        srv = MetricsServer(0)
        try:
            h = Histogram()
            h.observe(0.01)
            snap = {
                "schema": PUSH_SCHEMA,
                "label": "solve a",
                "counters": {"krsp.solves": 2, "lp.pivots": 10},
                "gauges": {"krsp.cost": 45.0},
                "histograms": {"krsp.solve": h.as_dict()},
            }
            push_snapshot(srv.url, snap)
            push_snapshot(srv.url, dict(snap, label="solve b",
                                        counters={"krsp.solves": 3},
                                        gauges={}))
            families = parse_prometheus(self._scrape(srv.url))
            # Counters summed across sources; histogram present once.
            assert families["repro_krsp_solves_total"].samples[0][2] == 5
            assert families["repro_krsp_solve_seconds"].type == "histogram"
            # Two sources -> gauges are exported per-source-labeled.
            gauge_samples = families["repro_krsp_cost"].samples
            assert {ls.get("source") for _, ls, _ in gauge_samples} == {"solve a"}
            # Meta-metrics.
            assert families["repro_metrics_sources"].samples[0][2] == 2
            pushes = {ls["source"]: v for _, ls, v in
                      families["repro_metrics_pushes_total"].samples}
            assert pushes == {"solve a": 1, "solve b": 1}
            with urllib.request.urlopen(srv.url + "/healthz", timeout=5.0) as r:
                health = json.load(r)
            assert health["status"] == "ok" and health["sources"] == 2
            assert set(health["push_age_seconds"]) == {"solve a", "solve b"}
        finally:
            srv.close()

    def test_push_rejects_garbage(self):
        srv = MetricsServer(0)
        try:
            for payload in (
                b"not json",
                json.dumps({"schema": 999}).encode(),
                json.dumps({"schema": PUSH_SCHEMA, "label": "x",
                            "histograms": {"h": {"counts": [1], "sum": 0,
                                                 "count": 1}}}).encode(),
            ):
                req = urllib.request.Request(
                    srv.url + "/push", data=payload, method="POST"
                )
                with pytest.raises(urllib.error.HTTPError) as exc_info:
                    urllib.request.urlopen(req, timeout=5.0)
                assert exc_info.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(srv.url + "/nope", timeout=5.0)
            assert exc_info.value.code == 404
        finally:
            srv.close()

    def test_attach_reuses_running_aggregator(self):
        srv = MetricsServer(0)
        try:
            with obs.session(label="attached") as tel:
                obs.inc("attach.test")
                publisher, owned = attach_metrics(
                    srv.port, tel, "attached", interval=30.0
                )
                assert owned is None  # joined srv instead of starting one
                publisher.close()  # final push flushes the session state
            families = parse_prometheus(self._scrape(srv.url))
            assert families["repro_attach_test_total"].samples[0][2] == 1
        finally:
            srv.close()

    def test_publisher_heartbeats_are_session_scoped(self, fig1):
        g, s, t, k, bound = fig1
        srv = MetricsServer(0)
        try:
            with obs.session(label="hb") as outer:
                publisher, _ = attach_metrics(srv.port, outer, "hb",
                                              interval=0.05)
                sol = solve_krsp(g, s, t, k, bound, phase1="minsum")
                import time as _time

                _time.sleep(0.2)
                publisher.close()
            beats = [e for e in outer.events
                     if e["kind"] == "metrics.heartbeat"]
            assert beats, "publisher never heartbeat"
            assert outer.counters["metrics.heartbeats"] == len(beats)
            # The nested per-solve session stays heartbeat-free: its
            # counters (and event trail) remain deterministic.
            assert "metrics.heartbeats" not in sol.counters
            # Events in trace_lines stay seq-sorted despite the
            # publisher thread appending concurrently.
            trace = Trace.from_session(outer)
            assert validate_trace(trace) == []
        finally:
            srv.close()


class TestFlamegraph:
    def test_fold_invariant_over_seeded_solves(self):
        checked = 0
        for inst in instance_stream(11, substrates=["er"]):
            if checked >= 2:
                break
            with obs.session() as tel:
                try:
                    solve_krsp(inst.graph, inst.s, inst.t, inst.k,
                               inst.delay_bound)
                except Exception:
                    continue
            folded = fold_trace(Trace.from_session(tel))
            assert folded.total_ns == folded.root_total_ns
            assert folded.span_count == len(tel.spans)
            for line in folded.lines:
                path, ns = line.rsplit(" ", 1)
                assert int(ns) > 0 and path
            checked += 1
        assert checked == 2

    def test_fold_caps_rounding_jitter(self):
        # A child claiming more time than its parent (rounding jitter,
        # here exaggerated) is capped; the invariant still holds exactly.
        trace = Trace(spans=[
            {"id": 1, "parent": None, "seq": 1, "name": "root", "dur": 1e-6},
            {"id": 2, "parent": 1, "seq": 2, "name": "kid", "dur": 2e-6},
        ])
        folded = fold_trace(trace)
        assert folded.total_ns == folded.root_total_ns == 1000
        assert folded.capped_ns == 1000
        assert folded.lines == ["root;kid 1000"]

    def test_sibling_paths_aggregate(self):
        trace = Trace(spans=[
            {"id": 1, "parent": None, "seq": 1, "name": "a", "dur": 10e-6},
            {"id": 2, "parent": 1, "seq": 2, "name": "b", "dur": 2e-6},
            {"id": 3, "parent": 1, "seq": 3, "name": "b", "dur": 3e-6},
        ])
        folded = fold_trace(trace)
        assert set(folded.lines) == {"a 5000", "a;b 5000"}
        assert folded.total_ns == 10_000


class TestTraceDiff:
    def test_identical_seeds_diff_empty(self, fig1, tmp_path):
        a = load_trace(solve_trace(fig1, tmp_path, "a.jsonl"))
        b = load_trace(solve_trace(fig1, tmp_path, "b.jsonl"))
        d = diff_traces(a, b)
        assert d.counters_identical
        assert d.counters == []
        assert format_drift_block(d.counters) == ["  (counters identical)"]

    def test_drift_ranked_by_contribution(self):
        drifts = rank_counter_drift(
            {"lp.pivots": 100, "dijkstra.pops": 50, "same": 7},
            {"lp.pivots": 160, "dijkstra.pops": 30, "same": 7, "new.counter": 20},
        )
        assert [d.name for d in drifts] == \
            ["lp.pivots", "dijkstra.pops", "new.counter"]
        assert drifts[0].delta == 60 and drifts[0].rel == pytest.approx(0.6)
        assert drifts[2].rel is None  # new counter: no baseline to relate to
        assert sum(d.share for d in drifts) == pytest.approx(1.0)
        block = format_drift_block(drifts, top=2)
        assert any("1 more counters moved" in line for line in block)


class TestCliPipeline:
    def test_trace_diff_command(self, fig1, tmp_path, capsys):
        a = solve_trace(fig1, tmp_path, "a.jsonl")
        b = solve_trace(fig1, tmp_path, "b.jsonl")
        assert cli_main(["trace", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "behaviourally identical" in out
        assert cli_main(["trace", "--diff", str(a), str(b), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["counters_identical"] is True
        assert parsed["counter_drift"] == []
        # Positional + --diff is a usage error, not a silent pick.
        assert cli_main(["trace", str(a), "--diff", str(a), str(b)]) == 2
        assert cli_main(["trace"]) == 2

    def test_trace_flamegraph_command(self, fig1, tmp_path, capsys):
        trace_path = solve_trace(fig1, tmp_path, "fg.jsonl")
        out_path = tmp_path / "fg.collapsed"
        assert cli_main(["trace", str(trace_path),
                         "--flamegraph", str(out_path)]) == 0
        assert "self time" in capsys.readouterr().out
        total = 0
        for line in out_path.read_text().splitlines():
            path, ns = line.rsplit(" ", 1)
            assert path and int(ns) > 0
            total += int(ns)
        trace = load_trace(trace_path)
        root_ns = sum(round(s["dur"] * 1e9) for s in trace.spans
                      if s.get("parent") is None)
        assert total == root_ns

    @pytest.mark.parametrize(
        "content, mode",
        [
            (b"", "wb"),                                   # empty
            (b"\x00\x01\x02\xff" * 16, "wb"),              # binary
            (b'{"type": "header", "schema": 2}\n{"type"',  # torn tail
             "wb"),
        ],
    )
    def test_trace_rejects_garbage_with_exit_2(self, tmp_path, capsys,
                                               content, mode):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(content)
        assert cli_main(["trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot load trace" in err
        assert "Traceback" not in err

    def test_torn_tail_names_the_debris(self, fig1, tmp_path, capsys):
        path = solve_trace(fig1, tmp_path, "torn.jsonl")
        data = path.read_bytes()
        path.write_bytes(data[:-20])  # sever the summary seal mid-line
        assert cli_main(["trace", str(path)]) == 2
        assert "torn trailing record" in capsys.readouterr().err

    def test_metrics_check_command(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        h = Histogram()
        h.observe(0.5)
        good.write_text(render_prometheus({"c": 1}, {}, {"h": h}))
        assert cli_main(["metrics", "check", str(good)]) == 0
        assert "valid text-format 0.0.4" in capsys.readouterr().out
        bad = tmp_path / "bad.txt"
        bad.write_text("repro_x{ 1\n")
        assert cli_main(["metrics", "check", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err
        assert cli_main(["metrics", "check",
                         str(tmp_path / "missing.txt")]) == 2

    def test_solve_metrics_port_in_process(self, fig1, tmp_path, capsys):
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        g, s_, t, k, bound = fig1
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(instance_to_dict(g, s_, t, k, bound)))
        # No aggregator on the port: solve serves in-process and still
        # exits cleanly (endpoint dies with the command).
        assert cli_main(["solve", str(inst_path), "--phase1", "minsum",
                         "--metrics-port", str(port)]) == 0

    def test_sweep_trace_labels_header(self, tmp_path, capsys):
        trace_path = tmp_path / "sweep.jsonl"
        assert cli_main(["sweep", "er_anticorrelated", "--param", "n=8",
                         "--n-instances", "1", "--seed", "3",
                         "--trace", str(trace_path)]) == 0
        trace = load_trace(trace_path)
        assert trace.header["label"] == "sweep er_anticorrelated seed=3"
        assert validate_trace(trace) == []

    def test_fuzz_trace_labels_header(self, tmp_path):
        trace_path = tmp_path / "fuzz.jsonl"
        assert cli_main(["fuzz", "--budget", "0.1", "--max-instances", "1",
                         "--seed", "0", "--no-corpus", "--no-shrink",
                         "--trace", str(trace_path)]) == 0
        trace = load_trace(trace_path)
        assert trace.header["label"] == "fuzz seed=0 budget=0.1s"
