"""Regression tests for the metrics push-path hardening (PR 8).

Three bugs the solve service exposed, each pinned here:

* ``POST /push`` trusted ``Content-Length`` blindly (no cap, no
  validation) and accepted pushes from any source — now 400/413/403.
* ``snapshot_session`` iterated the live session dicts while solver
  threads mutated them (``RuntimeError: dictionary changed size during
  iteration``) and could tear a histogram's ``sum``/``count`` pair —
  now snapshots under the session lock.
* ``MetricsPublisher._push_once`` swallowed *every* exception (so the
  snapshot race silently dropped pushes) and ``close()`` could
  double-push — now only transport errors are swallowed, and close is
  idempotent with exactly one final push.
"""

from __future__ import annotations

import http.client
import sys
import threading
import urllib.error

import pytest

import repro.obs as obs
import repro.obs.server as obs_server
from repro.obs.hist import validate_histogram
from repro.obs.server import (
    MAX_PUSH_BYTES,
    MetricsPublisher,
    MetricsServer,
    _is_loopback,
    push_snapshot,
    snapshot_session,
)


@pytest.fixture
def server():
    srv = MetricsServer(0)
    yield srv
    srv.close()


def _raw_post(srv: MetricsServer, headers: dict[str, str], body: bytes = b""):
    """POST /push with exact headers (no automatic Content-Length)."""
    conn = http.client.HTTPConnection(srv.host, srv.port, timeout=5.0)
    try:
        conn.putrequest("POST", "/push", skip_accept_encoding=True)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders()
        if body:
            conn.send(body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class TestPushRequestValidation:
    def test_missing_content_length_is_400(self, server):
        status, body = _raw_post(server, {"Content-Type": "application/json"})
        assert status == 400
        assert b"Content-Length" in body

    def test_malformed_content_length_is_400(self, server):
        status, _ = _raw_post(server, {"Content-Length": "banana"})
        assert status == 400

    def test_negative_content_length_is_400(self, server):
        status, body = _raw_post(server, {"Content-Length": "-17"})
        assert status == 400
        assert b"negative" in body

    def test_oversized_content_length_is_413_without_reading_body(
        self, server
    ):
        # The cap must reject on the *declared* length, before any body
        # bytes are read — a liar declaring 100 GiB must not make the
        # aggregator try to allocate it.
        status, body = _raw_post(
            server, {"Content-Length": str(MAX_PUSH_BYTES + 1)}
        )
        assert status == 413
        assert str(MAX_PUSH_BYTES).encode() in body

    def test_at_cap_is_still_parsed_not_rejected(self, server):
        # Boundary: exactly MAX_PUSH_BYTES is allowed through to the
        # JSON parser (it fails as a bad snapshot, not as oversized).
        status, _ = _raw_post(
            server,
            {"Content-Length": "2", "Content-Type": "application/json"},
            b"{}",
        )
        assert status == 400  # parsed, rejected as a bad snapshot

    def test_valid_push_still_accepted(self, server):
        with obs.session(label="hardening") as tel:
            obs.inc("krsp.solves")
        push_snapshot(server.url, snapshot_session(tel, "hardening"))
        assert "repro_krsp_solves_total 1" in server.registry.render()


class TestLoopbackOnlyPush:
    def test_is_loopback_classifier(self):
        assert _is_loopback("127.0.0.1")
        assert _is_loopback("127.8.8.8")
        assert _is_loopback("::1")
        assert _is_loopback("::ffff:127.0.0.1")
        assert not _is_loopback("10.0.0.5")
        assert not _is_loopback("::ffff:10.0.0.5")
        assert not _is_loopback("192.168.1.2")

    def test_non_loopback_push_is_403(self, server, monkeypatch):
        # The test client genuinely is loopback, so simulate a remote
        # peer by forcing the classifier — the route logic is what's
        # under test.
        monkeypatch.setattr(obs_server, "_is_loopback", lambda ip: False)
        with obs.session(label="remote") as tel:
            obs.inc("krsp.solves")
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            push_snapshot(server.url, snapshot_session(tel, "remote"))
        assert exc_info.value.code == 403

    def test_allow_remote_push_opt_in(self, monkeypatch):
        monkeypatch.setattr(obs_server, "_is_loopback", lambda ip: False)
        srv = MetricsServer(0, allow_remote_push=True)
        try:
            with obs.session(label="remote-ok") as tel:
                obs.inc("krsp.solves")
            push_snapshot(srv.url, snapshot_session(tel, "remote-ok"))
            assert srv.registry.health()["sources"] == 1
        finally:
            srv.close()

    def test_remote_scrape_stays_open(self, server, monkeypatch):
        # Read-only routes must NOT be affected by the loopback gate.
        monkeypatch.setattr(obs_server, "_is_loopback", lambda ip: False)
        import urllib.request

        with urllib.request.urlopen(server.url + "/metrics", timeout=5.0) as r:
            assert r.status == 200


class _RecordingLock:
    """A lock that records whether it was held during a callback."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquired += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()


class TestSnapshotRace:
    def test_snapshot_acquires_the_session_lock(self):
        with obs.session(label="locked") as tel:
            obs.inc("krsp.solves")
        recorder = _RecordingLock()
        tel.lock = recorder
        snapshot_session(tel, "locked")
        assert recorder.acquired == 1

    def test_telemetry_recording_goes_through_the_lock(self):
        tel = obs.Telemetry(label="locked")
        recorder = _RecordingLock()
        tel.lock = recorder
        tel.add_counter("a", 1)
        tel.set_gauge("b", 2.0)
        tel.observe_hist("c", 0.5)
        assert recorder.acquired == 3

    def test_concurrent_mutation_never_tears_a_snapshot(self):
        """The original failure: a solver thread inserting new keys
        mid-snapshot raised RuntimeError (dict changed size during
        iteration) or produced a histogram whose sum/count disagreed."""
        tel = obs.Telemetry(label="race")
        stop = threading.Event()

        def hammer() -> None:
            i = 0
            while not stop.is_set():
                tel.add_counter(f"c.{i % 257}", 1)
                tel.observe_hist(f"h.{i % 131}", 1e-4 * (i % 97 + 1))
                i += 1

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for _ in range(300):
                snap = snapshot_session(tel, "race")  # must never raise
                for name, h in snap["histograms"].items():
                    assert validate_histogram(name, h) == [], (
                        f"torn histogram {name}: {h}"
                    )
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_buffered_primitives_lose_no_update_under_concurrent_folds(self):
        """The obs primitives append to write-behind buffers that readers
        (and full buffers) fold in under the lock. Recording threads
        racing a folding reader must neither lose nor double-count a
        record."""
        per_thread, n_threads = 50000, 4
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.session(label="fold") as tel:
                done = threading.Event()

                def record() -> None:
                    for _ in range(per_thread):
                        obs.add("fold.adds", 2)
                        obs.inc("fold.incs")
                        obs.observe("fold.observed", 1e-4)
                        with obs.span("fold.span"):
                            pass

                def read() -> None:
                    while not done.is_set():
                        snapshot_session(tel, "fold")
                        for _ in range(20):
                            tel.counters.get("fold.adds")
                        len(tel.spans)

                reader = threading.Thread(target=read)
                writers = [threading.Thread(target=record) for _ in range(n_threads)]
                reader.start()
                for t in writers:
                    t.start()
                for t in writers:
                    t.join(timeout=120)
                    assert not t.is_alive()
                done.set()
                reader.join(timeout=120)
                assert not reader.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
        total = per_thread * n_threads
        assert tel.counters["fold.adds"] == 2 * total
        assert tel.counters["fold.incs"] == total
        assert tel.histograms["fold.observed"].count == total
        assert tel.histograms["fold.span"].count == total == len(tel.spans)

    def test_duck_typed_session_without_lock_still_snapshots(self):
        class Bare:
            counters = {"x": 1}
            gauges = {}
            histograms = {}

        snap = snapshot_session(Bare(), "bare")
        assert snap["counters"] == {"x": 1}


class TestPublisherPushPath:
    def test_transport_errors_are_swallowed(self):
        tel = obs.Telemetry(label="pub")
        # Point at a port nobody listens on: URLError territory.
        pub = MetricsPublisher("http://127.0.0.1:9", tel, "pub", interval=999)
        try:
            pub._push_once()
            assert pub.errors == 1
            assert pub.pushes == 0
        finally:
            pub.close()

    def test_snapshot_bugs_propagate_instead_of_vanishing(
        self, server, monkeypatch
    ):
        """Before the fix, a bare ``except Exception`` here swallowed the
        snapshot race's RuntimeError — pushes silently stopped while the
        publisher reported itself healthy."""
        tel = obs.Telemetry(label="pub")
        pub = MetricsPublisher(server.url, tel, "pub", interval=999)
        try:
            monkeypatch.setattr(
                obs_server, "snapshot_session",
                lambda *a, **k: (_ for _ in ()).throw(
                    RuntimeError("dictionary changed size during iteration")
                ),
            )
            with pytest.raises(RuntimeError):
                pub._push_once()
        finally:
            monkeypatch.undo()
            pub.close()

    def test_close_is_idempotent_single_final_push(self, server):
        tel = obs.Telemetry(label="final")
        tel.add_counter("krsp.solves", 3)
        pub = MetricsPublisher(server.url, tel, "final", interval=999)
        assert pub.pushes == 0  # interval too long for a periodic push
        pub.close()
        assert pub.pushes == 1  # exactly the final push
        pub.close()
        pub.close()
        assert pub.pushes == 1  # idempotent: no double final push
        health = server.registry.health()
        assert health["sources"] == 1

    def test_concurrent_closes_push_at_most_once(self, server):
        tel = obs.Telemetry(label="cc")
        pub = MetricsPublisher(server.url, tel, "cc", interval=999)
        barrier = threading.Barrier(4)

        def closer() -> None:
            barrier.wait()
            pub.close()

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert pub.pushes <= 1
