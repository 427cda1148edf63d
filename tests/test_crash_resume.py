"""Crash-safety contract tests: journal format, torn tails, bit-identical
resume, tamper rejection, signals, and the pinned golden fixture.

The instance used throughout is the 3-iteration member of the chaos
corpus (see ``scripts/chaos_gate.py``): small enough for test time,
deep enough that a cut can land before, between, and after snapshots
(``checkpoint_every=2`` puts a snapshot mid-history).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.krsp import solve_krsp
from repro.errors import JournalError, SolveInterrupted
from repro.graph.generators import gnp_digraph
from repro.graph.io import save_instance
from repro.graph.weights import anticorrelated_weights
from repro.robustness import (
    JOURNAL_FORMAT_VERSION,
    JournalWriter,
    read_journal,
    resume_krsp,
    solve_checkpointed,
)

SRC = Path(__file__).resolve().parent.parent / "src"
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
GOLDEN_FIXTURE = CORPUS_DIR / "golden_v1.journal"


def _instance():
    rng = np.random.default_rng(21)
    g = gnp_digraph(16, 0.30, rng=rng)
    g = anticorrelated_weights(g, total=37, noise=3, rng=rng)
    return g, 0, 15, 3, 231


def _fp(sol):
    return (
        tuple(tuple(int(e) for e in p) for p in sol.paths),
        sol.cost, sol.delay, sol.status, sol.iterations,
    )


def _trail(tel):
    return [
        {k: v for k, v in e.items() if k != "seq"}
        for e in tel.events
        if e.get("kind") == "cancel.iteration"
    ]


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """One checkpointed golden run shared by the read-only tests."""
    path = tmp_path_factory.mktemp("golden") / "golden.journal"
    g, s, t, k, bound = _instance()
    with obs.session(label="golden") as tel:
        sol = solve_checkpointed(
            g, s, t, k, bound, journal_path=path,
            checkpoint_every=2, phase1="minsum",
        )
    assert sol.iterations >= 3, "chaos instance regressed to trivial"
    return {"raw": path.read_bytes(), "fp": _fp(sol), "trail": _trail(tel)}


def _record_frames(raw: bytes) -> list[tuple[int, int]]:
    """(start, end-past-newline) of every intact record."""
    frames, pos = [], 0
    while pos < len(raw):
        sp1 = raw.find(b" ", pos)
        sp2 = raw.find(b" ", sp1 + 1)
        end = sp2 + 1 + int(raw[pos:sp1])
        frames.append((pos, end + 1))
        pos = end + 1
    return frames


def _reframe(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return f"{len(body)} {zlib.crc32(body) & 0xFFFFFFFF:08x} ".encode() + body + b"\n"


def _rewrite_record(raw: bytes, index: int, mutate) -> bytes:
    """Re-frame record ``index`` after applying ``mutate`` to its payload
    (valid CRC — this is semantic tampering, not bit rot)."""
    frames = _record_frames(raw)
    start, end = frames[index]
    body = raw[raw.find(b" ", raw.find(b" ", start) + 1) + 1 : end - 1]
    payload = json.loads(body)
    mutate(payload)
    return raw[:start] + _reframe(payload) + raw[end:]


# -- format layer ---------------------------------------------------------


def test_journal_roundtrip_and_seal(tmp_path):
    path = tmp_path / "j.journal"
    w = JournalWriter.fresh(path, instance={"n": 3}, config={"x": 1})
    w.append({"kind": "iteration", "iteration": 0})
    w.close()
    doc = read_journal(path)
    assert [r["kind"] for r in doc.records] == ["header", "iteration"]
    assert doc.header["format"] == JOURNAL_FORMAT_VERSION
    assert len(doc.header["seal"]) == 64
    assert doc.torn_bytes == 0


def test_torn_tail_is_truncated_not_fatal(tmp_path, golden):
    path = tmp_path / "torn.journal"
    path.write_bytes(golden["raw"] + b"189 deadbeef {\"kind\": \"iter")
    doc = read_journal(path)
    assert doc.torn_bytes > 0
    assert doc.records[-1]["kind"] == "final"


def test_unknown_format_version_rejected(tmp_path, golden):
    def bump(payload):
        payload["format"] = JOURNAL_FORMAT_VERSION + 1

    path = tmp_path / "future.journal"
    path.write_bytes(_rewrite_record(golden["raw"], 0, bump))
    with pytest.raises(JournalError, match="unsupported journal format"):
        read_journal(path)


def test_not_a_journal_rejected(tmp_path):
    path = tmp_path / "noise.journal"
    path.write_bytes(b"this is not a journal\n")
    with pytest.raises(JournalError, match="no intact journal header"):
        read_journal(path)


# -- resume semantics -----------------------------------------------------


def test_prelude_records_the_minimum_delay(golden):
    """The gate's lexicographic (delay, cost) flow weighs ``d * big + c``;
    the prelude still records the bare minimum delay."""
    from repro.flow import min_cost_k_flow

    g, s, t, k, _ = _instance()
    prelude = next(r for r in read_journal_bytes(golden["raw"]) if r["kind"] == "prelude")
    assert prelude["min_delay_weight"] == min_cost_k_flow(g, s, t, k, weight=g.delay).weight


def test_checkpoint_disabled_solve_is_bit_identical(golden):
    g, s, t, k, bound = _instance()
    plain = solve_krsp(g, s, t, k, bound, phase1="minsum")
    assert _fp(plain) == golden["fp"]


def test_resume_bit_identical_across_cuts(tmp_path, golden):
    raw = golden["raw"]
    frames = _record_frames(raw)
    # Clean cuts at every record boundary (including the complete journal:
    # resuming a finished run must short-circuit to the same answer) plus
    # torn cuts inside three different records.
    cuts = [end for _, end in frames]
    for idx in (1, len(frames) // 2, len(frames) - 1):
        start, end = frames[idx]
        cuts.append(start + max(1, (end - start) // 2))
    for cut in cuts:
        path = tmp_path / f"cut{cut}.journal"
        path.write_bytes(raw[:cut])
        with obs.session(label=f"cut{cut}") as tel:
            sol = resume_krsp(path)
        assert _fp(sol) == golden["fp"], f"cut at byte {cut}"
        assert _trail(tel) == golden["trail"], f"cut at byte {cut}"


def test_every_iteration_snapshot_resumes_bit_identical(tmp_path, golden):
    """With a snapshot after every iteration, a cut mid-history resumes
    from a snapshot to the uninterrupted answer and trail. Journals carry
    no residual: each iteration builds its own from the solution."""
    g, s, t, k, bound = _instance()
    path = tmp_path / "every.journal"
    with obs.session(label="every") as tel:
        sol = solve_checkpointed(
            g, s, t, k, bound, journal_path=path,
            checkpoint_every=1, phase1="minsum",
        )
    assert _fp(sol) == golden["fp"]
    assert _trail(tel) == golden["trail"]
    raw = path.read_bytes()
    records = read_journal_bytes(raw)
    kinds = [r["kind"] for r in records]
    assert kinds.count("snapshot") == kinds.count("iteration") == sol.iterations
    assert all("residual" not in r for r in records if r["kind"] == "snapshot")
    assert all(
        "residual_version" not in r for r in records if r["kind"] == "iteration"
    )
    # Cut right after the second snapshot: one snapshot restores the state
    # and the loop continues live.
    second_snapshot = [i for i, kind in enumerate(kinds) if kind == "snapshot"][1]
    cut_path = tmp_path / "cut.journal"
    cut_path.write_bytes(raw[: _record_frames(raw)[second_snapshot][1]])
    with obs.session(label="resumed") as tel2:
        resumed = resume_krsp(cut_path)
    assert _fp(resumed) == golden["fp"]
    assert _trail(tel2) == golden["trail"]


def test_tampered_iteration_record_rejected(tmp_path, golden):
    doc_kinds = [r["kind"] for r in read_journal_bytes(golden["raw"])]
    idx = doc_kinds.index("iteration")

    def corrupt(payload):
        payload["cost_after"] = str(int(payload["cost_after"]) + 1)

    # Cut after the tampered record so replay must validate it.
    frames = _record_frames(golden["raw"])
    tampered = _rewrite_record(golden["raw"], idx, corrupt)
    path = tmp_path / "tampered.journal"
    path.write_bytes(tampered[: _record_frames(tampered)[idx][1]])
    with pytest.raises(JournalError):
        resume_krsp(path)
    assert frames  # silence unused warning paranoia


def test_header_seal_mismatch_rejected(tmp_path, golden):
    def retarget(payload):
        payload["instance"]["k"] = payload["instance"]["k"] + 1  # stale seal

    path = tmp_path / "sealbreak.journal"
    path.write_bytes(_rewrite_record(golden["raw"], 0, retarget))
    with pytest.raises(JournalError, match="seal"):
        resume_krsp(path)


def read_journal_bytes(raw: bytes):
    frames = _record_frames(raw)
    out = []
    for start, end in frames:
        body = raw[raw.find(b" ", raw.find(b" ", start) + 1) + 1 : end - 1]
        out.append(json.loads(body))
    return out


# -- golden fixture (format evolution tripwire) ---------------------------


def test_golden_fixture_replays():
    """The committed v1 journal must resume forever.

    If a record schema change breaks this test, the change is
    incompatible: bump JOURNAL_FORMAT_VERSION (old journals are then
    rejected loudly) and regenerate the fixture with
    ``python scripts/make_golden_journal.py``.
    """
    assert JOURNAL_FORMAT_VERSION == 1, (
        "format version bumped: regenerate tests/corpus/golden_v1.journal "
        "(scripts/make_golden_journal.py) and repin this test"
    )
    # .expect, not .json: the oracle corpus loader globs *.json and would
    # choke on a foreign payload in tests/corpus/.
    expected = json.loads((CORPUS_DIR / "golden_v1.expect").read_text())
    raw = GOLDEN_FIXTURE.read_bytes()
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        # Resume appends to the journal; never touch the committed copy.
        work = Path(td) / "golden_v1.journal"
        work.write_bytes(raw)
        sol = resume_krsp(work)
        assert sol.cost == expected["cost"]
        assert sol.delay == expected["delay"]
        assert sol.iterations == expected["iterations"]
        assert [list(p) for p in sol.paths] == expected["paths"]

        # And from a mid-history cut: replay + live continuation.
        frames = _record_frames(raw)
        cut = frames[len(frames) // 2][1]
        work.write_bytes(raw[:cut])
        sol2 = resume_krsp(work)
        assert _fp(sol2) == _fp(sol)


# -- process-level: signals and kills -------------------------------------


def _spawn_solve(inst_path, journal, extra_env, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC), **extra_env)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "solve", str(inst_path),
         "--checkpoint", str(journal), "--checkpoint-every", "2",
         "--phase1", "minsum", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@pytest.fixture()
def inst_file(tmp_path):
    g, s, t, k, bound = _instance()
    path = tmp_path / "inst.json"
    save_instance(path, g, s, t, k, bound)
    return path


def test_sigint_flushes_checkpoint_and_exits_130(tmp_path, inst_file, golden):
    journal = tmp_path / "sig.journal"
    # Per-record delay keeps the solve inside the loop long enough for the
    # signal to land deterministically mid-run.
    proc = _spawn_solve(inst_file, journal, {"REPRO_JOURNAL_DELAY_PER_RECORD": "0.3"})
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and not journal.exists():
        time.sleep(0.02)
    assert journal.exists()
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 130, err[-2000:]
    assert "checkpoint flushed to" in err
    assert "repro resume" in err
    # The flushed journal resumes to the uninterrupted answer.
    sol = resume_krsp(journal)
    assert _fp(sol) == golden["fp"]


def test_sigkill_then_cli_resume(tmp_path, inst_file, golden):
    journal = tmp_path / "kill.journal"
    proc = _spawn_solve(inst_file, journal, {"REPRO_JOURNAL_KILL_AFTER_RECORDS": "4"})
    proc.communicate(timeout=120)
    assert proc.returncode == -signal.SIGKILL
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-m", "repro", "resume", str(journal)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    _, cost, delay, *_ = golden["fp"]
    assert f"cost={cost} delay={delay}" in out.stdout


def test_sweep_interrupt_keeps_durable_records_and_resumes(tmp_path):
    """First strike mid-sweep: SolveInterrupted carries the JSONL path and
    a later --resume run re-runs only the missing trials."""
    from repro.eval.parallel import run_trials_parallel
    from repro.eval.workloads import WORKLOADS
    from repro.robustness import GracefulShutdown

    insts = list(WORKLOADS["er_anticorrelated"](n_instances=2, seed=2015, n=12))
    jsonl = tmp_path / "sweep.jsonl"
    shutdown = GracefulShutdown()
    shutdown.signum = signal.SIGINT  # signal already delivered
    with pytest.raises(SolveInterrupted) as exc_info:
        run_trials_parallel(
            insts, ["minsum"], max_workers=2,
            jsonl_path=jsonl, shutdown=shutdown,
        )
    assert exc_info.value.signum == signal.SIGINT
    assert exc_info.value.checkpoint_path == str(jsonl)

    records = run_trials_parallel(
        insts, ["minsum"], max_workers=2, jsonl_path=jsonl, resume=True,
    )
    assert all(r.status == "ok" for r in records)
    # Everything durable now; a second resume runs nothing new.
    again = run_trials_parallel(
        insts, ["minsum"], max_workers=2, jsonl_path=jsonl, resume=True,
    )
    assert [(r.cost, r.delay) for r in again] == [
        (r.cost, r.delay) for r in records
    ]
