"""Crash-safety contract tests: journal format, torn tails, bit-identical
resume, tamper rejection, signals, and the pinned golden fixture.

The instance used throughout is the 3-iteration member of the chaos
corpus (see ``scripts/chaos_gate.py``): small enough for test time,
deep enough that a cut can land before, between, and after iteration
records. The committed golden fixture is the same solve, written by an
older build that also appended a ``snapshot`` record after iteration 2;
resume must ignore it.
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
    SolveBudget,
    metered,
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
            g, s, t, k, bound, journal_path=path, phase1="minsum",
        )
    assert sol.iterations >= 3, "chaos instance regressed to trivial"
    return {
        "raw": path.read_bytes(),
        "fp": _fp(sol),
        "trail": _trail(tel),
        "records": sol.records,
    }


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


def test_prelude_holds_exactly_what_resume_reads(golden):
    prelude = next(r for r in read_journal_bytes(golden["raw"]) if r["kind"] == "prelude")
    assert set(prelude) == {"kind", "provider", "p1_paths", "lower_bound", "cost_cap"}


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
        assert sol.records == golden["records"], f"cut at byte {cut}"


def test_journaled_solve_masks_an_ambient_meter(tmp_path, golden):
    """A journaled solve runs unmetered inside an outer budget: resume
    replays a journal unmetered, so a budgeted run it recorded would not
    resume to its own answer."""
    g, s, t, k, bound = _instance()
    path = tmp_path / "metered.journal"
    with metered(SolveBudget(max_iterations=1).start()):
        sol = solve_checkpointed(
            g, s, t, k, bound, journal_path=path, phase1="minsum",
        )
    assert _fp(sol) == golden["fp"]
    raw = path.read_bytes()
    final_start, _ = _record_frames(raw)[-1]
    cut = tmp_path / "no-final.journal"
    cut.write_bytes(raw[:final_start])
    assert _fp(resume_krsp(cut)) == golden["fp"]


def test_fresh_journal_holds_one_record_per_iteration(golden):
    """A journal is its header, the prelude, one ``iteration`` record per
    cancellation step and the final answer: no snapshot, and no residual
    version, since each iteration builds its residual from the solution."""
    records = read_journal_bytes(golden["raw"])
    kinds = [r["kind"] for r in records]
    iterations = golden["fp"][4]
    assert kinds == ["header", "prelude"] + ["iteration"] * iterations + ["final"]
    assert all("residual_version" not in r for r in records)
    assert set(records[0]["config"]) == {
        "phase1", "max_iterations", "opt_cost", "strict_monitor",
    }


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


def test_completed_journal_with_tampered_iteration_rejected(tmp_path, golden):
    """A journal that already holds its final record is replayed and
    verified like any other before its stored answer is returned."""
    idx = [r["kind"] for r in read_journal_bytes(golden["raw"])].index("iteration")

    def corrupt(payload):
        payload["cost_after"] = int(payload["cost_after"]) + 1

    path = tmp_path / "tampered_complete.journal"
    path.write_bytes(_rewrite_record(golden["raw"], idx, corrupt))
    assert read_journal(path).records[-1]["kind"] == "final"
    with pytest.raises(JournalError, match="recorded totals"):
        resume_krsp(path)


def test_completed_journal_with_tampered_final_rejected(tmp_path):
    """A final record rewritten (valid CRC, matching totals) to the
    prelude's phase-1 paths, which miss D, must not resume as "ok"."""
    raw = GOLDEN_FIXTURE.read_bytes()
    records = read_journal_bytes(raw)
    kinds = [r["kind"] for r in records]
    p1_paths = records[kinds.index("prelude")]["p1_paths"]
    g, s, t, k, bound = _instance()
    flat = [e for p in p1_paths for e in p]
    assert g.delay_of(flat) > bound

    def to_phase1(payload):
        payload["paths"] = p1_paths
        payload["cost"], payload["delay"] = g.cost_of(flat), g.delay_of(flat)

    path = tmp_path / "tampered_final.journal"
    path.write_bytes(_rewrite_record(raw, kinds.index("final"), to_phase1))
    with pytest.raises(JournalError, match="replayed solution"):
        resume_krsp(path)


def test_header_seal_mismatch_rejected(tmp_path, golden):
    def retarget(payload):
        payload["instance"]["k"] = payload["instance"]["k"] + 1  # stale seal

    path = tmp_path / "sealbreak.journal"
    path.write_bytes(_rewrite_record(golden["raw"], 0, retarget))
    with pytest.raises(JournalError, match="seal"):
        resume_krsp(path)


@pytest.mark.parametrize("b_max", [None, 4])
def test_header_sweep_radius_must_be_null(tmp_path, golden, b_max):
    """Older headers carry a ``b_max`` sweep radius. ``null`` (the full
    sweep, the only one the search runs) resumes bit-identically; any
    other radius cannot be replayed identically and is refused."""
    from repro.robustness.journal import instance_config_hash

    def add_radius(payload):
        payload["config"]["b_max"] = b_max
        payload["seal"] = instance_config_hash(payload["instance"], payload["config"])

    raw = _rewrite_record(golden["raw"], 0, add_radius)
    path = tmp_path / "radius.journal"
    path.write_bytes(raw[: _record_frames(raw)[1][1]])  # header + prelude
    if b_max is None:
        assert _fp(resume_krsp(path)) == golden["fp"]
    else:
        with pytest.raises(JournalError, match="b_max=4"):
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


def _golden_fixture_snapshot_cut(mutate=None) -> bytes:
    """The committed fixture cut right after its snapshot record, with
    ``mutate`` applied to that snapshot's payload (valid CRC)."""
    raw = GOLDEN_FIXTURE.read_bytes()
    kinds = [r["kind"] for r in read_journal_bytes(raw)]
    idx = kinds.index("snapshot")
    if mutate is not None:
        raw = _rewrite_record(raw, idx, mutate)
    return raw[: _record_frames(raw)[idx][1]]


def _assert_resumes_to_expect(path):
    expected = json.loads((CORPUS_DIR / "golden_v1.expect").read_text())
    with obs.session(label="golden fixture") as tel:
        sol = resume_krsp(path)
    assert (sol.cost, sol.delay, sol.iterations) == (
        expected["cost"], expected["delay"], expected["iterations"],
    )
    assert [list(p) for p in sol.paths] == expected["paths"]
    # The fixture's prelude holds the lower bound of the build that wrote
    # it, so only the trail's length is comparable with a fresh run.
    assert [e["iteration"] for e in _trail(tel)] == list(
        range(1, expected["iterations"] + 1)
    )


def test_golden_fixture_cut_after_snapshot_resumes(tmp_path):
    """Cut right after the fixture's snapshot: resume replays the
    iteration records before it and continues live."""
    path = tmp_path / "golden_snapcut.journal"
    path.write_bytes(_golden_fixture_snapshot_cut())
    _assert_resumes_to_expect(path)


def test_golden_fixture_snapshot_is_never_read(tmp_path):
    """Snapshot records in older v1 journals are ignored: garbage paths in
    one (under a valid CRC) change nothing."""

    def garble(payload):
        payload["paths"] = [[10**6], [-1, -2], []]
        payload["best_paths"] = [[10**6]]

    path = tmp_path / "golden_garbled_snapshot.journal"
    path.write_bytes(_golden_fixture_snapshot_cut(garble))
    _assert_resumes_to_expect(path)


# -- process-level: signals and kills -------------------------------------


def _spawn_solve(inst_path, journal, extra_env, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC), **extra_env)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "solve", str(inst_path),
         "--checkpoint", str(journal), "--phase1", "minsum", *args],
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
