"""Write-ahead journal for crash-safe solving: the on-disk format layer.

A *journal* is an append-only log that makes one ``solve_krsp`` run
durable: if the process dies at any byte of the file — OOM kill,
preemption, ``kill -9`` mid-``write(2)`` — :func:`repro.robustness.
checkpointing.resume_krsp` reconstructs the exact solver state from what
did reach disk and continues to a result bit-identical to an
uninterrupted run. This module knows only the *format*; the semantic
encode/decode between solver objects and records lives in
:mod:`repro.robustness.checkpointing`.

Record framing
--------------
Each record is one line::

    <len> <crc32-hex> <json>\\n

where ``len`` is the byte length of the JSON payload and ``crc32`` its
checksum. Appends are flushed and ``fsync``'d before the writer returns
(write-ahead discipline: the record is durable before the in-memory state
transition it describes is committed). A crash can therefore tear at most
the record being written; the reader stops at the first frame that is
incomplete, misframed, or fails its CRC and treats everything before it
as the journal's content (*torn-tail truncation*).

Record kinds (payload schemas in docs/ROBUSTNESS.md):

``header``
    Sealed first record binding the journal to one solve: format version,
    the full instance, a SHA-256 over the canonical instance + config
    JSON, and the solve configuration. A journal whose header is missing,
    torn, or of an unknown version is rejected loudly
    (:class:`~repro.errors.JournalError`) — old checkpoints can never be
    silently misparsed.
``prelude``
    Pre-loop state (phase-1 solution, certified bounds, fallback paths)
    so resume never re-runs the LP phases.
``iteration``
    One cancellation step, written *before* the flip is applied: the
    flipped edge set, cycle cost/delay/type, the Lemma-12 rate, the
    resulting solution, and the budget-meter odometer.
``snapshot``
    Periodic full state (solution, best-so-far, seen states, all
    iteration records so far) so resume cost is ``O(journal tail)``, not
    ``O(history)``.
``final``
    The finished solution; marks the journal complete.

Chaos hooks
-----------
Two environment variables let the crash campaign (``scripts/chaos_gate.py``)
SIGKILL the *writing* process at byte- and record-granular points,
including genuinely torn mid-record writes:

* ``REPRO_JOURNAL_KILL_AT_BYTE=<n>`` — die once total bytes written would
  exceed ``n``, after writing exactly the prefix up to ``n``;
* ``REPRO_JOURNAL_KILL_AFTER_RECORDS=<n>`` — die right after the ``n``-th
  record is durably appended;
* ``REPRO_JOURNAL_DELAY_PER_RECORD=<seconds>`` — sleep before each append
  (widens the window for the signal-delivery tests to land a SIGINT
  mid-loop deterministically).

All are inert unless set; they exist only for fault injection.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs
from repro._util.atomicio import fsync_dir
from repro.errors import JournalError

#: Bump when a record schema changes incompatibly. Readers hard-reject
#: other versions (tests/test_crash_resume.py pins a golden v1 journal).
JOURNAL_FORMAT_VERSION = 1

JOURNAL_MAGIC = "krsp-journal"

KIND_HEADER = "header"
KIND_PRELUDE = "prelude"
KIND_ITERATION = "iteration"
KIND_SNAPSHOT = "snapshot"
KIND_FINAL = "final"


def instance_config_hash(instance: dict[str, Any], config: dict[str, Any]) -> str:
    """SHA-256 binding an instance dict and a solve config (canonical JSON)."""
    blob = json.dumps(
        {"instance": instance, "config": config},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _frame(payload: dict[str, Any]) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return f"{len(body)} {crc:08x} ".encode("ascii") + body + b"\n"


@dataclass
class JournalDoc:
    """Parsed journal content: the valid record prefix plus tail forensics."""

    records: list[dict[str, Any]]
    valid_bytes: int
    torn_bytes: int = 0

    @property
    def header(self) -> dict[str, Any]:
        return self.records[0]

    def last_of(self, kind: str) -> dict[str, Any] | None:
        for rec in reversed(self.records):
            if rec.get("kind") == kind:
                return rec
        return None

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        return [r for r in self.records if r.get("kind") == kind]


def read_journal(path: str | Path) -> JournalDoc:
    """Parse a journal, truncating (logically) any torn tail.

    Raises :class:`JournalError` when the file is not a journal at all:
    no intact sealed header, wrong magic, or an unsupported format
    version. A valid header followed by crash debris is *not* an error —
    that is the situation the journal exists for.
    """
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {p}: {exc}") from None
    records: list[dict[str, Any]] = []
    pos = 0
    while pos < len(raw):
        sp1 = raw.find(b" ", pos)
        if sp1 < 0 or not raw[pos:sp1].isdigit():
            break
        sp2 = raw.find(b" ", sp1 + 1)
        if sp2 < 0:
            break
        length = int(raw[pos:sp1])
        crc_text = raw[sp1 + 1 : sp2]
        end = sp2 + 1 + length
        if len(crc_text) != 8 or end + 1 > len(raw):
            break
        body = raw[sp2 + 1 : end]
        if raw[end : end + 1] != b"\n":
            break
        try:
            if (zlib.crc32(body) & 0xFFFFFFFF) != int(crc_text, 16):
                break
        except ValueError:
            break
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break
        if not isinstance(payload, dict):
            break
        records.append(payload)
        pos = end + 1
    torn = len(raw) - pos
    if not records:
        raise JournalError(f"{p}: no intact journal header (not a journal?)")
    header = records[0]
    if header.get("kind") != KIND_HEADER or header.get("magic") != JOURNAL_MAGIC:
        raise JournalError(f"{p}: first record is not a sealed {JOURNAL_MAGIC} header")
    version = header.get("format")
    if version != JOURNAL_FORMAT_VERSION:
        raise JournalError(
            f"{p}: unsupported journal format version {version!r} "
            f"(this build reads only v{JOURNAL_FORMAT_VERSION}; refusing to "
            f"guess at an old or future checkpoint layout)"
        )
    if torn:
        obs.inc("journal.torn_tail_truncated")
        obs.add("journal.torn_bytes_dropped", torn)
    return JournalDoc(records=records, valid_bytes=pos, torn_bytes=torn)


class JournalWriter:
    """Append-side of the journal: fsync'd, CRC-framed, crash-injectable.

    ``fresh`` creates/truncates the file and seals the header;
    ``reopen`` validates an existing journal, physically truncates any
    torn tail, and continues appending after the valid prefix (what
    ``repro resume`` and the post-signal continuation use).
    """

    def __init__(self, path: str | Path, *, fsync: bool = True):
        self.path = Path(path)
        self._fsync = fsync
        self._fh: Any = None
        self._bytes_written = 0
        self._records_written = 0
        self._kill_at_byte = _env_int("REPRO_JOURNAL_KILL_AT_BYTE")
        self._kill_after_records = _env_int("REPRO_JOURNAL_KILL_AFTER_RECORDS")
        self._delay_per_record = _env_float("REPRO_JOURNAL_DELAY_PER_RECORD")

    # -- construction ----------------------------------------------------

    @classmethod
    def fresh(
        cls,
        path: str | Path,
        *,
        instance: dict[str, Any],
        config: dict[str, Any],
        fsync: bool = True,
    ) -> "JournalWriter":
        """Start a new journal: truncate ``path`` and seal the header."""
        w = cls(path, fsync=fsync)
        w.path.parent.mkdir(parents=True, exist_ok=True)
        w._fh = open(w.path, "wb")
        if fsync:
            fsync_dir(w.path.parent)
        w.append(
            {
                "kind": KIND_HEADER,
                "magic": JOURNAL_MAGIC,
                "format": JOURNAL_FORMAT_VERSION,
                "instance": instance,
                "config": config,
                "seal": instance_config_hash(instance, config),
            }
        )
        return w

    @classmethod
    def reopen(cls, path: str | Path, *, fsync: bool = True) -> tuple["JournalWriter", JournalDoc]:
        """Reopen an existing journal for appending.

        Reads and validates it, truncates the physical file to the valid
        record prefix (dropping crash debris so new appends follow intact
        frames), and returns the writer plus the parsed document.
        """
        doc = read_journal(path)
        w = cls(path, fsync=fsync)
        w._fh = open(w.path, "r+b")
        w._fh.truncate(doc.valid_bytes)
        w._fh.seek(doc.valid_bytes)
        w._bytes_written = doc.valid_bytes
        w._records_written = len(doc.records)
        return w, doc

    # -- appending -------------------------------------------------------

    def append(self, payload: dict[str, Any]) -> None:
        """Durably append one record (flush + fsync before returning)."""
        if self._fh is None or self._fh.closed:
            raise JournalError(f"journal {self.path} is closed")
        if self._delay_per_record:
            time.sleep(self._delay_per_record)
        frame = _frame(payload)
        self._maybe_kill_at_byte(frame)
        self._fh.write(frame)
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
        self._bytes_written += len(frame)
        self._records_written += 1
        obs.inc("journal.records_written")
        obs.add("journal.bytes_written", len(frame))
        if self._fsync:
            obs.inc("journal.fsyncs")
        if payload.get("kind") == KIND_SNAPSHOT:
            obs.inc("journal.snapshots_written")
        if (
            self._kill_after_records is not None
            and self._records_written >= self._kill_after_records
        ):
            _die()  # chaos hook: crash right after a durable record

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- chaos fault injection -------------------------------------------

    def _maybe_kill_at_byte(self, frame: bytes) -> None:
        if self._kill_at_byte is None:
            return
        if self._bytes_written + len(frame) <= self._kill_at_byte:
            return
        # Write exactly the prefix that "made it to disk", then die the
        # hard way — this is how a real mid-write SIGKILL tears a record.
        keep = max(0, self._kill_at_byte - self._bytes_written)
        self._fh.write(frame[:keep])
        self._fh.flush()
        os.fsync(self._fh.fileno())
        _die()


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _die() -> None:  # pragma: no cover - ends the process
    os.kill(os.getpid(), signal.SIGKILL)
    os._exit(137)  # unreachable on POSIX; belt and braces elsewhere
