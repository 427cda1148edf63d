#!/usr/bin/env python
"""Chaos gate: the kill-based crash campaign for crash-safe solving.

For every instance in a small deterministic chaos corpus this script:

1. runs a **golden** checkpointed solve in-process, capturing the final
   solution and the full ``cancel.iteration`` telemetry trail;
2. checks the **checkpoint-off identity**: the same solve without a
   journal returns bit-identical paths/cost/delay/status (the journal
   must observe, never steer);
3. runs a **subprocess kill campaign**: ``python -m repro solve
   --checkpoint`` is SIGKILLed at chosen record counts and byte offsets
   (via the ``REPRO_JOURNAL_KILL_*`` fault-injection hooks in
   :mod:`repro.robustness.journal`), including genuinely torn mid-record
   writes, then ``resume_krsp`` finishes the run;
4. sweeps **truncation points** over the golden journal — every record
   boundary plus fuzz-chosen mid-record offsets (a journal cut at byte
   ``b`` is exactly what a crash whose last durable byte was ``b`` leaves
   behind, since appends are fsync'd in order);
5. asserts every resumed run is **bit-identical** to the golden one:
   same paths, cost, delay, status, iteration count, and the same
   ``cancel.iteration`` event trail (modulo the global ``seq`` counter);
   and that no journal it wrote holds a ``snapshot`` record (resume
   replays the iteration records; snapshots are an older v1 kind).

6. repeats the campaign **inside an online ``resolve`` replay**:
   a pinned warm re-solve — a delay spike on a solution edge forces real
   cancellation work — is journaled, the
   ``python -m repro resolve --checkpoint`` subprocess is SIGKILLed past
   the warm-start prelude, and ``resume_krsp`` must finish the mid-churn
   solve bit-identically to the uninterrupted golden resolve.

Full mode enforces the acceptance floor: >= 25 kill/cut points per
corpus instance, at least 5 of them torn mid-record (the resolve
kill-point has its own floor: >= 10 points, >= 3 torn). ``--quick`` runs
a bounded subset for CI. On any failure the journals are kept and their
location printed; the JSON report (``--report``) is written atomically.

Usage::

    python scripts/chaos_gate.py                 # full campaign
    python scripts/chaos_gate.py --quick --report chaos_report.json
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro._util.atomicio import atomic_write_json  # noqa: E402
from repro.core.krsp import solve_krsp  # noqa: E402
from repro.graph.generators import gnp_digraph  # noqa: E402
from repro.graph.io import save_instance  # noqa: E402
from repro.graph.weights import anticorrelated_weights  # noqa: E402
from repro.robustness.checkpointing import (  # noqa: E402
    resume_krsp,
    solve_checkpointed,
)
from repro.robustness.journal import read_journal  # noqa: E402

#: Deterministic chaos corpus. Both instances drive the cancellation loop
#: through multiple iterations (6 and 3) under ``--phase1 minsum``, so a
#: cut can land mid-history. Parameters were searched for, not sampled:
#: most small instances solve in 0-1 iterations and exercise nothing.
CORPUS = [
    {"name": "gnp18_anticorr_it6", "seed": 11, "n": 18, "p": 0.28,
     "total": 41, "noise": 4, "s": 0, "t": 17, "k": 3, "delay_bound": 93},
    {"name": "gnp16_anticorr_it3", "seed": 21, "n": 16, "p": 0.30,
     "total": 37, "noise": 3, "s": 0, "t": 15, "k": 3, "delay_bound": 231},
]

#: Fuzz-chosen intra-record byte offsets for torn cuts (plus the record
#: midpoint, added per record at runtime).
TORN_OFFSETS = (1, 7, 23)


def build_instance(spec: dict):
    rng = np.random.default_rng(spec["seed"])
    g = gnp_digraph(spec["n"], spec["p"], rng=rng)
    g = anticorrelated_weights(g, total=spec["total"], noise=spec["noise"], rng=rng)
    return g, spec["s"], spec["t"], spec["k"], spec["delay_bound"]


def fingerprint(sol) -> tuple:
    """Everything 'bit-identical' quantifies over, solution-side."""
    return (
        tuple(tuple(int(e) for e in p) for p in sol.paths),
        sol.cost, sol.delay, sol.status, sol.iterations, sol.delay_feasible,
    )


def trail(tel) -> list[dict]:
    """The cancel.iteration event trail, minus the global seq counter."""
    return [
        {k: v for k, v in e.items() if k != "seq"}
        for e in tel.events
        if e.get("kind") == "cancel.iteration"
    ]


def record_ends(raw: bytes) -> list[int]:
    """Byte offset just past each intact journal record (framing scan)."""
    import zlib

    ends = []
    pos = 0
    while pos < len(raw):
        sp1 = raw.find(b" ", pos)
        if sp1 < 0 or not raw[pos:sp1].isdigit():
            break
        sp2 = raw.find(b" ", sp1 + 1)
        if sp2 < 0:
            break
        end = sp2 + 1 + int(raw[pos:sp1])
        if end + 1 > len(raw) or raw[end : end + 1] != b"\n":
            break
        body = raw[sp2 + 1 : end]
        if (zlib.crc32(body) & 0xFFFFFFFF) != int(raw[sp1 + 1 : sp2], 16):
            break
        pos = end + 1
        ends.append(pos)
    return ends


def check_no_snapshot(journal: Path, failures, tag: str) -> None:
    """Fail the gate if ``journal`` holds a ``snapshot`` record: resume
    replays iteration records, so no current build writes one."""
    if any(r.get("kind") == "snapshot" for r in read_journal(journal).records):
        failures.append(f"{tag}: journal holds a snapshot record")


def resume_and_check(journal: Path, golden_fp, golden_trail, failures, tag: str):
    try:
        with obs.session(label=f"chaos resume {tag}") as tel:
            sol = resume_krsp(journal)
    except Exception as exc:  # noqa: BLE001 — a gate records, never crashes
        failures.append(f"{tag}: resume raised {type(exc).__name__}: {exc}")
        return
    check_no_snapshot(journal, failures, tag)
    if fingerprint(sol) != golden_fp:
        failures.append(
            f"{tag}: resumed solution differs from golden "
            f"({fingerprint(sol)} != {golden_fp})"
        )
    elif trail(tel) != golden_trail:
        failures.append(f"{tag}: resumed cancel.iteration trail differs from golden")


def subprocess_solve(inst_path: Path, journal: Path, env_extra: dict) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "solve", str(inst_path),
         "--checkpoint", str(journal), "--phase1", "minsum"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode


def run_instance(spec: dict, workdir: Path, quick: bool) -> dict:
    name = spec["name"]
    g, s, t, k, bound = build_instance(spec)
    inst_path = workdir / f"{name}.json"
    save_instance(inst_path, g, s, t, k, bound)

    # 1. Golden run (in-process) + trail capture.
    golden_journal = workdir / f"{name}.golden.journal"
    t0 = time.perf_counter()
    with obs.session(label=f"chaos golden {name}") as tel:
        golden = solve_checkpointed(
            g, s, t, k, bound, journal_path=golden_journal, phase1="minsum",
        )
    golden_fp = fingerprint(golden)
    golden_trail = trail(tel)
    failures: list[str] = []
    check_no_snapshot(golden_journal, failures, f"{name}:golden")

    # 2. Checkpoint-off identity.
    plain = solve_krsp(g, s, t, k, bound, phase1="minsum")
    if fingerprint(plain) != golden_fp:
        failures.append(f"{name}: checkpointed solve differs from plain solve")

    raw = golden_journal.read_bytes()
    ends = record_ends(raw)
    n_rec = len(ends)

    # 3. Subprocess kill campaign. Journals are byte-deterministic, so
    #    offsets measured on the golden journal transfer to the child's.
    if quick:
        kill_records = sorted({2, n_rec - 2})
        kill_bytes = [ends[n_rec // 2] + 9]
    else:
        kill_records = sorted({2, 3, n_rec // 2, n_rec - 2, n_rec - 1})
        kill_bytes = [ends[1] + 1, ends[n_rec // 2] + 9, ends[n_rec - 2] + 17]
    sub_kills = []
    for r in kill_records:
        j = workdir / f"{name}.killrec{r}.journal"
        rc = subprocess_solve(
            inst_path, j, {"REPRO_JOURNAL_KILL_AFTER_RECORDS": str(r)}
        )
        if rc != -9:
            failures.append(f"{name}: kill-after-records={r} exited {rc}, expected SIGKILL")
            continue
        resume_and_check(j, golden_fp, golden_trail, failures, f"{name}:killrec{r}")
        sub_kills.append({"kind": "after_records", "value": r})
    for b in kill_bytes:
        j = workdir / f"{name}.killbyte{b}.journal"
        rc = subprocess_solve(inst_path, j, {"REPRO_JOURNAL_KILL_AT_BYTE": str(b)})
        if rc != -9:
            failures.append(f"{name}: kill-at-byte={b} exited {rc}, expected SIGKILL")
            continue
        resume_and_check(j, golden_fp, golden_trail, failures, f"{name}:killbyte{b}")
        sub_kills.append({"kind": "at_byte", "value": b, "torn": True})

    # 4. Truncation sweep over the golden journal: every record boundary
    #    (clean cuts, including the complete journal — the final-record
    #    short-circuit) plus torn mid-record offsets.
    clean_cuts = list(ends)
    torn_cuts = []
    for i in range(1, n_rec):
        start, length = ends[i - 1], ends[i] - ends[i - 1]
        for off in sorted({*TORN_OFFSETS, length // 2}):
            if 0 < off < length:
                torn_cuts.append(start + off)
    torn_cuts = sorted(set(torn_cuts))
    if quick:
        torn_cuts = torn_cuts[:: max(1, len(torn_cuts) // 5)][:5]
    for cut in clean_cuts + torn_cuts:
        j = workdir / f"{name}.cut{cut}.journal"
        j.write_bytes(raw[:cut])
        resume_and_check(j, golden_fp, golden_trail, failures, f"{name}:cut{cut}")
        if not failures:
            j.unlink()  # keep the workdir small while everything passes

    n_torn = len(torn_cuts) + sum(1 for kp in sub_kills if kp.get("torn"))
    n_points = len(clean_cuts) + len(torn_cuts) + len(sub_kills)
    if not quick:
        if n_points < 25:
            failures.append(f"{name}: only {n_points} kill/cut points (< 25 floor)")
        if n_torn < 5:
            failures.append(f"{name}: only {n_torn} torn mid-record points (< 5 floor)")

    return {
        "instance": name,
        "records": n_rec,
        "journal_bytes": len(raw),
        "iterations": golden.iterations,
        "points": n_points,
        "torn_points": n_torn,
        "subprocess_kills": sub_kills,
        "seconds": round(time.perf_counter() - t0, 3),
        "failures": failures,
    }


#: Online-resolve kill-point fixture. Parameters were searched
#: for: this substrate's warm re-solve after the pinned delay spike does
#: one real cancellation iteration (a four-record journal: header,
#: prelude, iteration, final) in a few seconds — most spikes either stay
#: trivially feasible (nothing to kill) or blow up into minute-long
#: cancellation runs (too slow for a gate).
RESOLVE_SPEC = {
    "name": "online_resolve_gnp10", "seed": 3, "n": 10, "p": 0.35,
    "total": 29, "noise": 3, "k": 2, "slack": 6, "extra": 2,
}


def subprocess_resolve(
    state_path: Path, delta_path: Path, out_path: Path, journal: Path,
    env_extra: dict,
) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "resolve", str(state_path),
         "--delta", str(delta_path), "--out", str(out_path),
         "--checkpoint", str(journal)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode


def run_resolve_killpoint(workdir: Path, quick: bool) -> dict:
    """Kill and truncation points inside a journaled online ``resolve``.

    The golden run is an in-process journaled warm re-solve; every
    interrupted copy must resume to the same solution fingerprint and
    ``cancel.iteration`` trail.
    """
    from repro.flow.mincost import min_cost_k_flow
    from repro.online import (
        EdgeReweight,
        InstanceDelta,
        resolve,
        save_delta,
        save_state,
        start_online,
    )

    spec = RESOLVE_SPEC
    name = spec["name"]
    t0 = time.perf_counter()
    rng = np.random.default_rng(spec["seed"])
    g = gnp_digraph(spec["n"], spec["p"], rng=rng)
    g = anticorrelated_weights(g, total=spec["total"], noise=spec["noise"], rng=rng)
    s, t, k = 0, spec["n"] - 1, spec["k"]
    bound = int(min_cost_k_flow(g, s, t, k, weight=g.delay).weight) + spec["slack"]

    state = start_online(g, s, t, k, bound)
    eid = sorted({e for path in state.solution.paths for e in path})[0]
    spike = (bound - state.solution.delay) + spec["extra"]
    delta = InstanceDelta(
        ops=(EdgeReweight(eid, int(g.cost[eid]), int(g.delay[eid]) + spike),),
        label=f"{name} delay spike",
    )
    state_path = workdir / f"{name}.state.json"
    delta_path = workdir / f"{name}.delta.json"
    save_state(state_path, state)
    save_delta(delta_path, delta)

    # 1. Golden journaled resolve (in-process) + trail capture. The same
    #    ``state`` object keeps serving: ``save_state`` above snapshotted
    #    it, so the subprocess replays an identical warm start.
    golden_journal = workdir / f"{name}.golden.journal"
    failures: list[str] = []
    with obs.session(label=f"chaos golden {name}") as tel:
        golden = resolve(state, delta, journal_path=golden_journal)
    golden_fp = fingerprint(golden)
    golden_trail = trail(tel)
    check_no_snapshot(golden_journal, failures, f"{name}:golden")
    if state.last.mode != "warm" or state.last.cycles_cancelled < 1:
        failures.append(
            f"{name}: fixture degraded — golden resolve was "
            f"{state.last.mode}/{state.last.fallback} with "
            f"{state.last.cycles_cancelled} cancellations (wanted a warm "
            f"resolve that cancels; the kill would land in dead air)"
        )

    raw = golden_journal.read_bytes()
    ends = record_ends(raw)
    n_rec = len(ends)

    # 2. Subprocess kill campaign: every kill lands past the warm-start
    #    prelude (record 1), so resume continues a mid-churn solve.
    if quick:
        kill_records = [2]
        kill_bytes = []
    else:
        kill_records = sorted({2, 3, n_rec - 1})
        kill_bytes = [ends[min(2, n_rec - 1)] + 9]
    sub_kills = []
    for r in kill_records:
        j = workdir / f"{name}.killrec{r}.journal"
        rc = subprocess_resolve(
            state_path, delta_path, workdir / f"{name}.killrec{r}.state.json",
            j, {"REPRO_JOURNAL_KILL_AFTER_RECORDS": str(r)},
        )
        if rc != -9:
            failures.append(
                f"{name}: kill-after-records={r} exited {rc}, expected SIGKILL"
            )
            continue
        resume_and_check(j, golden_fp, golden_trail, failures, f"{name}:killrec{r}")
        sub_kills.append({"kind": "after_records", "value": r})
    for b in kill_bytes:
        j = workdir / f"{name}.killbyte{b}.journal"
        rc = subprocess_resolve(
            state_path, delta_path, workdir / f"{name}.killbyte{b}.state.json",
            j, {"REPRO_JOURNAL_KILL_AT_BYTE": str(b)},
        )
        if rc != -9:
            failures.append(
                f"{name}: kill-at-byte={b} exited {rc}, expected SIGKILL"
            )
            continue
        resume_and_check(j, golden_fp, golden_trail, failures, f"{name}:killbyte{b}")
        sub_kills.append({"kind": "at_byte", "value": b, "torn": True})

    # 3. Truncation sweep over the golden resolve journal. Cuts at or
    #    past the prelude (record 1) must replay the warm start and stay
    #    fully bit-identical. Cuts that lose the prelude resume as a cold
    #    solve of the patched instance (the documented crash semantic),
    #    which on this pinned fixture reaches the same solution by a
    #    different route — so those compare everything except the
    #    iteration count and the (warm-only) cancellation trail.
    warm_cuts = [] if quick else list(ends[1:])
    torn_cuts = []
    pre_prelude_cuts = []
    if not quick:
        for i in range(2, n_rec):
            mid = ends[i - 1] + (ends[i] - ends[i - 1]) // 2
            if ends[i - 1] < mid < ends[i]:
                torn_cuts.append(mid)
        pre_prelude_cuts = [ends[0], ends[0] + (ends[1] - ends[0]) // 2]
    for cut in warm_cuts + torn_cuts:
        j = workdir / f"{name}.cut{cut}.journal"
        j.write_bytes(raw[:cut])
        resume_and_check(j, golden_fp, golden_trail, failures, f"{name}:cut{cut}")
        if not failures:
            j.unlink()
    cold_fp = golden_fp[:4] + golden_fp[5:]  # drop the iteration count
    for cut in pre_prelude_cuts:
        j = workdir / f"{name}.coldcut{cut}.journal"
        j.write_bytes(raw[:cut])
        try:
            sol = resume_krsp(j)
        except Exception as exc:  # noqa: BLE001 — a gate records, never crashes
            failures.append(
                f"{name}:coldcut{cut}: resume raised {type(exc).__name__}: {exc}"
            )
            continue
        check_no_snapshot(j, failures, f"{name}:coldcut{cut}")
        fp = fingerprint(sol)
        if fp[:4] + fp[5:] != cold_fp:
            failures.append(
                f"{name}:coldcut{cut}: cold-resumed solution differs from "
                f"golden ({fp} vs {golden_fp})"
            )
        elif not failures:
            j.unlink()

    n_torn = (
        len(torn_cuts)
        + sum(1 for kp in sub_kills if kp.get("torn"))
        + sum(1 for cut in pre_prelude_cuts if cut not in ends)
    )
    n_points = (
        len(warm_cuts) + len(torn_cuts) + len(pre_prelude_cuts) + len(sub_kills)
    )
    if not quick:
        if n_points < 10:
            failures.append(f"{name}: only {n_points} kill/cut points (< 10 floor)")
        if n_torn < 3:
            failures.append(
                f"{name}: only {n_torn} torn mid-record points (< 3 floor)"
            )

    return {
        "instance": name,
        "records": n_rec,
        "journal_bytes": len(raw),
        "iterations": golden.iterations,
        "points": n_points,
        "torn_points": n_torn,
        "subprocess_kills": sub_kills,
        "seconds": round(time.perf_counter() - t0, 3),
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="bounded CI subset (fewer kill and cut points)")
    ap.add_argument("--report", type=Path, default=None,
                    help="write a JSON report here (atomic)")
    ap.add_argument("--keep-dir", type=Path, default=None,
                    help="work under this directory and never delete it")
    args = ap.parse_args(argv)

    workdir = args.keep_dir or Path(tempfile.mkdtemp(prefix="chaos_gate_"))
    workdir.mkdir(parents=True, exist_ok=True)
    results = [run_instance(spec, workdir, args.quick) for spec in CORPUS]
    results.append(run_resolve_killpoint(workdir, args.quick))
    all_failures = [f for r in results for f in r["failures"]]

    report = {
        "schema": "chaos-gate/1",
        "mode": "quick" if args.quick else "full",
        "instances": results,
        "total_points": sum(r["points"] for r in results),
        "total_torn": sum(r["torn_points"] for r in results),
        "passed": not all_failures,
    }
    if args.report is not None:
        atomic_write_json(args.report, report, indent=2, sort_keys=True)
        print(f"wrote {args.report}")

    for r in results:
        print(f"{r['instance']:24s} records={r['records']:3d} "
              f"points={r['points']:3d} (torn {r['torn_points']}) "
              f"{r['seconds']:6.1f}s "
              f"{'ok' if not r['failures'] else 'FAIL'}")
    if all_failures:
        print(f"\nCHAOS GATE FAILED ({len(all_failures)}); journals kept "
              f"in {workdir}:", file=sys.stderr)
        for f in all_failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    if args.keep_dir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"chaos gate passed: {report['total_points']} kill/cut points "
          f"({report['total_torn']} torn mid-record), all resumes bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
