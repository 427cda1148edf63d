"""Where ``scripts/bench_gate.py`` writes its reports.

An ordinary run (CI's ``--quick`` included) must leave the committed
baselines alone; only ``--update-baseline`` may rewrite them.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = {REPO_ROOT / "BENCH_PR9.json", REPO_ROOT / "BENCH_PR6.json"}


@pytest.fixture(scope="module")
def bench_gate():
    spec = importlib.util.spec_from_file_location(
        "_bench_gate", REPO_ROOT / "scripts" / "bench_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [[], ["--quick"]])
def test_ordinary_runs_write_scratch_reports(bench_gate, argv):
    args = bench_gate.parse_args(argv)
    assert args.out == bench_gate.SCRATCH_OUT
    assert args.online_out == bench_gate.SCRATCH_ONLINE_OUT
    assert not {args.out, args.online_out} & COMMITTED
    # The comparison still reads the committed baselines.
    assert {args.baseline, args.online_baseline} == COMMITTED


def test_update_baseline_rewrites_the_committed_files(bench_gate):
    args = bench_gate.parse_args(["--update-baseline"])
    assert {args.out, args.online_out} == COMMITTED


def test_explicit_paths_win(bench_gate, tmp_path):
    out, online = tmp_path / "gate.json", tmp_path / "online.json"
    args = bench_gate.parse_args(
        ["--quick", "--out", str(out), "--online-out", str(online)]
    )
    assert (args.out, args.online_out) == (out, online)
