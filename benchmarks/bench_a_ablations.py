"""A1/A2 — ablations of the design choices DESIGN.md section 5 calls out.

A1: phase-1 provider (every registered provider: Lemma 5 from the walk,
    the paper's LP rounding, Lagrangian, min-sum) — same guarantees,
    different starting points; measures iterations saved.
A2: cycle-selection fallback — production ``type1_first`` vs the paper's
    literal Algorithm 3 step 3 rule; measures quality and failure rate.
"""

from repro.core.phase1 import PROVIDERS
from repro.eval.experiments import run_a1_phase1_ablation, run_a2_selection_ablation


def test_a1_phase1_ablation(benchmark, record_table):
    headers, rows = benchmark.pedantic(
        run_a1_phase1_ablation, kwargs={"n_instances": 8}, rounds=1, iterations=1
    )
    record_table(
        "a1",
        "A1: phase-1 provider ablation (same guarantee, different start)",
        headers,
        rows,
    )
    by_name = {r[0]: r for r in rows}
    assert set(by_name) == set(PROVIDERS)
    for name, row in by_name.items():
        assert row[3] <= 2.0 + 1e-9  # beta_max within the proven bound
    # LP rounding starts nearest to feasibility: never more iterations than
    # the delay-oblivious start on the same instances.
    assert by_name["lp_rounding"][4] <= by_name["minsum"][4] + 1e-9


def test_a2_selection_ablation(benchmark, record_table):
    headers, rows = benchmark.pedantic(
        run_a2_selection_ablation, kwargs={"n_instances": 8}, rounds=1, iterations=1
    )
    record_table(
        "a2",
        "A2: selection-rule ablation (production vs paper step 3)",
        headers,
        rows,
    )
    by_rule = {r[0]: r for r in rows}
    # The production rule never fails on feasible instances.
    assert by_rule["type1_first"][2] == 0


def test_a3_finder_ablation(benchmark, record_table):
    from repro.eval.experiments import run_a3_finder_ablation

    headers, rows = benchmark.pedantic(
        run_a3_finder_ablation, kwargs={"n_instances": 6}, rounds=1, iterations=1
    )
    record_table(
        "a3",
        "A3: finder ablation (shifted single graph vs literal per-anchor)",
        headers,
        rows,
    )
    by_name = {r[0]: r for r in rows}
    if by_name["production"][1]:  # any searches happened
        # The consolidation must not cost more LP solves than the literal
        # per-anchor scheme.
        assert by_name["production"][2] <= by_name["paper_literal"][2]
