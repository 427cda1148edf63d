#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from benchmarks/results/*.txt.

Run after ``pytest benchmarks/ --benchmark-only``:

    python scripts/build_experiments_md.py

Keeps the interpretation prose here (version-controlled) and splices in
whatever tables the last benchmark run produced, so the document can never
drift from the measured numbers.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

TEMPLATE = '''# EXPERIMENTS — paper vs measured

The paper is a **brief announcement with no experimental section**: it
reports no tables and no empirical numbers. "Paper vs measured" therefore
means *theoretical bound vs measured value*: every experiment below states
the claim it validates (theorem / lemma / figure), the bound the paper
proves, and the values this implementation measures on the synthetic
workloads described in DESIGN.md. Tables are regenerated by
`pytest benchmarks/ --benchmark-only` (written to `benchmarks/results/`)
and spliced into this document by `scripts/build_experiments_md.py`.
Randomness is fully seeded — numbers reproduce exactly (modulo wall-clock
columns). The committed tables, wall-clock columns included, were last
regenerated with `pytest benchmarks/ --benchmark-disable` on a 2-vCPU
Intel Xeon host with 7 GB of memory (Linux, Python 3.11), at the commit
after `1dd26b5` that takes every `C_OPT` lower bound from the exact
`flow_lp_bound`.

Every benchmark *asserts* its bound: a regression that breaks a guarantee
fails the suite rather than just shifting a number.

## Figure reproductions

### F1 — Figure 1: the cost cap is essential

Claim: without the `|c(O)| <= C_OPT` cap (and the rate test), cycle
cancellation can terminate at cost `C_OPT * (D + 1) - eps`; the bicameral
rules keep cost `<= 2 * C_OPT`. The gadget is a documented reconstruction
of the figure (the image is not in the announcement text); the "naive"
column is a delay-greedy canceller with no cap.

```
{f1}
```

Measured: the bicameral solver is *optimal* on the gadget at every `D`
(bound: <= 2); the naive variant pays exactly `(D+1) - 0.1` times optimal —
the figure's `C_OPT (D+1) - eps`.

### F2 — Figure 2: auxiliary graph construction

Claim (Algorithm 2 / Lemma 15): `H_v^+(B)` has `n * (B+1)` vertices, `B`
wrap edges at the anchor, and hosts exactly the residual cycles through `v`
with cost in `[0, B]` and in-range running prefix.

```
{f2}
```

Structural counts match Algorithm 2 exactly; the cycle-correspondence
(Lemma 15) is verified edge-by-edge in `tests/test_core_auxgraph.py`.

## Theorem / lemma validations

### E1 — Lemma 3 / Lemma 11: the (1, 2) bifactor

Bound: delay `<= D` (alpha <= 1) and cost `<= 2 * C_OPT` (beta <= 2),
normalized by the exact MILP optimum.

```
{e1}
```

Measured: alpha_max <= 1.0, beta_max ~1.15 — comfortably inside (1, 2);
the solver is near-optimal in practice, not just 2-approximate.

### E2 — Lemma 5: the phase-1 (alpha, 2 - alpha) trade-off

Bound: the LP-rounding phase 1 satisfies `delay/D + cost/C_LP <= 2`.

```
{e2}
```

Measured: score_max <= 2.000 at every tightness (the bound is *tight* at
extreme tightness, exactly as the lemma's alpha-trade-off predicts).

### E3 — Theorem 4: the (1 + eps, 2 + eps) scaled variant

Bound: after eps-scaling, delay `<= (1 + eps) * D`, cost
`<= (2 + eps) * C_OPT`, in polynomial time. Workload uses large weight
magnitudes so scaling genuinely coarsens the grids.

```
{e3}
```

Measured: the exact (pseudo-polynomial) mode needs about 0.1 s per
instance on heavy weights; scaling cuts that seven- to fourteen-fold at a
measured quality loss far below the permitted `+eps`. The cost grid is
Theorem 4's `eps * C_hat / E` with `C_hat = ceil(C_LP)` of the original
instance, a certified lower bound on the integer `C_OPT`.

### E4 — head-to-head vs the related work (the "who wins" table)

```
{e4}
```

Shape: matches the paper's motivation — min-sum (Suurballe) busts the
delay budget on every instance (alpha up to 2.5); the plain (2,2) LP
rounding of [9] misses the budget on roughly a quarter of instances; the
bicameral algorithm and the [18]-style canceller always meet it at
near-optimal cost. The unguaranteed heuristics crack under pressure:
KSP-filtering answers on only ~1/4 of instances and pays up to 2.3x
optimal when it does; greedy fails outright on its trap instances (see
the test suite) even though its averages here look benign.

### E5 — Lemma 12 / Lemma 13: iteration behaviour

Bound: `r_i = DeltaD_i / DeltaC_i` never decreases (audited against the
exact `C_OPT`); iterations bounded by `D * sum(c) * sum(d)`.

```
{e5}
```

Measured: zero Lemma 12 violations across all recorded traces; iteration
counts are ~10^6 times below the pseudo-polynomial bound.

### E6 — Theorem 16/17: bicameral finder anatomy

```
{e6}
```

Measured: most searches resolve from Bellman–Ford probes and small-radius
LPs; the exhaustive-sweep cost (one full Theorem-16-complete search) is
timed separately in the same bench file.

### E7 — runtime scaling with n

```
{e7}
```

### E8 — quality across k (k = 1 cross-checked against the exact RSP DP)

```
{e8}
```

Measured: the MILP oracle and the independent pseudo-polynomial RSP DP
agree on every k = 1 optimum; beta stays ~1.0–1.14 across k.

### E9 — substrate validation

```
{e9}
```

Measured: Suurballe equals the MILP min-sum optimum on every instance; the
flow-LP bound never exceeds the exact optimum (the max integrality gap is
why the *rate tests* use the LP bound only in the safe direction).

### E10 — stress scale (no exact oracle)

```
{e10}
```

At n = 20–40 the MILP oracle is retired; beta is normalized by the flow-LP
lower bound and is therefore an *upper* bound on the true ratio — still
far inside the proven factor 2.

### E11 — kBCP via the kRSP engine (Section 1.2's adoption claim)

```
{e11}
```

On feasible two-budget instances the engine stays within delay factor 1
and cost factor ~1.1 (bound: 2) of the budgets; rejections under
impossible cost budgets are certified by the factor argument rather than
guessed.

## Ablations

### A1 — phase-1 provider

```
{a1}
```

Every registered provider runs, the default `lagrangian_lemma5` included,
and all land inside the proven bound. The two Lemma 5 starts (the default,
picked from the solver's walk, and the paper's LP rounding) need the
fewest cancellation iterations, min-sum the most (it starts cheapest and
farthest from feasibility) — matching the role Lemma 5 plays in the
paper's pipeline. This table alone was regenerated later, on the same
kind of host, once the A1 loop covered every provider.

### A2 — selection rule: production vs the literal Algorithm 3 step 3

```
{a2}
```

On these instances both rules reach the optimum; the literal step-3 rule's
known oscillation risk (see DESIGN.md "Interpretation decisions") is
exercised separately by the Figure-1 gadget and the state-repetition guard
tests.

### A3 — finder: one shifted graph per radius vs literal per-anchor

```
{a3}
```

The consolidation the production finder makes (DESIGN.md substitution 3 /
ALGORITHM.md Section 4) buys ~4x fewer LP solves and ~4x less construction
volume per search at equal candidate quality.

## Reproduction caveats

* `C_OPT` inside Definition 10 is substituted by certified bounds at run
  time (DESIGN.md "Interpretation decisions" item 3); tests that validate
  the paper's literal (1, 2) bound pass the exact optimum in explicitly.
* The Figure 1 / Figure 2 instances are reconstructions: the announcement
  includes captions but not the figure images; the gadgets reproduce every
  number the captions state.
* Absolute runtimes are a property of this substrate (scipy HiGHS on one
  core), not of the authors' (non-existent) testbed; only shapes and
  bound-compliance are claims.
'''


def main() -> int:
    results = {}
    for f in sorted(RESULTS.glob("*.txt")):
        results[f.stem] = f.read_text().rstrip()
    missing = [
        key
        for key in (
            "f1", "f2", "e1", "e2", "e3", "e4", "e5",
            "e6", "e7", "e8", "e9", "e10", "e11", "a1", "a2", "a3",
        )
        if key not in results
    ]
    if missing:
        print(f"missing result tables: {missing}; run the benchmarks first",
              file=sys.stderr)
        return 1
    (ROOT / "EXPERIMENTS.md").write_text(TEMPLATE.format(**results))
    print("EXPERIMENTS.md regenerated")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
