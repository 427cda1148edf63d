"""End-to-end property suite: the paper's guarantees as hypothesis laws.

Each property generates random instances and checks a theorem-level
invariant of the full pipeline — the highest-leverage regression net the
repository has.

Hypothesis settings come from the profiles registered in ``conftest.py``
(select with ``HYPOTHESIS_PROFILE=ci``); tests only override
``max_examples`` where the oracle makes examples expensive. CI also runs
four of these properties on a rotating ``--hypothesis-seed`` under the
``dev`` profile. Those four pin ``max_examples=40``, the ``ci`` profile's
count, so that leg checks as many instances as the derandomized one, and
``note()`` their instance so a failing seed prints what it generated.
"""

import numpy as np
import pytest
from hypothesis import example, given, note, settings, strategies as st

from repro import obs
from repro.core import KRSPInstance, solve_krsp
from repro.core.phase1 import PROVIDERS, flow_lp_bound
from repro.errors import InfeasibleInstanceError
from repro.eval.workloads import interesting_delay_bound
from repro.graph import (
    DiGraph,
    anticorrelated_weights,
    gnp_digraph,
    grid_digraph,
    uniform_weights,
)
from repro.graph.validate import check_disjoint_paths
from repro.lp.flow_lp import solve_flow_lp
from repro.lp.milp import solve_krsp_milp

def _random_instance(seed: int, n: int = 10, model: str = "anti"):
    g = gnp_digraph(n, 0.4, rng=seed)
    if model == "anti":
        g = anticorrelated_weights(g, rng=seed + 1)
    else:
        g = uniform_weights(g, rng=seed + 1)
    return g


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(10, 80))
# The min-delay flow's cost (50) once stood in for the C_OPT cap (20).
@example(seed=18378, k=1, D=43)
def test_lemma3_bifactor_1_2(seed, k, D):
    """Whenever the instance is feasible the solver returns disjoint paths
    with delay <= D and cost <= 2 * C_OPT (Lemma 3 via the exact oracle)."""
    g = _random_instance(seed)
    s, t = 0, g.n - 1
    exact = solve_krsp_milp(g, s, t, k, D)
    note(f"seed={seed} n={g.n} m={g.m} k={k} D={D} C_OPT={getattr(exact, 'cost', None)}")
    try:
        sol = solve_krsp(g, s, t, k, D, phase1="minsum", opt_cost=getattr(exact, "cost", None))
    except InfeasibleInstanceError:
        assert exact is None
        return
    assert exact is not None
    check_disjoint_paths(g, sol.paths, s, t, k=k)
    assert sol.delay <= D
    assert sol.cost <= 2 * exact.cost


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Lemma 3 violation: without opt_cost the cheapest-feasible-flow cap "
        "U = 50 stands in for C_OPT = 23, so the type-1 cycle (cost 42, "
        "delay -17) passes the soft test and the answer costs 50 > 2 * 23"
    ),
)
def test_lemma3_soft_cap_admits_too_costly_type1_cycle():
    """A shrunk fuzz case: the phase-1 start (cost 8, delay 38) misses
    D = 36, and the best-ratio cycle meets D at cost 50 against OPT 23."""
    edges = [(1, 0, 0, 19), (2, 0, 6, 13), (3, 1, 0, 14), (4, 2, 17, 3),
             (3, 4, 19, 0), (5, 4, 0, 18), (5, 3, 8, 5)]
    tail, head, cost, delay = (list(col) for col in zip(*edges))
    g = DiGraph(6, tail, head, cost, delay)
    exact = solve_krsp_milp(g, 5, 0, 1, 36)
    assert exact.cost == 23
    sol = solve_krsp(g, 5, 0, 1, 36)
    assert sol.delay <= 36
    assert sol.cost <= 2 * exact.cost


@pytest.mark.parametrize(
    "seed, n, D, opt",
    [(92, 10, 10, (31, 10)), (35505, 12, 22, (27, 16))],
)
def test_exact_opt_cost_finds_no_bicameral_cycle(seed, n, D, opt):
    """Draws of ``test_lemma3_bifactor_1_2``'s distribution (k=1, s=0,
    t=n-1) where, with ``opt_cost = C_OPT``, the search once returned
    only walks through several wraps that cost more than ``B``, found no
    bicameral cycle and declared the feasible instance infeasible."""
    g = _random_instance(seed, n=n)
    exact = solve_krsp_milp(g, 0, n - 1, 1, D)
    assert (exact.cost, exact.delay) == opt
    sol = solve_krsp(g, 0, n - 1, 1, D, phase1="minsum", opt_cost=exact.cost)
    check_disjoint_paths(g, sol.paths, 0, n - 1, k=1)
    assert sol.delay <= D
    assert sol.cost <= 2 * exact.cost


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.integers(10, 60))
def test_feasibility_trichotomy(seed, D):
    """solve_krsp either solves or raises InfeasibleInstanceError, in exact
    agreement with the MILP oracle — never a third outcome."""
    g = _random_instance(seed, model="uniform")
    s, t = 0, g.n - 1
    exact = solve_krsp_milp(g, s, t, 2, D)
    note(f"seed={seed} n={g.n} m={g.m} k=2 D={D} C_OPT={getattr(exact, 'cost', None)}")
    try:
        sol = solve_krsp(g, s, t, 2, D)
        assert exact is not None
        assert sol.delay_feasible
    except InfeasibleInstanceError:
        assert exact is None


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_lower_bound_is_certified(seed):
    """The reported cost lower bound never exceeds the true optimum."""
    g = _random_instance(seed)
    s, t = 0, g.n - 1
    exact = solve_krsp_milp(g, s, t, 2, 45)
    note(f"seed={seed} n={g.n} m={g.m} k=2 D=45 C_OPT={getattr(exact, 'cost', None)}")
    if exact is None:
        return
    sol = solve_krsp(g, s, t, 2, 45)
    assert sol.cost_lower_bound is not None
    assert float(sol.cost_lower_bound) <= exact.cost + 1e-9
    assert sol.cost >= float(sol.cost_lower_bound) - 1e-9


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.integers(1, 2), st.floats(0.0, 1.0))
def test_every_provider_reports_the_exact_flow_lp_bound(seed, k, tightness):
    """Every provider, exact and scaled, reports the original instance's
    exact C_LP as its bound (a walk stopped by its step cap may report
    less), and only lp_rounding solves a flow LP, once. ``D`` lies in the
    band where it binds, so the Lagrangian walks run."""
    g = _random_instance(seed)
    s, t = 0, g.n - 1
    D = interesting_delay_bound(g, s, t, k, tightness)
    note(f"seed={seed} n={g.n} m={g.m} k={k} D={D}")
    if D is None:
        return
    exact = solve_krsp_milp(g, s, t, k, D)
    note(f"C_OPT={exact.cost}")
    c_lp = flow_lp_bound(KRSPInstance(g, s, t, k, D))[0]
    oracle = solve_flow_lp(g, s, t, k, D).cost
    note(f"C_LP={c_lp} HiGHS={oracle}")
    for provider in PROVIDERS:
        for eps in (None, 0.5):
            with obs.session():
                sol = solve_krsp(g, s, t, k, D, phase1=provider, eps=eps)
            lb = sol.cost_lower_bound
            assert lb <= exact.cost
            assert abs(float(lb) - oracle) <= 1e-6
            if eps is None and "phase1.larac.unconverged" not in sol.counters:
                assert lb == c_lp
            if eps is not None:
                assert lb == c_lp
            expected = 1 if provider == "lp_rounding" else 0
            assert sol.counters.get("lp.flow_lp.solves", 0) == expected


@settings(max_examples=10)
@given(st.integers(0, 10**6), st.sampled_from([1.0, 0.5, 0.25]))
def test_theorem4_scaled_bifactor(seed, eps):
    """Scaled mode: delay <= (1+eps) * D and cost <= (2+eps) * C_OPT."""
    g = anticorrelated_weights(gnp_digraph(11, 0.4, rng=seed), total=120, rng=seed + 1)
    s, t = 0, g.n - 1
    D = 160
    exact = solve_krsp_milp(g, s, t, 2, D)
    if exact is None or exact.cost == 0:
        return
    sol = solve_krsp(g, s, t, 2, D, phase1="minsum", eps=eps)
    assert sol.delay <= (1 + eps) * D + 1e-9
    assert sol.cost <= (2 + eps) * exact.cost + 1e-9
    check_disjoint_paths(g, sol.paths, s, t, k=2)


@given(st.integers(0, 10**6))
def test_solution_is_deterministic(seed):
    """Same instance, same settings -> identical paths (full determinism)."""
    g = _random_instance(seed)
    s, t = 0, g.n - 1
    try:
        a = solve_krsp(g, s, t, 2, 45)
        b = solve_krsp(g, s, t, 2, 45)
    except InfeasibleInstanceError:
        return
    assert a.paths == b.paths
    assert a.cost == b.cost and a.delay == b.delay


@settings(max_examples=10)
@given(st.integers(2, 4), st.integers(3, 5))
def test_grid_interior_terminals_all_k(rows, cols):
    """Structured family: interior-terminal grids solve for every feasible
    k and respect the bound; infeasible k raises."""
    g, _, _ = grid_digraph(rows + 1, cols + 1)
    g = anticorrelated_weights(g, rng=rows * 31 + cols)
    s = cols + 2  # (1, 1)
    t = rows * (cols + 1) + cols - 1
    if s >= g.n or t >= g.n or s == t:
        return
    for k in (1, 2):
        D = 25 * k
        exact = solve_krsp_milp(g, s, t, k, D)
        try:
            sol = solve_krsp(g, s, t, k, D, phase1="lagrangian")
        except InfeasibleInstanceError:
            assert exact is None
            continue
        assert exact is not None
        assert sol.delay <= D and sol.cost <= 2 * exact.cost
