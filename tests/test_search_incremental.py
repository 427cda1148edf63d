"""Differential suite for the incremental search engine (:mod:`repro.perf`).

The engine's contract is *bit-identity*: with either finder, a cancellation
run driven by :class:`~repro.perf.IncrementalSearch` (in-place residual
deltas, cached auxiliary graphs) must produce the same cancelled cycles, the
same costs, and the same ``cancel.iteration`` telemetry trail as the
from-scratch path. These tests enforce that on the committed corpus and on
random substrates, plus unit-level differentials for every layer the engine
touches (CSR patching, residual flips, the aux cache) and regression tests
for the satellite fixes (long-cycle decomposition, transform copy-on-write).
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core import KRSPInstance, build_residual, cancel_to_feasibility
from repro.core.auxgraph import build_aux_shifted
from repro.core.cycle_decompose import decompose_into_cycles, split_closed_walk
from repro.core.phase1 import phase1_minsum
from repro.errors import GraphError
from repro.flow import decompose_flow
from repro.graph import anticorrelated_weights, gnp_digraph
from repro.graph.digraph import DiGraph
from repro.oracle import load_corpus
from repro.paths import find_negative_cycle
from repro.perf import AuxCache, IncrementalSearch

CORPUS_DIR = Path(__file__).parent / "corpus"
ENTRIES = list(load_corpus(CORPUS_DIR))

#: Inputs small enough for the paper-literal finder: the corpus entries
#: with m <= 12, plus pinned random substrates that each reach one or two
#: cancellation iterations.
PAPER_LITERAL_INPUTS = [
    pytest.param(
        e.instance.graph, e.instance.s, e.instance.t, e.instance.k,
        e.instance.delay_bound, id=e.name,
    )
    for e in ENTRIES
    if e.instance.graph.m <= 12
] + [
    pytest.param(
        anticorrelated_weights(gnp_digraph(8, 0.4, rng=seed), rng=seed + 1),
        0, 7, 2, 30, id=f"gnp8_seed{seed}",
    )
    for seed in (3, 6, 11)
]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _run_traced(inst, start, **kw):
    """Run cancellation under a trace session; return (result-or-exc, trail).

    The trail is the ordered list of ``cancel.iteration`` events with the
    timing fields stripped — the bit-identity contract covers everything
    else (cycle cost/delay, totals, types).
    """
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    outcome = None
    error = None
    try:
        with obs.session(trace_path=path):
            try:
                outcome = cancel_to_feasibility(inst, start, **kw)
            except Exception as exc:  # noqa: BLE001 — compared, not hidden
                error = exc
        events = [json.loads(line) for line in open(path)]
    finally:
        os.unlink(path)
    trail = [
        tuple(
            sorted(
                (k, v)
                for k, v in ev.items()
                if k not in ("ts", "seq", "t_rel")
            )
        )
        for ev in events
        if ev.get("kind") == "cancel.iteration"
    ]
    return outcome, error, trail


def _assert_differential(g, s, t, k, delay_bound, finder, **kw):
    """Incremental and from-scratch runs must agree on one instance."""
    inst = KRSPInstance(g, s, t, k, delay_bound)
    try:
        start = phase1_minsum(inst).solution
    except Exception:  # noqa: BLE001 — phase 1 predates the engine choice
        pytest.skip("instance infeasible before cancellation starts")
    base, base_err, base_trail = _run_traced(
        inst, start, finder=finder, incremental=False, **kw
    )
    incr, incr_err, incr_trail = _run_traced(
        inst, start, finder=finder, incremental=True, **kw
    )
    if base_err is not None or incr_err is not None:
        assert type(base_err) is type(incr_err), (base_err, incr_err)
        return
    assert (base.solution.cost, base.solution.delay) == (
        incr.solution.cost,
        incr.solution.delay,
    )
    # Full bit-identity: same cycles, same telemetry trail.
    assert base_trail == incr_trail
    assert base.records == incr.records


def _random_residual_full(rng, n=12, p=0.35):
    """(base graph, reversed set, residual) on a random substrate."""
    g = anticorrelated_weights(gnp_digraph(n, p, rng=rng), rng=rng)
    m = g.m
    if m == 0:
        return None
    n_rev = int(rng.integers(0, max(1, m // 3) + 1))
    rev = sorted(int(e) for e in rng.choice(m, size=n_rev, replace=False))
    return g, rev, build_residual(g, rev)


def _random_residual(rng, n=12, p=0.35):
    full = _random_residual_full(rng, n, p)
    return None if full is None else full[2]


# ---------------------------------------------------------------------------
# end-to-end differential: incremental vs from-scratch cancellation
# ---------------------------------------------------------------------------


class TestCancellationDifferential:
    @pytest.mark.parametrize(
        "entry", ENTRIES, ids=[e.name for e in ENTRIES]
    )
    def test_corpus_production(self, entry):
        i = entry.instance
        _assert_differential(
            i.graph, i.s, i.t, i.k, i.delay_bound, finder="production"
        )

    @pytest.mark.parametrize("g,s,t,k,delay_bound", PAPER_LITERAL_INPUTS)
    def test_corpus_paper_literal(self, g, s, t, k, delay_bound):
        _assert_differential(g, s, t, k, delay_bound, finder="paper_literal")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_substrates_production(self, seed):
        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=seed), rng=seed + 1)
        _assert_differential(g, 0, 9, 2, 40, finder="production")


# ---------------------------------------------------------------------------
# layer differential: CSR patching and residual flips
# ---------------------------------------------------------------------------


class TestFlipEdges:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_csr_patch_matches_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        m = int(rng.integers(1, 30))
        g = DiGraph(
            n,
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            rng.integers(-5, 9, size=m),
            rng.integers(-5, 9, size=m),
        )
        # Force-build both CSR caches, then flip with patching in place.
        g.out_edges(0)
        g.in_edges(0)
        flips = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        g.flip_edges(flips)
        fresh = DiGraph(n, g.tail.copy(), g.head.copy(), g.cost.copy(), g.delay.copy())
        for v in range(n):
            assert np.array_equal(g.out_edges(v), fresh.out_edges(v)), v
            assert np.array_equal(g.in_edges(v), fresh.in_edges(v)), v

    def test_out_of_range_raises(self):
        g = DiGraph(2, [0], [1], [3], [4])
        with pytest.raises(GraphError):
            g.flip_edges([1])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_apply_flip_matches_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        full = _random_residual_full(rng)
        if full is None:
            return
        base, _rev, res = full
        m = res.graph.m
        flips = sorted(
            int(e)
            for e in rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        )
        res.apply_flip(flips)
        new_rev = sorted(int(e) for e in np.nonzero(res.reversed_mask)[0])
        fresh = build_residual(base, new_rev)
        for arr in ("tail", "head", "cost", "delay"):
            assert np.array_equal(
                getattr(res.graph, arr), getattr(fresh.graph, arr)
            ), arr
        assert res.version == 1


# ---------------------------------------------------------------------------
# aux cache: bit-identity, delta refresh, growth, eviction
# ---------------------------------------------------------------------------


def _assert_aux_equal(a, b):
    assert a.n_layers == b.n_layers and a.offset == b.offset
    assert a.graph.n == b.graph.n and a.graph.m == b.graph.m
    for arr in ("tail", "head", "cost", "delay"):
        assert np.array_equal(getattr(a.graph, arr), getattr(b.graph, arr)), arr
    assert np.array_equal(a.orig_eid, b.orig_eid)
    assert np.array_equal(a.wrap_cost, b.wrap_cost)


class TestAuxCache:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_served_graphs_match_fresh_builds(self, seed):
        rng = np.random.default_rng(seed)
        res = _random_residual(rng)
        if res is None:
            return
        cache = AuxCache(res)
        m = res.graph.m
        for _ in range(4):
            for B in (1, 2, 4):
                _assert_aux_equal(cache.get(B), build_aux_shifted(res.graph, B))
            flips = res.apply_flip(
                sorted(
                    int(e)
                    for e in rng.choice(
                        m, size=int(rng.integers(1, m + 1)), replace=False
                    )
                )
            )
            cache.note_flips(flips)

    def test_growth_from_smaller_level(self):
        rng = np.random.default_rng(7)
        res = _random_residual(rng)
        cache = AuxCache(res)
        with obs.session():
            cache.get(2)
            cache.get(8)  # grown from the B=2 skeleton
            snap = obs.snapshot()
        assert snap.get("search.aux_cache.grow", 0) >= 1
        _assert_aux_equal(cache.get(8), build_aux_shifted(res.graph, 8))

    def test_eviction_under_byte_cap(self):
        rng = np.random.default_rng(11)
        res = _random_residual(rng, n=14, p=0.5)
        with obs.session():
            cache = AuxCache(res, max_bytes=1)  # everything over cap
            cache.get(1)
            cache.get(2)
            cache.get(4)
            snap = obs.snapshot()
        assert snap.get("search.aux_cache.evict", 0) >= 1
        assert snap["search.aux_cache.evict"] <= snap["search.aux_cache.miss"]
        # Still serves correct graphs after evictions.
        _assert_aux_equal(cache.get(4), build_aux_shifted(res.graph, 4))

    def test_hit_and_delta_refresh_counters(self):
        rng = np.random.default_rng(3)
        res = _random_residual(rng)
        with obs.session():
            cache = AuxCache(res)
            cache.get(2)
            cache.get(2)  # exact hit
            flips = res.apply_flip([0])
            cache.note_flips(flips)
            cache.get(2)  # stale hit -> delta refresh
            snap = obs.snapshot()
        assert snap["search.aux_cache.hit"] == 2
        assert snap["search.aux_cache.delta_refresh"] == 1
        assert snap["search.aux_cache.miss"] == 1
        _assert_aux_equal(cache.get(2), build_aux_shifted(res.graph, 2))


class TestIncrementalSearchEngine:
    def test_residual_for_tracks_solution_changes(self):
        rng = np.random.default_rng(5)
        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=5), rng=6)
        engine = IncrementalSearch(g)
        sol_a = [0, 1, 2]
        res = engine.residual_for(sol_a)
        scratch = build_residual(g, sol_a)
        assert np.array_equal(res.graph.cost, scratch.graph.cost)
        sol_b = [1, 2, 3]
        res = engine.residual_for(sol_b)
        scratch = build_residual(g, sol_b)
        for arr in ("tail", "head", "cost", "delay"):
            assert np.array_equal(
                getattr(res.graph, arr), getattr(scratch.graph, arr)
            ), arr
        assert res.version == 1

    def test_aux_provider_rejects_foreign_residual(self):
        g = anticorrelated_weights(gnp_digraph(8, 0.4, rng=1), rng=2)
        engine = IncrementalSearch(g)
        engine.residual_for([0])
        foreign = build_residual(g, [0])
        with pytest.raises(GraphError):
            engine.aux_provider(foreign.graph, 2)


# ---------------------------------------------------------------------------
# satellite regressions: long-cycle gadgets through the decomposers
# ---------------------------------------------------------------------------


def _ring(n):
    """One simple cycle 0 -> 1 -> ... -> n-1 -> 0."""
    tails = np.arange(n, dtype=np.int64)
    heads = (tails + 1) % n
    w = np.ones(n, dtype=np.int64)
    return DiGraph(n, tails, heads, w, w)


class TestLongCycleGadgets:
    N = 4000

    def test_decompose_into_cycles_single_long_cycle(self):
        g = _ring(self.N)
        cycles = decompose_into_cycles(g, list(range(self.N)))
        assert len(cycles) == 1 and len(cycles[0]) == self.N

    def test_decompose_into_cycles_many_disjoint_cycles(self):
        # 2-cycles between (2i, 2i+1): the old per-cycle min-scan was
        # quadratic in the number of cycles on exactly this shape.
        pairs = self.N // 2
        tails = np.empty(self.N, dtype=np.int64)
        heads = np.empty(self.N, dtype=np.int64)
        tails[0::2] = np.arange(pairs) * 2
        heads[0::2] = np.arange(pairs) * 2 + 1
        tails[1::2] = np.arange(pairs) * 2 + 1
        heads[1::2] = np.arange(pairs) * 2
        w = np.ones(self.N, dtype=np.int64)
        g = DiGraph(self.N, tails, heads, w, w)
        cycles = decompose_into_cycles(g, list(range(self.N)))
        assert len(cycles) == pairs
        assert all(len(c) == 2 for c in cycles)

    def test_decompose_flow_many_cycles(self):
        pairs = self.N // 2
        tails = np.empty(self.N, dtype=np.int64)
        heads = np.empty(self.N, dtype=np.int64)
        tails[0::2] = np.arange(pairs) * 2
        heads[0::2] = np.arange(pairs) * 2 + 1
        tails[1::2] = np.arange(pairs) * 2 + 1
        heads[1::2] = np.arange(pairs) * 2
        w = np.ones(self.N, dtype=np.int64)
        g = DiGraph(self.N, tails, heads, w, w)
        paths, cycles = decompose_flow(g, list(range(self.N)), 0, 0)
        assert paths == []
        assert len(cycles) == pairs

    def test_split_closed_walk_long_figure_eight(self):
        # Two long petals sharing vertex 0: the walk revisits 0 once.
        n = self.N
        half = n // 2
        tails, heads = [], []
        # Petal A: 0 -> 1 -> ... -> half-1 -> 0.
        for i in range(half):
            tails.append(i)
            heads.append(i + 1 if i + 1 < half else 0)
        # Petal B: 0 -> half -> half+1 -> ... -> n-1 -> 0.
        tails.append(0)
        heads.append(half)
        for i in range(half, n - 1):
            tails.append(i)
            heads.append(i + 1)
        tails.append(n - 1)
        heads.append(0)
        m = len(tails)
        g = DiGraph(
            n,
            np.array(tails, dtype=np.int64),
            np.array(heads, dtype=np.int64),
            np.ones(m, dtype=np.int64),
            np.ones(m, dtype=np.int64),
        )
        cycles = split_closed_walk(g, list(range(m)))
        assert sorted(len(c) for c in cycles) == sorted([half, m - half])

    def test_bellman_ford_long_negative_cycle(self):
        g = _ring(600)
        neg = g.with_weights(-np.ones(600, dtype=np.int64), g.delay)
        cyc = find_negative_cycle(neg)
        assert cyc is not None and len(cyc) == 600
        assert int(neg.cost[np.asarray(cyc)].sum()) == -600


# ---------------------------------------------------------------------------
# satellite regressions: transform copy-on-write and aliasing safety
# ---------------------------------------------------------------------------


class TestTransformCopyOnWrite:
    def test_inject_no_edges_shares_arrays(self):
        from repro.graph.transform import inject_parallel_edges

        g = gnp_digraph(8, 0.4, rng=0)
        child = inject_parallel_edges(g, [])
        assert np.shares_memory(child.cost, g.cost)
        assert np.shares_memory(child.delay, g.delay)
        assert np.shares_memory(child.tail, g.tail)

    def test_subdivide_no_edges_shares_arrays(self):
        from repro.graph.transform import subdivide_edges

        g = gnp_digraph(8, 0.4, rng=0)
        child = subdivide_edges(g, [])
        assert np.shares_memory(child.cost, g.cost)

    def test_mutating_child_never_changes_parent(self):
        """A COW child handed to a mutating helper must leave the parent
        (and the COW sibling) untouched — fresh arrays on every mutation."""
        from repro.graph.transform import inject_parallel_edges, subdivide_edges

        g = anticorrelated_weights(gnp_digraph(8, 0.5, rng=3), rng=3)
        child = inject_parallel_edges(g, [])  # shares g's arrays
        before = (g.tail.copy(), g.head.copy(), g.cost.copy(), g.delay.copy())
        grandchild = subdivide_edges(child, [0, 1])
        assert grandchild.m == child.m + 2
        mutated = inject_parallel_edges(child, [0], cost_jitter=2, rng=1)
        assert mutated.m == child.m + 1
        for arr, ref in zip(("tail", "head", "cost", "delay"), before):
            assert np.array_equal(getattr(g, arr), ref), arr

    def test_scaling_shares_unscaled_arrays(self):
        from repro.core import scale_instance

        g = anticorrelated_weights(gnp_digraph(8, 0.5, rng=2), rng=2)
        inst = KRSPInstance(g, 0, 7, 2, 10)
        scaled = scale_instance(inst, 0.5, 0.5, cost_estimate=1)
        # Tiny thetas: neither criterion is scaled, so both arrays share.
        assert np.shares_memory(scaled.instance.graph.cost, g.cost)
        assert np.shares_memory(scaled.instance.graph.delay, g.delay)


# ---------------------------------------------------------------------------
# structural churn seams (online re-solving, PR 6)
# ---------------------------------------------------------------------------


class TestStructuralChurn:
    """Edge removal/addition/reweight across the graph -> residual ->
    aux-cache -> engine stack: every mutated structure must be
    bit-identical to a from-scratch rebuild, the third sanctioned
    mutation path besides flips and weight scaling."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_remove_edges_csr_and_idmap_match_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        m = int(rng.integers(2, 30))
        g = DiGraph(
            n,
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            rng.integers(-5, 9, size=m),
            rng.integers(-5, 9, size=m),
        )
        g.out_edges(0)
        g.in_edges(0)
        doomed = sorted(
            int(e)
            for e in rng.choice(m, size=int(rng.integers(1, m)), replace=False)
        )
        id_map = g.remove_edges(doomed)
        # id-map semantics: -1 for removed, dense renumbering otherwise.
        removed = np.zeros(m, dtype=bool)
        removed[doomed] = True
        expect = np.where(removed, -1, np.cumsum(~removed) - 1)
        assert np.array_equal(id_map, expect)
        assert g.m == m - len(doomed)
        fresh = DiGraph(
            g.n, g.tail.copy(), g.head.copy(), g.cost.copy(), g.delay.copy()
        )
        for v in range(n):
            assert np.array_equal(g.out_edges(v), fresh.out_edges(v)), v
            assert np.array_equal(g.in_edges(v), fresh.in_edges(v)), v

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_add_edges_csr_matches_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        m = int(rng.integers(1, 25))
        g = DiGraph(
            n,
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            rng.integers(-5, 9, size=m),
            rng.integers(-5, 9, size=m),
        )
        g.out_edges(0)
        g.in_edges(0)
        extra = int(rng.integers(1, 6))
        new_ids = g.add_edges(
            rng.integers(0, n, size=extra),
            rng.integers(0, n, size=extra),
            rng.integers(0, 9, size=extra),
            rng.integers(0, 9, size=extra),
        )
        assert list(new_ids) == list(range(m, m + extra))
        fresh = DiGraph(
            g.n, g.tail.copy(), g.head.copy(), g.cost.copy(), g.delay.copy()
        )
        for v in range(n):
            assert np.array_equal(g.out_edges(v), fresh.out_edges(v)), v
            assert np.array_equal(g.in_edges(v), fresh.in_edges(v)), v

    def test_remove_edges_rejects_bad_ids(self):
        g = DiGraph(2, [0], [1], [3], [4])
        with pytest.raises(GraphError):
            g.remove_edges([1])
        # Duplicates collapse (np.unique); empty removal is the identity.
        g2 = DiGraph(3, [0, 1], [1, 2], [3, 4], [5, 6])
        assert list(g2.remove_edges([0, 0])) == [-1, 0]
        assert list(g2.remove_edges([])) == [0]

    def test_residual_remove_refuses_flow_edges(self):
        rng = np.random.default_rng(13)
        full = _random_residual_full(rng)
        base, rev, res = full
        if not rev:
            rev = [0]
            res = build_residual(base, rev)
        with pytest.raises(GraphError):
            res.remove_edges([rev[0]])
        idle = [e for e in range(base.m) if e not in set(rev)]
        if idle:
            doomed = idle[0]
            id_map = res.remove_edges([doomed])
            new_rev = sorted(int(id_map[e]) for e in rev)
            fresh = build_residual(
                DiGraph(
                    base.n,
                    np.delete(base.tail, doomed),
                    np.delete(base.head, doomed),
                    np.delete(base.cost, doomed),
                    np.delete(base.delay, doomed),
                ),
                new_rev,
            )
            assert np.array_equal(res.reversed_mask, fresh.reversed_mask)
            for arr in ("tail", "head", "cost", "delay"):
                assert np.array_equal(
                    getattr(res.graph, arr), getattr(fresh.graph, arr)
                ), arr

    def test_residual_reweight_signs_and_version(self):
        g = DiGraph(3, [0, 1, 0], [1, 2, 2], [2, 3, 4], [5, 6, 7])
        res = build_residual(g, [1])  # edge 1 reversed
        v0 = res.version
        touched = res.reweight_edges([0, 1], [10, 20], [30, 40])
        assert list(touched) == [0, 1]
        assert res.version == v0 + 1
        assert res.graph.cost[0] == 10 and res.graph.delay[0] == 30
        # Reversed edge stores negated weights (Definition 6).
        assert res.graph.cost[1] == -20 and res.graph.delay[1] == -40
        with pytest.raises(GraphError):
            res.reweight_edges([0], [-1], [0])

    def test_residual_add_edges_extends_mask(self):
        g = DiGraph(3, [0, 1], [1, 2], [2, 3], [5, 6])
        res = build_residual(g, [0])
        new_ids = res.add_edges([0], [2], [9], [9])
        assert list(new_ids) == [2]
        assert res.m == 3
        assert not res.reversed_mask[2]
        fresh = build_residual(
            DiGraph(3, [0, 1, 0], [1, 2, 2], [2, 3, 9], [5, 6, 9]), [0]
        )
        for arr in ("tail", "head", "cost", "delay"):
            assert np.array_equal(
                getattr(res.graph, arr), getattr(fresh.graph, arr)
            ), arr

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_auxcache_reweight_serves_fresh_builds(self, seed):
        rng = np.random.default_rng(seed)
        res = _random_residual(rng)
        if res is None or res.graph.m < 2:
            return
        cache = AuxCache(res)
        for B in (1, 2, 4):
            cache.get(B)
        m = res.graph.m
        eids = sorted(
            int(e)
            for e in rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        )
        touched = res.reweight_edges(
            eids, rng.integers(0, 9, size=len(eids)), rng.integers(0, 9, size=len(eids))
        )
        cache.note_reweight(touched)
        for B in (1, 2, 4):
            _assert_aux_equal(cache.get(B), build_aux_shifted(res.graph, B))

    def test_auxcache_reweight_counters(self):
        res = build_residual(DiGraph(3, [0, 1, 0], [1, 2, 2], [1, 1, 2], [1, 1, 1]), [])
        with obs.session():
            cache = AuxCache(res)
            cache.get(2)
            # Same |cost| layout: parity patch.
            touched = res.reweight_edges([0], [1], [5])
            cache.note_reweight(touched)
            # Layout change on some level: drop.
            touched = res.reweight_edges([0], [7], [5])
            cache.note_reweight(touched)
            snap = obs.snapshot()
        assert snap.get("search.aux_cache.reweight_patch", 0) >= 1
        assert snap.get("search.aux_cache.reweight_drop", 0) >= 1
        _assert_aux_equal(cache.get(2), build_aux_shifted(res.graph, 2))

    def test_auxcache_structural_change_clears(self):
        rng = np.random.default_rng(9)
        res = _random_residual(rng)
        with obs.session():
            cache = AuxCache(res)
            cache.get(2)
            cache.note_structural_change()
            cache.get(2)
            snap = obs.snapshot()
        assert snap.get("search.aux_cache.structural_drop", 0) == 1
        assert snap["search.aux_cache.miss"] == 2
        _assert_aux_equal(cache.get(2), build_aux_shifted(res.graph, 2))

    def test_engine_structural_roundtrip_matches_scratch(self):
        """reweight -> remove -> add through IncrementalSearch equals a
        from-scratch residual of the mutated graph."""
        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=5), rng=6)
        engine = IncrementalSearch(g)
        sol = [0, 2, 4]
        engine.residual_for(sol)
        engine.apply_reweight([0, 1], [3, 4], [5, 6])
        idle = next(e for e in range(g.m) if e not in sol and e > 4)
        id_map = engine.remove_edges([idle])
        engine.add_edges([0], [g.n - 1], [2], [2])
        res = engine.residual
        base = res.graph
        new_sol = sorted(int(id_map[e]) for e in sol)
        fresh = build_residual(
            DiGraph(
                base.n,
                np.where(res.reversed_mask, base.head, base.tail),
                np.where(res.reversed_mask, base.tail, base.head),
                np.abs(base.cost),
                np.abs(base.delay),
            ),
            new_sol,
        )
        assert np.array_equal(res.reversed_mask, fresh.reversed_mask)
        for arr in ("tail", "head", "cost", "delay"):
            assert np.array_equal(
                getattr(res.graph, arr), getattr(fresh.graph, arr)
            ), arr
        # The aux provider serves the mutated residual bit-identically.
        _assert_aux_equal(
            engine.aux_provider(res.graph, 2), build_aux_shifted(res.graph, 2)
        )

    def test_engine_structural_ops_require_residual(self):
        g = DiGraph(2, [0], [1], [1], [1])
        engine = IncrementalSearch(g)
        with pytest.raises(GraphError):
            engine.apply_reweight([0], [1], [1])
        with pytest.raises(GraphError):
            engine.remove_edges([0])
        with pytest.raises(GraphError):
            engine.add_edges([0], [1], [1], [1])
