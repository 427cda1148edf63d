"""LP engine contract tests (:mod:`repro.lp.engine`).

Three layers of guarantees:

1. **linprog bit-compatibility** — the engine calls scipy's bundled HiGHS
   directly, and must return exactly what the inline
   ``scipy.optimize.linprog`` calls it replaced return (same assembly,
   same method, same options): byte-equal ``x``, ``fun``, ``nit``, status
   and inequality duals for the ratio LP, the flow LP and LP (6),
   including time-limited and infeasible solves. No solver path solves
   the ratio LP; the benchmark's layer tracer binds it.
2. **The private HiGHS surface** — the engine imports a private scipy
   module; a scipy upgrade that moves or trims it must fail loudly here,
   and the import must fail with a message naming the requirement.
3. **Accounting & process safety** — pivot counts are never silently
   dropped (``lp.pivots_unreported`` instead of a fake 0), solve counters
   fire, the :func:`repro.obs.report.validate_trace` cross-checks accept
   real traces and reject cooked ones, and the engine pickles cleanly
   across spawn boundaries.
"""

from __future__ import annotations

import importlib.util
import pickle
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from repro import obs
from repro.core import solve_krsp
from repro.core.auxgraph import build_aux_shifted
from repro.core.auxlp import MASS_CAP, solve_lp6
from repro.core.instance import KRSPInstance
from repro.core.phase1 import flow_lp_bound
from repro.core.residual import build_residual
from repro.graph import anticorrelated_weights, gnp_digraph
from repro.lp import engine as eng
from repro.lp.engine import LPResult, count_pivots, get_engine
from repro.lp.flow_lp import incidence_matrix, solve_flow_lp


def _residual(seed: int, n: int = 9, p: float = 0.45):
    g = anticorrelated_weights(gnp_digraph(n, p, rng=seed), rng=seed + 1)
    flow_edges = [int(e) for e in range(0, g.m, 3)]
    return build_residual(g, flow_edges)


def _linprog_ratio(aux, cost_sign: int, options=None):
    """The ratio LP exactly as it was solved through ``linprog``."""
    h = aux.graph
    wraps = aux.wrap_cost
    chosen = (wraps * cost_sign) > 0
    other = (wraps * cost_sign) < 0
    idx = np.nonzero(chosen)[0]
    norm_row = sp.csr_matrix(
        (
            np.abs(wraps[idx]).astype(np.float64),
            (np.zeros(len(idx), dtype=np.int64), idx),
        ),
        shape=(1, h.m),
    )
    A_eq = sp.vstack([incidence_matrix(h), norm_row], format="csr")
    b_eq = np.zeros(h.n + 1)
    b_eq[-1] = 1.0
    ub = np.full(h.m, MASS_CAP)
    ub[other] = 0.0
    return scipy.optimize.linprog(
        c=h.delay.astype(np.float64),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=np.stack([np.zeros(h.m), ub], axis=1),
        method="highs",
        options=options or {},
    )


def _linprog_flow(g, s, t, k, D):
    """The flow LP exactly as it was solved through ``linprog``."""
    b_eq = np.zeros(g.n)
    b_eq[s] += k
    b_eq[t] -= k
    return scipy.optimize.linprog(
        c=g.cost.astype(np.float64),
        A_ub=sp.csr_matrix(g.delay.astype(np.float64)[None, :]),
        b_ub=np.array([float(D)]),
        A_eq=incidence_matrix(g),
        b_eq=b_eq,
        bounds=(0.0, 1.0),
        method="highs-ds",
        options={},
    )


def _linprog_lp6(aux, delta_d: int):
    """LP (6) exactly as it was solved through ``linprog``."""
    h = aux.graph
    return scipy.optimize.linprog(
        c=h.cost.astype(np.float64),
        A_ub=sp.csr_matrix(h.delay.astype(np.float64)[None, :]),
        b_ub=np.array([float(delta_d)]),
        A_eq=incidence_matrix(h),
        b_eq=np.zeros(h.n),
        bounds=(0.0, MASS_CAP),
        method="highs",
    )


def _assert_same(res: LPResult, ref, *, duals: bool) -> None:
    """Byte equality of every field a caller reads."""
    assert res.status == ref.status
    assert res.success == ref.success
    assert res.nit == ref.nit
    if ref.x is None:
        assert res.x is None and res.fun is None
        return
    assert res.x.tobytes() == ref.x.tobytes()
    assert np.float64(res.fun).tobytes() == np.float64(ref.fun).tobytes()
    if duals:
        assert res.ineq_marginals.tobytes() == ref.ineqlin.marginals.tobytes()
    else:
        assert res.ineq_marginals is None


class TestScipyBitCompat:
    """The direct HiGHS path must be byte-equal to the linprog calls."""

    def test_ratio_lp_bit_identical_to_legacy_assembly(self):
        solved = infeasible = 0
        for seed in range(12):
            res = _residual(seed)
            for B in (1, 2, 5):
                aux = build_aux_shifted(res.graph, B)
                for sign in (+1, -1):
                    ref = _linprog_ratio(aux, sign)
                    _assert_same(get_engine().solve_ratio(aux, sign), ref, duals=False)
                    solved += ref.status == 0
                    infeasible += ref.status == 2
        # the corpus must exercise both the solved and the infeasible LP
        assert solved >= 3 and infeasible >= 3, (solved, infeasible)

    def test_flow_lp_bit_identical_to_legacy_assembly(self):
        solved = 0
        for seed in range(10):
            g = anticorrelated_weights(gnp_digraph(9, 0.4, rng=seed), rng=seed + 1)
            for D in (15, 30, 60):
                ref = _linprog_flow(g, 0, 8, 2, D)
                _assert_same(get_engine().solve_flow(g, 0, 8, 2, D), ref, duals=True)
                lp = solve_flow_lp(g, 0, 8, 2, D)
                if ref.status == 2:
                    assert lp is None
                    continue
                solved += 1
                assert np.array_equal(lp.x, np.clip(ref.x, 0.0, 1.0))
                assert lp.cost == float(ref.fun)
                assert lp.dual_delay == float(-ref.ineqlin.marginals[0])
        assert solved >= 6

    def test_lp6_bit_identical_to_legacy_assembly(self):
        solved = 0
        for seed in range(6):
            aux = build_aux_shifted(_residual(seed).graph, 2)
            for delta_d in (-1, -5, 3):
                ref = _linprog_lp6(aux, delta_d)
                _assert_same(get_engine().solve_lp6(aux, delta_d), ref, duals=True)
                x = solve_lp6(aux, delta_d)
                if ref.status == 2:
                    assert x is None
                    continue
                solved += 1
                assert np.array_equal(x, np.maximum(ref.x, 0.0))
        assert solved >= 3

    def test_time_limit_returns_status_1(self):
        aux = build_aux_shifted(_residual(3, n=14).graph, 8)
        options = {"time_limit": 0.0}
        ref = _linprog_ratio(aux, +1, options)
        res = get_engine().solve_ratio(aux, +1, options=options)
        assert ref.status == 1
        _assert_same(res, ref, duals=False)

    def test_infeasible_returns_status_2(self):
        g = anticorrelated_weights(gnp_digraph(9, 0.4, rng=1), rng=2)
        ref = _linprog_flow(g, 0, 8, 2, 0)  # positive delays: D = 0 is infeasible
        res = get_engine().solve_flow(g, 0, 8, 2, 0)
        assert ref.status == 2
        _assert_same(res, ref, duals=True)
        assert solve_flow_lp(g, 0, 8, 2, 0) is None


class TestHighsSurface:
    def test_private_module_exposes_every_method_the_adapter_calls(self):
        from scipy.optimize._highspy import _core

        missing = [m for m in eng.HIGHS_METHODS if not hasattr(_core._Highs, m)]
        assert not missing, f"scipy's _Highs lost {missing}"
        assert int(_core.MatrixFormat.kColwise) == 1
        assert int(_core.ObjSense.kMinimize) == 1
        opts = _core.HighsOptions()
        for name in (
            "presolve", "solver", "time_limit", "highs_debug_level",
            "log_to_console", "output_flag", "simplex_strategy",
        ):
            assert hasattr(opts, name), name
        # linprog maps infinities to kHighsInf; the adapter relies on the
        # two being the same value.
        assert _core.kHighsInf == np.inf

    def test_import_failure_names_the_scipy_requirement(self, monkeypatch):
        import sys

        import scipy.optimize._highspy as highspy_pkg

        monkeypatch.delattr(highspy_pkg, "_core")
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        spec = importlib.util.spec_from_file_location("_engine_probe", eng.__file__)
        with pytest.raises(ImportError, match=r"scipy>=1\.17"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))

    def test_backend_name_is_scipy(self):
        # Benchmark records are stamped with this; compare.py refuses to
        # compare runs whose stamps differ.
        assert get_engine().backend_name == "scipy"
        assert isinstance(eng.highspy_available(), bool)


class TestAccounting:
    def test_pivots_counted_when_reported(self):
        with obs.session():
            count_pivots(LPResult(status=0, success=True, x=None, fun=None, nit=7))
            count_pivots(LPResult(status=0, success=True, x=None, fun=None, nit=0))
            snap = obs.snapshot()
        # A genuine zero-pivot solve (presolve-solved) is *reported* zero,
        # not "unreported".
        assert snap.get("lp.pivots", 0) == 7
        assert "lp.pivots_unreported" not in snap

    def test_missing_nit_counts_unreported_not_zero(self):
        with obs.session():
            count_pivots(
                LPResult(status=0, success=True, x=None, fun=None, nit=None)
            )
            snap = obs.snapshot()
        assert snap.get("lp.pivots_unreported") == 1
        assert "lp.pivots" not in snap

    def test_backend_counter_fires_per_solve(self):
        g = anticorrelated_weights(gnp_digraph(8, 0.45, rng=3), rng=4)
        with obs.session():
            solve_flow_lp(g, 0, 7, 2, 40)
            snap = obs.snapshot()
        assert snap.get("lp.backend.scipy.solves") == 1
        assert snap.get("lp.flow_lp.solves") == 1

    @pytest.mark.parametrize("seed", [6, 11])
    def test_flow_lp_solved_once_per_lp_rounding_solve(self, seed):
        # Phase 1 and the lower-bound step share one flow-LP solve.
        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=seed), rng=seed + 1)
        with obs.session():
            solve_krsp(g, 0, 9, 2, 40, phase1="lp_rounding")
            snap = obs.snapshot()
        assert snap.get("lp.flow_lp.solves") == 1

    @pytest.mark.parametrize("seed", [6, 11])
    def test_default_solve_runs_no_flow_lp(self, seed):
        # Seed 6's min-cost flow meets D; seed 11 walks LARAC to lambda*.
        # Either way the bound is the flow-LP optimum, found without HiGHS.
        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=seed), rng=seed + 1)
        with obs.session():
            sol = solve_krsp(g, 0, 9, 2, 40)
            snap = obs.snapshot()
        assert snap.get("lp.flow_lp.solves", 0) == 0
        assert isinstance(sol.cost_lower_bound, Fraction)
        lp = solve_flow_lp(g, 0, 9, 2, 40)
        assert abs(float(sol.cost_lower_bound) - lp.cost) <= 1e-6

    def test_lp_rounding_bound_is_the_exact_flow_lp_bound(self):
        # The provider reports HiGHS's float; the solver's certified bound
        # is flow_lp_bound's exact C_LP, with no tolerance shaved off.
        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=11), rng=12)
        sol = solve_krsp(g, 0, 9, 2, 40, phase1="lp_rounding")
        c_lp = flow_lp_bound(KRSPInstance(g, 0, 9, 2, 40))[0]
        assert sol.cost_lower_bound == c_lp
        assert abs(float(c_lp) - solve_flow_lp(g, 0, 9, 2, 40).cost) <= 1e-6

    def test_validate_trace_accepts_real_solver_run(self, tmp_path):
        from repro.obs.report import validate_file

        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=6), rng=7)
        trace = tmp_path / "trace.jsonl"
        with obs.session(trace_path=trace):
            solve_krsp(g, 0, 9, 2, 40)
        assert validate_file(trace) == []

    def test_validate_trace_rejects_cooked_lp_counters(self, tmp_path):
        import json

        from repro.obs.report import load_trace, validate_trace

        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=6), rng=7)
        trace = tmp_path / "trace.jsonl"
        with obs.session(trace_path=trace):
            solve_krsp(g, 0, 9, 2, 40)
        cooked = []
        for line in trace.read_text().splitlines():
            rec = json.loads(line)
            if rec.get("type") == "counters":
                rec["values"].pop("lp.pivots", None)
                rec["values"]["lp.pivots_unreported"] = 10_000
            cooked.append(json.dumps(rec))
        trace.write_text("\n".join(cooked) + "\n")
        problems = validate_trace(load_trace(trace))
        assert any("lp.pivots_unreported" in p for p in problems)


class TestProcessSafety:
    def test_engine_pickle_drops_models(self):
        engine = get_engine()
        g = anticorrelated_weights(gnp_digraph(8, 0.45, rng=3), rng=4)
        before = engine.solve_flow(g, 0, 7, 2, 40)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.backend_name == engine.backend_name
        assert not vars(clone)  # stateless: no HiGHS handle crosses a pickle
        assert clone.solve_flow(g, 0, 7, 2, 40).x.tobytes() == before.x.tobytes()


class TestOnlineResolveLiveness:
    def test_resolve_runs_through_engine(self):
        # The cold-fallback taxonomy itself is frozen by the pinned corpus
        # replay in tests/test_online_resolve.py; this asserts which engine
        # a resolve's bound refresh takes: exact min-cost flows, whose
        # counters fire inside the resolve session, and no HiGHS solve.
        from repro.online import EdgeReweight, InstanceDelta, resolve, start_online

        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=6), rng=7)
        state = start_online(g, 0, 9, 2, 40)
        with obs.session():
            resolve(state, InstanceDelta(ops=(EdgeReweight(0, cost=2, delay=3),)))
            snap = obs.snapshot()
        assert snap.get("online.lb_refresh") == 1
        assert snap.get("mincost.augmentations", 0) >= 1
        assert snap.get("lp.backend.scipy.solves", 0) == 0
