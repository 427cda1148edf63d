"""The LP engine: every LP in the pipeline, solved by scipy's bundled HiGHS.

``BENCH_PR4.json`` showed the ratio LP dominating the solver (95,746
simplex pivots over 60 ``solve_ratio_lp`` calls on the E5 kernel). A
profile of that path showed HiGHS's own ``run`` at only ~60% of the time
spent inside scipy's LP wrapper (``scipy.optimize`` with
``method="highs"``); the rest was the wrapper itself: option validation,
input cleaning, and a per-column Python loop building bound marginals
nobody reads.

This module therefore drives ``scipy.optimize._highspy._core._Highs``
directly through one small adapter, :func:`_run_highs`. Each solve builds
a fresh model with the rows ordered (inequality rows first, then
equalities) and the options set exactly as the wrapper sets them for
``method="highs"`` / ``"highs-ds"``, and maps the outcome with the
wrapper's status table, iteration count and post-solve feasibility check.
The answers — ``x``, ``fun``, ``nit``, status and duals — are
byte-identical to the wrapper's (``tests/test_lp_engine.py`` keeps an
inline reference), so the differential and replay suites see exactly the
solver they saw before.

Counters (docs/OBSERVABILITY.md): ``lp.backend.scipy.solves``,
``lp.pivots``, and ``lp.pivots_unreported`` (solves that reported no
iteration count — never silently counted as zero).
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import obs

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # pragma: no cover - depends on the scipy build
    raise ImportError(
        "repro.lp.engine calls the HiGHS bindings bundled with scipy "
        "(scipy.optimize._highspy._core); it requires scipy>=1.17"
    ) from exc

#: The ``_Highs`` methods :func:`_run_highs` calls.
HIGHS_METHODS = (
    "passOptions",
    "passModel",
    "run",
    "getModelStatus",
    "getInfo",
    "getSolution",
    "modelStatusToString",
)

_MS = _highs.HighsModelStatus

#: The scipy wrapper's map from HiGHS model status to its own status code;
#: any other model status is 4 (numerical or other trouble).
_WRAPPER_STATUS = {
    _MS.kOptimal: 0,
    _MS.kTimeLimit: 1,
    _MS.kIterationLimit: 1,
    _MS.kInfeasible: 2,
    _MS.kModelError: 2,
    _MS.kUnbounded: 3,
}

#: The wrapper's post-solve feasibility tolerance (``sqrt(tol) * 10`` with
#: its default ``tol = 1e-9``); an "optimal" point outside it is status 4.
_CHECK_TOL = np.sqrt(1e-9) * 10


def highspy_available() -> bool:
    """Whether the standalone ``highspy`` package is importable (benchmark stamp)."""
    return importlib.util.find_spec("highspy") is not None


@dataclass
class LPResult:
    """One LP outcome, in the scipy wrapper's status conventions.

    ``status``: 0 optimal, 1 iteration/time limit, 2 infeasible,
    3 unbounded, 4 numerical/other. ``nit`` is the simplex iteration
    count, or ``None`` when none was reported (counted as
    ``lp.pivots_unreported``, never as zero pivots). ``ineq_marginals``
    are the inequality-row duals in the wrapper's sign convention
    (nonpositive for binding ``<=`` rows of a minimization).
    """

    status: int
    success: bool
    x: np.ndarray | None
    fun: float | None
    nit: int | None
    message: str = ""
    ineq_marginals: np.ndarray | None = None


def count_pivots(res: LPResult) -> None:
    """Fold one solve's iteration count into the ``lp.*`` counters.

    A missing count increments ``lp.pivots_unreported`` instead of adding
    zero to ``lp.pivots``; ``validate_trace`` cross-checks the two
    counters against the solve totals.
    """
    if res.nit is None:
        obs.inc("lp.pivots_unreported")
    else:
        obs.add("lp.pivots", int(res.nit))


# ---------------------------------------------------------------------------
# the HiGHS adapter
# ---------------------------------------------------------------------------


def _incidence_csc(g, extra_row: int, extra_cols, extra_vals) -> tuple:
    """``g``'s incidence (+1 tail, -1 head) plus one extra row, at index
    ``extra_row`` (0: above the incidence rows; ``g.n``: below), as CSC
    ``(indptr, indices, data)``.

    scipy.sparse's COO-to-CSC conversion sums duplicates and sorts the
    rows of each column: the canonical layout the scipy wrapper's
    ``csc_array(vstack((A_ub, A_eq)))`` hands HiGHS.
    """
    m = g.m
    shift = 1 if extra_row == 0 else 0
    rows = np.concatenate(
        [g.tail + shift, g.head + shift, np.full(len(extra_cols), extra_row)]
    ).astype(np.int32)
    cols = np.concatenate([np.arange(m), np.arange(m), extra_cols]).astype(np.int32)
    data = np.concatenate([np.ones(m), -np.ones(m), extra_vals])
    a = sp.csc_array((data, (rows, cols)), shape=(g.n + 1, m))
    return a.indptr, a.indices, a.data


def _delay_row_csc(g) -> tuple:
    """The delay budget row (zero delays left out) above ``g``'s incidence."""
    nz = np.nonzero(g.delay)[0]
    return _incidence_csc(g, 0, nz, g.delay[nz].astype(np.float64))


def _options(simplex: bool, time_limit: float | None) -> object:
    """The HiGHS options the scipy wrapper sets for ``highs`` / ``highs-ds``."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    if simplex:
        opts.solver = "simplex"
    if time_limit is not None:
        opts.time_limit = float(time_limit)
    opts.highs_debug_level = int(_highs.HighsDebugLevel.kHighsDebugLevelNone)
    opts.log_to_console = False
    opts.output_flag = False
    opts.simplex_strategy = int(
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )
    return opts


def _run_highs(
    c, csc, row_lo, row_hi, col_lo, col_hi, n_ub: int,
    *, simplex: bool, options: dict | None,
) -> LPResult:
    """Solve ``min c.x`` s.t. ``row_lo <= A x <= row_hi``, ``col_lo <= x <= col_hi``
    with ``A`` given as the CSC triple ``csc``, on a fresh HiGHS instance.

    The first ``n_ub`` rows are the wrapper's ``A_ub`` block; their duals
    come back as ``ineq_marginals``. Bounds are already HiGHS-ready:
    ``kHighsInf`` is ``inf`` in scipy's build, so the wrapper's infinity
    replacement is the identity.
    """
    indptr, indices, data = csc
    n_rows, n_cols = len(row_lo), len(c)
    h = _highs._Highs()
    error = _highs.HighsStatus.kError
    info = None
    if h.passOptions(_options(simplex, (options or {}).get("time_limit"))) == error:
        model_status = h.getModelStatus()
    elif h.passModel(
        n_cols, n_rows, len(data),
        int(_highs.MatrixFormat.kColwise), int(_highs.ObjSense.kMinimize), 0.0,
        c, col_lo, col_hi, row_lo, row_hi, indptr, indices, data,
        np.zeros(n_cols, dtype=np.int32),  # all columns continuous
    ) == error:
        model_status = _MS.kModelError
    elif h.run() == error:
        model_status = h.getModelStatus()
    else:
        model_status = h.getModelStatus()
        info = h.getInfo()
    nit = 0 if info is None else info.simplex_iteration_count or info.ipm_iteration_count
    status = _WRAPPER_STATUS.get(model_status, 4)
    message = f"HiGHS status {int(model_status)}: {h.modelStatusToString(model_status)}"
    if info is None or model_status != _MS.kOptimal:
        # the wrapper turns "optimal but no solution" into status 4
        return LPResult(
            status=4 if status == 0 else status,
            success=False,
            x=None,
            fun=None,
            nit=nit,
            message=message,
        )

    sol = h.getSolution()
    x = np.array(sol.col_value)
    fun = info.objective_function_value
    resid = row_hi - np.asarray(sol.row_value)
    feasible = (
        not (np.isnan(x).any() or np.isnan(fun) or np.isnan(resid).any())
        and np.all((x >= col_lo - _CHECK_TOL) & (x <= col_hi + _CHECK_TOL))
        and np.all(resid[:n_ub] >= -_CHECK_TOL)
        and np.all(np.abs(resid[n_ub:]) <= _CHECK_TOL)
    )
    if not feasible:
        status, message = 4, "solution violates the constraints beyond the wrapper's tolerance"
    marginals = np.array(sol.row_dual)[:n_ub] if n_ub else None
    return LPResult(
        status=status,
        success=status == 0,
        x=x,
        fun=fun,
        nit=nit,
        message=message,
        ineq_marginals=marginals,
    )


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class LPEngine:
    """Assembles and solves every LP family in the pipeline.

    Stateless: each solve builds its own model, so the engine pickles
    trivially and spawn workers simply create their own.
    """

    @property
    def backend_name(self) -> str:
        """The solver family: scipy's bundled HiGHS build."""
        return "scipy"

    def _finish(self, res: LPResult) -> LPResult:
        obs.inc("lp.backend.scipy.solves")
        count_pivots(res)
        return res

    def solve_ratio(self, aux, cost_sign: int, options: dict | None = None) -> LPResult:
        """Min-ratio circulation LP over ``aux`` for one wrap sign.

        ``min d.x`` over circulations of ``aux.graph`` whose wraps of the
        chosen sign carry total ``|wrap cost|`` mass 1; wraps of the other
        sign are closed (upper bound 0), every other edge capped at
        ``MASS_CAP``. No solver path calls it. Its optimum may use
        several wraps at once, so it can lie below the one-wrap optimum
        of :func:`repro.core.auxlp.min_ratio_cycles`, which the solver
        uses instead.
        """
        from repro.core.auxlp import MASS_CAP  # late: avoid an import cycle

        h = aux.graph
        with obs.span("lp.ratio_lp"):
            signed = aux.wrap_cost * cost_sign
            chosen = np.nonzero(signed > 0)[0]
            rhs = np.zeros(h.n + 1)
            rhs[-1] = 1.0
            ub = np.full(h.m, MASS_CAP)
            ub[signed < 0] = 0.0
            res = _run_highs(
                h.delay.astype(np.float64),
                _incidence_csc(
                    h, h.n, chosen, np.abs(aux.wrap_cost[chosen]).astype(np.float64)
                ),
                rhs, rhs, np.zeros(h.m), ub, 0,
                simplex=False, options=options,
            )
        return self._finish(res)

    def solve_flow(
        self, g, s: int, t: int, k: int, delay_bound: int, options: dict | None = None
    ) -> LPResult:
        """Delay-budgeted fractional k-flow LP (phase-1 relaxation), dual simplex."""
        with obs.span("lp.flow_lp"):
            b_eq = np.zeros(g.n)
            b_eq[s] += k
            b_eq[t] -= k
            res = _run_highs(
                g.cost.astype(np.float64),
                _delay_row_csc(g),
                np.concatenate([[-np.inf], b_eq]),
                np.concatenate([[float(delay_bound)], b_eq]),
                np.zeros(g.m), np.ones(g.m), 1,
                simplex=True, options=options,
            )
        return self._finish(res)

    def solve_lp6(self, aux, delta_d: int) -> LPResult:
        """The paper's LP (6) on one anchored aux graph: the cheapest
        circulation whose total delay is at most ``delta_d``."""
        from repro.core.auxlp import MASS_CAP  # late: avoid an import cycle

        h = aux.graph
        with obs.span("lp.lp6"):
            lhs = np.zeros(h.n + 1)
            lhs[0] = -np.inf
            rhs = np.zeros(h.n + 1)
            rhs[0] = float(delta_d)
            res = _run_highs(
                h.cost.astype(np.float64),
                _delay_row_csc(h),
                lhs, rhs,
                np.zeros(h.m), np.full(h.m, MASS_CAP), 1,
                simplex=False, options=None,
            )
        return self._finish(res)


_engine = LPEngine()


def get_engine() -> LPEngine:
    """The process-wide engine."""
    return _engine
