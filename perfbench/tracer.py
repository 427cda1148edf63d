"""Layer spans recorded from outside the program.

:class:`LayerTracer` replaces the bindings through which the solver calls
each layer's public functions with timing wrappers, and restores them on
exit. All wrappers share one span stack, so a layer's *self* time is its
span duration minus the time of the wrapped spans nested inside it
(``aux_provider`` -> ``build_aux_shifted`` is counted once, under the
outer call). Nothing inside ``src/`` is modified.

Most call sites use ``from``-imports, so a wrapper has to sit on the
*calling* module's binding, not on the defining module. The binding table
below names every such site; :meth:`LayerTracer.cross_check` compares the
wrapper counts against the program's own counters so a wrapper left on a
stale binding fails loudly instead of silently measuring nothing.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: (module, attribute path, layer). An attribute path with a dot patches a
#: class attribute; a ``[key]`` suffix patches a dict entry.
BINDINGS = (
    ("repro.lp.engine", "LPEngine.solve_ratio", "lp.ratio"),
    ("repro.lp.engine", "LPEngine.solve_flow", "lp.flow"),
    ("repro.core.krsp", "has_k_disjoint_paths", "flow"),
    ("repro.core.krsp", "min_cost_k_flow", "flow"),
    ("repro.core.krsp", "decompose_flow", "flow"),
    ("repro.core.phase1", "min_cost_k_flow", "flow"),
    ("repro.core.phase1", "decompose_flow", "flow"),
    ("repro.core.phase1", "strip_improving_cycles", "flow"),
    ("repro.core.cancellation", "decompose_flow", "flow"),
    ("repro.core.cancellation", "strip_improving_cycles", "flow"),
    ("repro.core.phase1", "PROVIDERS[lp_rounding]", "core.phase1"),
    ("repro.core.krsp", "cancel_to_feasibility", "core.cancellation"),
    ("repro.online.engine", "cancel_to_feasibility", "core.cancellation"),
    ("repro.core.verify", "verify_solution", "core.verify"),
    ("repro.core.cancellation", "find_bicameral_cycle", "core.search"),
    ("repro.core.search", "build_aux_shifted", "core.auxgraph"),
    ("repro.perf.auxcache", "build_aux_shifted", "core.auxgraph"),
    ("repro.perf.engine", "IncrementalSearch.aux_provider", "core.auxgraph"),
    ("repro.core.search", "find_negative_cycle", "paths.bellman_ford"),
    ("repro.core.cancellation", "build_residual", "core.residual"),
    ("repro.perf.engine", "build_residual", "core.residual"),
    ("repro.perf.engine", "IncrementalSearch.residual_for", "core.residual"),
    ("repro.perf.engine", "IncrementalSearch.apply_reweight", "core.residual"),
    ("repro.perf.engine", "IncrementalSearch.remove_edges", "core.residual"),
    ("repro.perf.engine", "IncrementalSearch.add_edges", "core.residual"),
    ("repro.core.krsp", "solve_krsp", "core.krsp"),
    ("repro.online.engine", "solve_krsp", "core.krsp"),
    ("repro.online.engine", "resolve", "online.engine"),
)

#: Every layer the tracer reports, in display order.
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in BINDINGS))


class CrossCheckError(RuntimeError):
    """Wrapper counts disagree with the program's own counters."""


class LayerTracer:
    """Install with ``with LayerTracer() as tr:``; read the totals after."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.cancel_iterations = 0
        self.cancel_raised = 0
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def _wrap(self, layer: str, fn):
        stack = self._stack
        is_cancel = layer == "core.cancellation"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = not any(frame[0] == layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if is_cancel:
                    self.cancel_raised += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.self_s[layer] += dt - frame[1]
                if outermost:
                    self.calls[layer] += 1
                if stack:
                    stack[-1][1] += dt
            if is_cancel:
                self.cancel_iterations += out.iterations
            return out

        return wrapper

    def __enter__(self) -> "LayerTracer":
        for module_name, path, layer in BINDINGS:
            owner = importlib.import_module(module_name)
            if "[" in path:
                name, key = path[:-1].split("[")
                table = getattr(owner, name)
                original = table[key]
                table[key] = self._wrap(layer, original)
                self._restore.append((table.__setitem__, key, original))
                continue
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(layer, original))
            self._restore.append((functools.partial(setattr, owner), attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    def cross_check(self, counters: dict[str, int]) -> None:
        """Raise :class:`CrossCheckError` when a wrapper missed calls."""
        problems = []
        for layer, counter in (
            ("lp.ratio", "lp.ratio_lp.solves"),
            ("lp.flow", "lp.flow_lp.solves"),
        ):
            if self.calls[layer] != counters.get(counter, 0):
                problems.append(
                    f"{layer} calls {self.calls[layer]} != "
                    f"{counter} {counters.get(counter, 0)}"
                )
        counted = counters.get("cancellation.iterations", 0)
        # Iterations of a cancellation call that raised (a warm resolve
        # stalling into its cold fallback) reach the counter but not the
        # wrapper, which only sees returned results.
        if self.cancel_iterations > counted or (
            self.cancel_raised == 0 and self.cancel_iterations != counted
        ):
            problems.append(
                f"core.cancellation iterations {self.cancel_iterations} "
                f"(+{self.cancel_raised} raised calls) != "
                f"cancellation.iterations {counted}"
            )
        if problems:
            raise CrossCheckError("; ".join(problems))
