"""Former home of the incremental residual engine; now only bindings.

Each cancellation iteration builds its residual from its own solution with
:func:`repro.core.residual.build_residual`, and no residual outlives the
iteration that built it, so nothing here is constructed or called. The
names below stay importable because the benchmark's layer tracer
(``perfbench/tracer.py``) binds ``repro.perf.engine.build_residual`` and
five ``IncrementalSearch`` methods by name, and fails to install when one
of them is missing.
"""

from repro.core.residual import build_residual


def _retired(*_args, **_kwargs):
    raise NotImplementedError(
        "IncrementalSearch is retired: build each residual with "
        "repro.core.residual.build_residual"
    )


class IncrementalSearch:
    """Binding-only stub; see the module docstring. Never constructed."""

    residual_for = _retired
    aux_provider = _retired
    apply_reweight = _retired
    remove_edges = _retired
    add_edges = _retired


__all__ = ["IncrementalSearch", "build_residual"]
