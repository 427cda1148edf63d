"""The benchmark's layer tracer still installs on the current program.

``perfbench/tracer.py`` wraps solver functions by module and attribute
name (its ``BINDINGS`` table) and restores them on exit. A rename or
deletion in ``src/`` that one of those names points at breaks
``perfbench/run.py --trace`` without failing anything else in the suite,
so this test enters and exits the tracer the way the benchmark does.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module_name: str, path: str):
    """The current object behind one ``BINDINGS`` entry."""
    owner = importlib.import_module(module_name)
    if "[" in path:
        name, key = path[:-1].split("[")
        return getattr(owner, name)[key]
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner.__dict__[attr]


def test_layer_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    try:
        originals = [_resolve(mod, path) for mod, path, _ in tracer.BINDINGS]
        with tracer.LayerTracer():
            for (mod, path, _), original in zip(tracer.BINDINGS, originals):
                wrapped = _resolve(mod, path)
                assert wrapped is not original, f"{mod}:{path} not wrapped"
                assert wrapped.__wrapped__ is original, f"{mod}:{path}"
        for (mod, path, _), original in zip(tracer.BINDINGS, originals):
            assert _resolve(mod, path) is original, f"{mod}:{path} not restored"
    finally:
        sys.modules.pop("tracer", None)
