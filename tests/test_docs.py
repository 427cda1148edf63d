"""Documentation completeness gates.

Every public name must carry a docstring, and the repository's top-level
documents must exist and reference each other — documentation is a
deliverable here, so it gets tests like any other component.
"""

import importlib
import inspect
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC_PACKAGES = [
    "repro",
    "repro.graph",
    "repro.paths",
    "repro.flow",
    "repro.lp",
    "repro.core",
    "repro.baselines",
    "repro.eval",
    "repro.oracle",
    "repro.obs",
    "repro.robustness",
    "repro.online",
    "repro.service",
]


@pytest.mark.parametrize("mod_name", PUBLIC_PACKAGES)
def test_all_public_names_documented(mod_name):
    mod = importlib.import_module(mod_name)
    assert (inspect.getdoc(mod) or "").strip(), f"{mod_name} lacks a docstring"
    missing = []
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (inspect.getdoc(obj) or "").strip():
                missing.append(name)
    assert not missing, f"{mod_name}: undocumented public names {missing}"


@pytest.mark.parametrize(
    "fname",
    ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ALGORITHM.md",
     "docs/API.md", "docs/TESTING.md", "docs/OBSERVABILITY.md",
     "docs/ROBUSTNESS.md", "docs/ONLINE.md", "docs/SERVICE.md"],
)
def test_top_level_documents_exist(fname):
    path = ROOT / fname
    assert path.exists() and path.stat().st_size > 500, f"{fname} missing or stub"


def test_design_lists_every_experiment():
    design = (ROOT / "DESIGN.md").read_text()
    from repro.eval import EXPERIMENTS

    # The per-experiment index must at least mention the core ids (the
    # ablations/stress rows were added later and live in EXPERIMENTS.md).
    for exp_id in ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "F1", "F2"):
        assert exp_id in design, f"DESIGN.md missing experiment {exp_id}"


def test_every_module_has_docstring():
    src = ROOT / "src" / "repro"
    missing = []
    for py in src.rglob("*.py"):
        text = py.read_text()
        stripped = text.lstrip()
        if not stripped:
            continue  # empty __init__ ok
        if not stripped.startswith(('"""', "'''", 'r"""', "#")):
            missing.append(str(py.relative_to(src)))
    assert not missing, f"modules without leading docstring: {missing}"


def test_every_emitted_counter_is_documented():
    """Every counter/gauge/histogram name the code emits must appear in
    docs/OBSERVABILITY.md — the glossary is a deliverable, and telemetry
    nobody can look up is noise. Dynamic families (f-string names) are
    checked by their static prefix."""
    import re

    docs = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    # Expand slash-grouped glossary entries like
    # `online.ops.reweight/add/remove/demand` into full dotted names.
    vocab = set()
    for token in re.findall(r"`([^`\n]+)`", docs):
        parts = token.split("/")
        if "." not in parts[0]:
            continue
        vocab.add(parts[0])
        prefix = parts[0].rsplit(".", 1)[0] + "."
        vocab.update(prefix + p for p in parts[1:])

    call_re = re.compile(
        r'(?:\bobs\.(?:inc|add|gauge)|\bobserve|\badd_counter)\(\s*(f?)"([^"]+)"'
    )
    undocumented = []
    for py in (ROOT / "src" / "repro").rglob("*.py"):
        for is_fstring, name in call_re.findall(py.read_text()):
            if is_fstring:
                name = name.split("{", 1)[0].rstrip(".")
            if name in docs or name in vocab:
                continue
            undocumented.append(f"{py.relative_to(ROOT)}: {name}")
    assert not undocumented, (
        "counters emitted but missing from docs/OBSERVABILITY.md glossary:\n  "
        + "\n  ".join(sorted(set(undocumented)))
    )


def test_doctests_pass():
    """Run doctests embedded in docstrings (executable documentation)."""
    import doctest

    import repro._util.timer as timer_mod

    for mod in (timer_mod,):
        failures, _ = doctest.testmod(mod)
        assert failures == 0, f"doctest failures in {mod.__name__}"
