#!/usr/bin/env python
"""Generate docs/API.md: the public surface with one-line summaries.

Walks the re-exported names of each public subpackage and records the
first docstring line, so the API index can never drift from the code:

    python scripts/build_api_md.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

PACKAGES = [
    ("repro", "Top level"),
    ("repro.graph", "Graph substrate"),
    ("repro.paths", "Shortest-path substrate"),
    ("repro.flow", "Flow substrate"),
    ("repro.lp", "LP / MILP substrate"),
    ("repro.core", "The paper's algorithm"),
    ("repro.baselines", "Comparison baselines"),
    ("repro.eval", "Evaluation harness"),
    ("repro.robustness", "Robustness layer"),
    ("repro.online", "Online re-solving"),
    ("repro.service", "Solve service"),
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.strip().splitlines()[0] if doc.strip() else "(undocumented)"
    return line


def main() -> int:
    out = [
        "# API index",
        "",
        "Generated by `scripts/build_api_md.py` — do not edit by hand.",
        "One line per public name (`__all__`) with its docstring summary;",
        "see the module docstrings and DESIGN.md for the full story.",
        "",
    ]
    for mod_name, title in PACKAGES:
        mod = importlib.import_module(mod_name)
        names = getattr(mod, "__all__", [])
        out.append(f"## `{mod_name}` — {title}")
        out.append("")
        out.append(first_line(mod))
        out.append("")
        out.append("| name | kind | summary |")
        out.append("|---|---|---|")
        for name in names:
            if name.startswith("__"):
                continue
            obj = getattr(mod, name)
            if inspect.isclass(obj):
                kind = "class"
            elif inspect.isfunction(obj):
                kind = "function"
            elif isinstance(obj, dict):
                kind = "registry"
            else:
                kind = type(obj).__name__
            summary = first_line(obj) if kind in ("class", "function") else (
                first_line(obj) if inspect.getdoc(obj) else "—"
            )
            summary = summary.replace("|", "\\|")
            out.append(f"| `{name}` | {kind} | {summary} |")
        out.append("")
    (ROOT / "docs" / "API.md").write_text("\n".join(out) + "\n")
    undocumented = "\n".join(out).count("(undocumented)")
    print(f"docs/API.md written; undocumented public names: {undocumented}")
    return 1 if undocumented else 0


if __name__ == "__main__":
    raise SystemExit(main())
