"""JSON (de)serialization for graphs and kRSP instances.

Instances round-trip through a small, versioned, human-diffable JSON schema
so experiment inputs can be pinned in the repository and shared. Weights are
plain JSON integers (arbitrary precision — int64 overflow cannot corrupt a
stored instance).

Untrusted input discipline
--------------------------
Everything read here may come from outside the repository — a user's
``repro solve instance.json``, a fuzz corpus entry, a file that lost half
its bytes to a crashed writer. Deserialization therefore validates *types*
before touching NumPy: a float smuggled into a weight array would be
silently truncated by ``np.array(..., dtype=np.int64)`` (``1.9 -> 1``),
``NaN``/``Infinity`` (which Python's JSON parser happily produces) would
crash deep inside the solver, and integers beyond int64 would overflow.
All such inputs — plus truncated/binary/non-JSON files, wrong top-level
shapes, out-of-range endpoints and terminals — raise the typed
:class:`~repro.errors.InputError`, never a raw ``ValueError`` or a wrong
answer. ``tests/test_io_hardening.py`` fuzzes this contract with
truncated and bit-flipped files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import GraphError, InputError
from repro.graph.digraph import DiGraph

SCHEMA_VERSION = 1

#: int64 bounds — JSON carries arbitrary-precision ints; NumPy does not.
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def _require_dict(data: Any, what: str) -> dict[str, Any]:
    if not isinstance(data, dict):
        raise InputError(f"{what}: expected a JSON object, got {type(data).__name__}")
    return data


def _require_int(value: Any, what: str, *, lo: int | None = None, hi: int | None = None) -> int:
    # bool is an int subclass; a weight of `true` is corruption, not 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what}: expected an integer, got {value!r}")
    if not (_I64_MIN <= value <= _I64_MAX):
        raise InputError(f"{what}: {value} overflows int64")
    if lo is not None and value < lo:
        raise InputError(f"{what}: {value} below minimum {lo}")
    if hi is not None and value > hi:
        raise InputError(f"{what}: {value} above maximum {hi}")
    return value


def _int_array(values: Any, what: str, *, lo: int | None = None, hi: int | None = None) -> np.ndarray:
    if not isinstance(values, list):
        raise InputError(f"{what}: expected a JSON array, got {type(values).__name__}")
    out = np.empty(len(values), dtype=np.int64)
    for i, v in enumerate(values):
        out[i] = _require_int(v, f"{what}[{i}]", lo=lo, hi=hi)
    return out


def graph_to_dict(g: DiGraph) -> dict[str, Any]:
    """Plain-dict form of a graph (schema v1)."""
    return {
        "schema": SCHEMA_VERSION,
        "n": g.n,
        "tail": g.tail.tolist(),
        "head": g.head.tolist(),
        "cost": g.cost.tolist(),
        "delay": g.delay.tolist(),
    }


def graph_from_dict(data: dict[str, Any], *, require_nonnegative: bool = False) -> DiGraph:
    """Inverse of :func:`graph_to_dict`; validates schema *and* content.

    ``require_nonnegative`` is what kRSP *instances* demand of their input
    graph (Definition 2); it stays off by default because the schema is
    not kRSP-specific — a residual graph, say, legitimately carries
    negated weights.
    """
    data = _require_dict(data, "graph")
    if data.get("schema") != SCHEMA_VERSION:
        raise InputError(f"unsupported graph schema: {data.get('schema')!r}")
    for key in ("n", "tail", "head", "cost", "delay"):
        if key not in data:
            raise InputError(f"graph: missing required field {key!r}")
    n = _require_int(data["n"], "graph.n", lo=0)
    tail = _int_array(data["tail"], "graph.tail", lo=0, hi=max(0, n - 1))
    head = _int_array(data["head"], "graph.head", lo=0, hi=max(0, n - 1))
    wlo = 0 if require_nonnegative else None
    cost = _int_array(data["cost"], "graph.cost", lo=wlo)
    delay = _int_array(data["delay"], "graph.delay", lo=wlo)
    if not (len(tail) == len(head) == len(cost) == len(delay)):
        raise InputError(
            "graph: edge arrays must share one length: "
            f"tail={len(tail)} head={len(head)} cost={len(cost)} delay={len(delay)}"
        )
    if "edge_ids" in data:
        # Optional explicit ids: must be exactly a permutation of range(m)
        # (a duplicated or dropped id silently reorders every weight).
        eids = _int_array(data["edge_ids"], "graph.edge_ids", lo=0)
        if len(eids) != len(tail) or len(np.unique(eids)) != len(eids) or (
            len(eids) and int(eids.max()) != len(eids) - 1
        ):
            raise InputError(
                "graph.edge_ids: duplicate or out-of-range edge ids "
                "(must be a permutation of 0..m-1)"
            )
        order = np.argsort(eids)
        tail, head = tail[order], head[order]
        cost, delay = cost[order], delay[order]
    try:
        return DiGraph(n, tail, head, cost, delay)
    except GraphError as exc:
        raise InputError(f"graph: {exc}") from None


def _read_json(path: str | Path, what: str) -> Any:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what} {p}: {exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"{what} {p} is not valid UTF-8 (binary corruption?)") from None
    try:
        return json.loads(text)
    except ValueError as exc:
        raise InputError(f"{what} {p} is not valid JSON: {exc}") from None


def save_graph(g: DiGraph, path: str | Path) -> None:
    """Write a graph as JSON to ``path`` (atomic + durable)."""
    from repro._util.atomicio import atomic_write_json

    atomic_write_json(path, graph_to_dict(g))


def load_graph(path: str | Path) -> DiGraph:
    """Read a graph written by :func:`save_graph`."""
    return graph_from_dict(_read_json(path, "graph file"))


def instance_to_dict(g: DiGraph, s: int, t: int, k: int, delay_bound: int) -> dict[str, Any]:
    """Plain-dict form of a full kRSP instance (graph + query)."""
    return {
        "schema": SCHEMA_VERSION,
        "graph": graph_to_dict(g),
        "s": int(s),
        "t": int(t),
        "k": int(k),
        "delay_bound": int(delay_bound),
    }


def instance_from_dict(data: dict[str, Any]) -> tuple[DiGraph, int, int, int, int]:
    """Inverse of :func:`instance_to_dict`; returns
    ``(graph, s, t, k, delay_bound)``.

    Instance graphs must satisfy Definition 2's nonnegativity; terminals,
    ``k`` and the delay budget are range-checked here so a corrupt file
    fails as :class:`InputError` before any solver code runs.
    """
    data = _require_dict(data, "instance")
    if data.get("schema") != SCHEMA_VERSION:
        raise InputError(f"unsupported instance schema: {data.get('schema')!r}")
    for key in ("graph", "s", "t", "k", "delay_bound"):
        if key not in data:
            raise InputError(f"instance: missing required field {key!r}")
    g = graph_from_dict(data["graph"], require_nonnegative=True)
    hi = max(0, g.n - 1)
    s = _require_int(data["s"], "instance.s", lo=0, hi=hi)
    t = _require_int(data["t"], "instance.t", lo=0, hi=hi)
    k = _require_int(data["k"], "instance.k", lo=1)
    delay_bound = _require_int(data["delay_bound"], "instance.delay_bound", lo=0)
    return g, s, t, k, delay_bound


def save_instance(path: str | Path, g: DiGraph, s: int, t: int, k: int, delay_bound: int) -> None:
    """Write a full instance as JSON to ``path`` (atomic + durable)."""
    from repro._util.atomicio import atomic_write_json

    atomic_write_json(path, instance_to_dict(g, s, t, k, delay_bound))


def load_instance(path: str | Path) -> tuple[DiGraph, int, int, int, int]:
    """Read an instance written by :func:`save_instance`."""
    return instance_from_dict(_read_json(path, "instance file"))
