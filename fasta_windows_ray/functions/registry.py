"""User extension surface: registry of custom window-aggregate UDFs.

The reference has no extension mechanism beyond CLI flags
(main.rs:13-77); the north rule asks for one. A window aggregate is a
quadruple (SURVEY.md §2.7):

    init()              -> state            (per window)
    add(state, row)     -> None             (each turn, in arrival order)
    evict(state, row)   -> None             (inverse of add; kept in the
                                             signature, the engine never
                                             calls it: windows are
                                             computed whole)
    emit(state)         -> scalar           (at window emission)

Registered aggregates run inside the stateful StreamEngine
(state/engine.py) via ``WindowConfig(custom_aggs=[...])``, each adding
one output column named after its registration key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

Row = dict  # keys: ts, turn_uid, role, text, tool


@dataclass(frozen=True)
class WindowAggregate:
    name: str
    init: Callable[[], Any]
    add: Callable[[Any, Row], Any]
    evict: Callable[[Any, Row], Any]
    emit: Callable[[Any], float]


_REGISTRY: dict[str, WindowAggregate] = {}


def register(agg: WindowAggregate) -> None:
    if agg.name in _REGISTRY:
        raise ValueError(f"aggregate {agg.name!r} already registered")
    _REGISTRY[agg.name] = agg


def unregister(name: str) -> None:
    _REGISTRY.pop(name, None)


def get(name: str) -> WindowAggregate:
    return _REGISTRY[name]


def names() -> list[str]:
    return sorted(_REGISTRY)


# --- built-in examples ------------------------------------------------------

def _chars_init():
    return {"n": 0}


def _chars_add(st, row):
    st["n"] += len(row.get("text") or "")
    return st


def _chars_evict(st, row):
    st["n"] -= len(row.get("text") or "")
    return st


register(WindowAggregate("total_text_chars", _chars_init, _chars_add,
                         _chars_evict, lambda st: float(st["n"])))


def _tool_init():
    return {"c": {}}


def _tool_add(st, row):
    t = row.get("tool") or ""
    if t:
        st["c"][t] = st["c"].get(t, 0) + 1
    return st


def _tool_evict(st, row):
    t = row.get("tool") or ""
    if t:
        st["c"][t] -= 1
        if st["c"][t] == 0:
            del st["c"][t]
    return st


register(WindowAggregate("distinct_tools", _tool_init, _tool_add,
                         _tool_evict, lambda st: float(len(st["c"]))))
