"""JSON documents for shifts and potentials.

Shift spec:
    {"kind": "bouquet",
     "a": {"form": "geometric", "r": 2}         # or {"form": "ones"}
          | {"form": "list", "values": [...]}   # or {"form": "double_exponential"}
     "truncate_len": 25}
    {"kind": "finite", "matrix": [[0, 1], [1, 1]]}

Potential spec:
    {"memory": 2, "default": 0.0,
     "table": [{"word": ["r", "v(3,1,1)"], "value": -2.0794}],
     "scheme": "bouquet_entry",                 # optional named scheme
     "scheme_params": {"C": 0.8319, "beta": 3.0}}

Named schemes: "bouquet_entry" puts weight log C - n log 2 - beta log n on
the edge out of the root into each loop of length n (and log C on the root
self-loop); "bouquet_exit" puts it on the edge back into the root;
"bouquet_mid" midway along the loop; "bouquet_spread" distributes it along
the first half of the loop.  Unknown keys are rejected everywhere so config
files stay honest.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .families import BouquetSpec, TauSpec, _scheme_fallback
from .potential import Potential
from .shift import (ROOT, BouquetShift, FiniteShift, LoopCountFamily,
                    LoopVertex, Plain, State, TransitionSystem)

__all__ = ["ConfigError", "parse_state", "parse_shift_spec",
           "parse_potential_spec", "load_shift", "load_potential"]


class ConfigError(ValueError):
    """A specification document is malformed."""


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def parse_state(token) -> State:
    """'r' -> root, 'v(n,i,k)' -> loop vertex, integer -> finite state."""
    if isinstance(token, int):
        return Plain(token)
    if not isinstance(token, str):
        raise ConfigError(f"cannot parse state {token!r}")
    t = token.strip()
    if t == "r":
        return ROOT
    if t.startswith("v(") and t.endswith(")"):
        try:
            n, i, k = (int(x) for x in t[2:-1].split(","))
            return LoopVertex(n, i, k)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"cannot parse loop vertex {token!r}") from exc
    try:
        return Plain(int(t))
    except ValueError as exc:
        raise ConfigError(f"cannot parse state {token!r}") from exc


def _integer(value, where: str) -> int:
    """value as a JSON integer; strings, floats and booleans are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def parse_loop_counts(doc: dict) -> LoopCountFamily:
    _check_keys(doc, {"form", "r", "values", "a1"}, "shift spec field 'a'")
    form = doc.get("form")
    a1 = doc.get("a1")
    kw = {"a1": None if a1 is None else _integer(a1, "loop count 'a1'")}
    if form == "geometric":
        kw["ratio"] = _integer(doc.get("r", 2), "geometric ratio 'r'")
    elif form == "list":
        values = doc.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError("list-form loop counts need a non-empty 'values'")
        kw["values"] = tuple(_integer(v, "list-form loop count in 'values'")
                             for v in values)
    elif form not in ("ones", "double_exponential"):
        raise ConfigError(f"unknown loop-count form {form!r}")
    try:
        return LoopCountFamily(form, **kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_shift_spec(doc: dict) -> TransitionSystem:
    if not isinstance(doc, dict):
        raise ConfigError("shift spec must be a JSON object")
    kind = doc.get("kind")
    if kind == "finite":
        _check_keys(doc, {"kind", "matrix"}, "shift spec")
        matrix = doc.get("matrix")
        if not isinstance(matrix, list) or not matrix:
            raise ConfigError("finite shift spec needs a non-empty 'matrix'")
        try:
            return FiniteShift(matrix)
        except ValueError as exc:
            raise ConfigError(f"bad transition matrix: {exc}") from exc
    if kind == "bouquet":
        _check_keys(doc, {"kind", "a", "truncate_len"}, "shift spec")
        if "a" not in doc:
            raise ConfigError("bouquet shift spec needs the loop counts 'a'")
        fam = parse_loop_counts(doc["a"])
        if doc.get("truncate_len") is None:
            raise ConfigError("bouquet shift spec needs 'truncate_len'")
        L = _integer(doc["truncate_len"], "bouquet 'truncate_len'")
        try:
            return BouquetShift(fam, L)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown shift kind {kind!r}")


def _number(value, where: str) -> float:
    """value as a float; NaN is refused, as no weight compares with it (the
    infinities stay allowed)."""
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc
    if math.isnan(x):
        raise ConfigError(f"{where} must not be NaN")
    return x


_SCHEMES = {
    "bouquet_entry": "entry",
    "bouquet_exit": "exit",
    "bouquet_mid": "midpoint",
    "bouquet_spread": "spread",
}


def parse_potential_spec(doc: dict, T: TransitionSystem) -> Potential:
    if not isinstance(doc, dict):
        raise ConfigError("potential spec must be a JSON object")
    _check_keys(doc, {"memory", "default", "table", "scheme", "scheme_params"},
                "potential spec")
    memory = _integer(doc.get("memory", 2), "potential memory")
    default = _number(doc.get("default", 0.0), "potential default")
    entries: dict[tuple, float] = {}
    table = doc.get("table", [])
    if not isinstance(table, list):
        raise ConfigError(f"potential table must be a list of entries, got {table!r}")
    for item in table:
        _check_keys(item, {"word", "value"}, "potential table entry")
        if "word" not in item or "value" not in item:
            raise ConfigError("potential table entries need 'word' and 'value'")
        if not isinstance(item["word"], list):
            raise ConfigError(f"potential table word must be a list of states, "
                              f"got {item['word']!r}")
        word = tuple(parse_state(t) for t in item["word"])
        entries[word] = _number(item["value"], "potential table value")
    fallback = None
    loop_total = None
    scheme = doc.get("scheme")
    if scheme is not None:
        if scheme not in _SCHEMES:
            raise ConfigError(f"unknown potential scheme {scheme!r}; "
                              f"known: {sorted(_SCHEMES)}")
        if not isinstance(T, BouquetShift):
            raise ConfigError("bouquet weight schemes need a bouquet shift")
        params = doc.get("scheme_params", {})
        _check_keys(params, {"C", "beta"}, "potential scheme_params")
        C = _number(params.get("C", 1.0), "scheme constant C")
        beta = _number(params.get("beta", 0.0), "scheme exponent beta")
        if C <= 0:
            raise ConfigError("scheme constant C must be positive")
        # scheme weights: log C - n log 2 - beta log n per loop, log C on the
        # root self-loop (the n = 1 aggregate)
        tau = TauSpec("power", beta=beta, log_C=math.log(C))
        spec = BouquetSpec(T.a, _SCHEMES[scheme], tau, T.truncate_len)
        fallback = _scheme_fallback(spec)
        loop_total = tau
        if memory != 2:
            raise ConfigError("bouquet weight schemes are memory-2")
    try:
        phi = Potential(memory, entries, default, fallback=fallback, system=T)
    except Exception as exc:
        raise ConfigError(f"bad potential table: {exc}") from exc
    # the loop totals hold only when every edge outside the scheme weighs 0
    if loop_total is not None and not entries and default == 0.0:
        phi.loop_total = loop_total
    return phi


def load_shift(path: str | Path) -> TransitionSystem:
    return parse_shift_spec(_load_json(path))


def load_potential(path: str | Path, T: TransitionSystem) -> Potential:
    return parse_potential_spec(_load_json(path), T)


def _load_json(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"spec file {p} does not exist")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {p}: {exc}") from exc
