"""Spans around cmshift's public functions, installed from outside.

`Tracer.install()` wraps every public function of each layer module and
rebinds the wrapper at every module attribute that holds the original
(`cmshift.thermo.chi_per`, its `cmshift.chi_per` re-export, the
`periodic_points` that `from .shift import periodic_points` copied into
thermo, ...), so calls between layers go through it.  A span records (name, parent, start, end); spans live in flat
arrays in memory until `take()` hands a round's worth to the caller.
Nothing in cmshift itself changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "specio", "families", "numerics", "thermo", "infinity", "shift",
          "potential")

# Work counts read from a function's result: name -> (metric, count(result)).
WORK = {
    "shift.periodic_points": ("shift.periodic_points.words", len),
    "shift.enumerate_words": ("shift.enumerate_words.words", len),
    "infinity.hinf_profile": ("infinity.grid_cells", lambda p: len(p.rows)),
    "infinity.delta_profile": ("infinity.grid_cells", lambda p: len(p.rows)),
}


class Spans:
    """One round of spans: parallel arrays, parents as indices (-1 = root)."""

    def __init__(self, names: list[str]):
        self.names = names
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, int] = defaultdict(int)

    def __len__(self) -> int:
        return len(self.name_id)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the durations of its direct children, summed
        per name."""
        child = [0.0] * len(self)
        for i in range(len(self)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(len(self)):
            out[self.names[self.name_id[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for i in self.name_id:
            out[self.names[i]] += 1
        return out

    def inclusive(self, functions, within: str | None = None) -> float:
        """Total duration of the outermost spans named in `functions`,
        optionally only inside the root span named `within`."""
        fset = {self.names.index(f) for f in functions if f in self.names}
        root = self.names.index(within) if within in self.names else None
        total = 0.0
        for i in range(len(self)):
            if self.name_id[i] not in fset:
                continue
            p, top, covered = self.parent[i], i, False
            while p >= 0:
                covered |= self.name_id[p] in fset
                top, p = p, self.parent[p]
            if not covered and (within is None or self.name_id[top] == root):
                total += self.end[i] - self.start[i]
        return total

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            t0 = self.start[0] if len(self) else 0.0
            for i in range(len(self)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


class Tracer:
    """Wraps cmshift's layers and records their spans, one round at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.spans = Spans(self.names)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sp = self.spans
        idx = len(sp.name_id)
        sp.name_id.append(nid)
        sp.parent.append(self._stack[-1])
        sp.end.append(0.0)
        self._stack.append(idx)
        sp.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.spans.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one operation)."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        work = WORK.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if work is not None:
                tracer.spans.work[work[0]] += work[1](out)
            return out

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cmshift.{layer}")
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "cmshift" and not modname.startswith("cmshift."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def take(self) -> Spans:
        """Hand over the spans recorded so far and start a fresh buffer."""
        done, self.spans = self.spans, Spans(self.names)
        return done
