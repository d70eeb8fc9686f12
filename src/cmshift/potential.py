"""Locally-constant potentials of finite memory and Birkhoff-sum evaluation.

A potential of memory m assigns a weight (natural-log units) determined by
the first m symbols of a point.  Weights come from an explicit table over
admissible m-words, an optional pattern fallback for families too large to
tabulate, and a default for everything else.  Variations vanish beyond the
memory, so summable variations holds by construction and the distortion
constant is a finite sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .shift import EnumerationRefusal, State, TransitionSystem, Word, is_admissible

__all__ = [
    "PotentialError", "InadmissibleWordError",
    "Potential", "BirkhoffValue", "birkhoff_sum", "connector_constant",
]


class PotentialError(Exception):
    """Base class for potential construction and evaluation errors."""


class InadmissibleWordError(PotentialError):
    """A Birkhoff sum was requested along an inadmissible word or wrap."""


class Potential:
    """Weight function of finite memory, combined additively in log space.

    entries maps length-`memory` admissible words to weights; `fallback` (if
    given) is consulted for windows absent from the table and may return None
    to fall through to `default`.  Instances are immutable in practice: all
    evaluation is pure, so concurrent reads are safe.
    """

    def __init__(self, memory: int, entries: Mapping[Word, float] | None = None,
                 default: float = 0.0,
                 fallback: Callable[[Word], float | None] | None = None,
                 system: TransitionSystem | None = None):
        if memory < 1:
            raise PotentialError("memory must be >= 1")
        self.memory = int(memory)
        self.default = float(default)
        self.entries: dict[Word, float] = {tuple(k): float(v)
                                           for k, v in (entries or {}).items()}
        self.fallback = fallback
        for key in self.entries:
            if len(key) != self.memory:
                raise PotentialError(
                    f"table key {key!r} has length {len(key)}, expected {self.memory}")
            if system is not None:
                from .shift import UnknownStateError
                try:
                    ok = is_admissible(system, key)
                except UnknownStateError:
                    ok = False
                if not ok:
                    raise PotentialError(f"table key {key!r} is not an admissible word")
        # optional bouquet metadata set by family builders:
        self.loop_total: Callable[[int], float] | None = None
        self.loop_support: list[int] | None = None

    def weight(self, window: Word) -> float:
        """Value on the cylinder of a length-`memory` window."""
        w = tuple(window)
        if w in self.entries:
            return self.entries[w]
        if self.fallback is not None:
            v = self.fallback(w)
            if v is not None:
                return v
        return self.default

    def edge_weight(self, u: State, v: State) -> float:
        """Weight that the edge u -> v carries in the edge-weight DPs: the
        window (u,) for memory 1 and (u, v) for memory 2.  Longer memories
        have no edge weights and are refused."""
        if self.memory == 1:
            return self.weight((u,))
        if self.memory == 2:
            return self.weight((u, v))
        raise EnumerationRefusal(
            f"edge-weight DPs need a potential of memory <= 2 (got memory {self.memory})")

    def is_zero(self) -> bool:
        return (self.default == 0.0 and self.fallback is None
                and all(v == 0.0 for v in self.entries.values()))

    def variations(self) -> tuple[float, ...]:
        """Declared variation sequence (var_2, ..., var_memory).

        var_k vanishes for k >= memory.  For k < memory the supremum is taken
        over the explicit table conservatively (the default participates in
        every prefix group), which can only overestimate; the distortion
        constant is used as an upper bound only.
        """
        if self.memory <= 2:
            return ()
        groups: dict[Word, list[float]] = {}
        out = []
        for k in range(2, self.memory):
            groups.clear()
            for word, v in self.entries.items():
                groups.setdefault(word[:k], []).append(v)
            var_k = 0.0
            for vals in groups.values():
                lo = min(vals + [self.default])
                hi = max(vals + [self.default])
                var_k = max(var_k, hi - lo)
            out.append(var_k)
        return tuple(out)

    def distortion(self) -> float:
        """Upper bound on the distortion constant (sum of variations from 2)."""
        return math.fsum(self.variations())


@dataclass(frozen=True)
class BirkhoffValue:
    """A Birkhoff sum with its length and exactness on the carrying cylinder."""

    value: float
    length: int
    exact: bool

    @property
    def average(self) -> float:
        return self.value / self.length if self.length else 0.0


def birkhoff_sum(T: TransitionSystem, phi: Potential, w: Word,
                 mode: str = "cylinder") -> BirkhoffValue:
    """Birkhoff sum of phi along a word.

    mode 'cylinder': the sum of the first len(w) - memory + 1 terms, which is
    constant on the cylinder [w] (exact); shorter words carry an exact empty
    sum.  mode 'periodic': the full length-|w| sum along the periodic
    extension of w, requiring the wrap edge to be admissible.
    """
    if len(w) < 1:
        raise InadmissibleWordError("Birkhoff sums need a non-empty word")
    if not is_admissible(T, w):
        raise InadmissibleWordError(f"word {w!r} is not admissible")
    m = phi.memory
    n = len(w)
    if mode == "periodic":
        if not T.has_edge(w[-1], w[0]):
            raise InadmissibleWordError(f"wrap edge {w[-1]!r} -> {w[0]!r} is not admissible")
        total = math.fsum(
            phi.weight(tuple(w[(i + j) % n] for j in range(m)))
            for i in range(n)
        )
        # cyclic windows must themselves be admissible; they are, because the
        # periodic extension of an admissible word with admissible wrap is a
        # point of the shift.
        return BirkhoffValue(total, n, True)
    if mode != "cylinder":
        raise ValueError(f"unknown mode {mode!r}")
    terms = n - m + 1
    if terms <= 0:
        return BirkhoffValue(0.0, 0, True)
    total = math.fsum(phi.weight(tuple(w[i + j] for j in range(m)))
                      for i in range(terms))
    return BirkhoffValue(total, terms, True)


def connector_constant(T: TransitionSystem, phi: Potential, q: int) -> float:
    """Worst connector weight over the low part of the alphabet.

    For every ordered pair (a, b) of states with order index <= q, takes the
    shortest connector w from a to b and evaluates the exact Birkhoff sum of
    the first len(w) terms on the cylinder [w + (b,)]; returns the minimum.
    Finite by construction (finitely many pairs, finite table).
    """
    from .shift import shortest_connector

    if q < 1:
        raise ValueError("q must be >= 1")
    if phi.memory > 2:
        raise PotentialError(
            "connector constants are exact only for memory <= 2 potentials")
    best = math.inf
    lows = T.states_up_to(q)
    for a in lows:
        for b in lows:
            w = shortest_connector(T, a, b)
            ell = len(w)
            word = w + (b,)
            m = phi.memory
            total = math.fsum(phi.weight(tuple(word[i + j] for j in range(m)))
                              for i in range(ell))
            best = min(best, total)
    return best
