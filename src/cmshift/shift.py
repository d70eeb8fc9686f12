"""Transition systems for countable Markov shifts.

States, admissible words, ordered enumeration, periodic points, shortest
connectors, and path counting between low-index states.  Two realizations are
provided: finite 0/1 transition matrices and bouquets of simple loops attached
to a single root (always held with an explicit truncation of the loop
lengths).  All systems are immutable after construction and every enumeration
is deterministic, ordered by the state-order bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

from .numerics import count_push

__all__ = [
    "ShiftError", "UnknownStateError", "EnumerationRefusal", "ConnectorNotFound",
    "Root", "LoopVertex", "Plain", "ROOT", "State", "Word",
    "LoopCountFamily", "TransitionSystem", "FiniteShift", "BouquetShift",
    "WordEnumeration", "FPropertyCount", "IndexedGraph",
    "is_admissible", "enumerate_words", "periodic_points",
    "shortest_connector", "f_property_count", "index_graph",
]


class ShiftError(Exception):
    """Base class for shift construction and query errors."""


class UnknownStateError(ShiftError):
    """A state does not belong to the transition system."""


class EnumerationRefusal(ShiftError):
    """An enumeration would be unbounded or exceed its configured cap."""


class ConnectorNotFound(ShiftError):
    """No connecting word was found within the searched horizon."""

    def __init__(self, message: str, horizon: int):
        super().__init__(message)
        self.horizon = horizon


# -- states -------------------------------------------------------------------

@dataclass(frozen=True)
class Root:
    """The root vertex of a bouquet."""

    def __repr__(self) -> str:
        return "r"


@dataclass(frozen=True)
class LoopVertex:
    """Interior vertex k of the i-th simple loop of length n (1 <= k <= n-1)."""

    loop_len: int
    loop_index: int
    position: int

    def __post_init__(self):
        if self.loop_len < 2:
            raise ValueError("loops of length < 2 have no interior vertices")
        if not 1 <= self.position <= self.loop_len - 1:
            raise ValueError("loop position must lie in [1, loop_len-1]")
        if self.loop_index < 1:
            raise ValueError("loop index is 1-based")

    def __repr__(self) -> str:
        return f"v({self.loop_len},{self.loop_index},{self.position})"


@dataclass(frozen=True)
class Plain:
    """State of a finite-matrix shift, indexed from 1."""

    index: int

    def __repr__(self) -> str:
        return str(self.index)


ROOT = Root()
State = Union[Root, LoopVertex, Plain]
Word = tuple  # tuple[State, ...]


# -- loop count families -------------------------------------------------------

_DOUBLE_EXP_CAP = 32


@dataclass(frozen=True)
class LoopCountFamily:
    """Number of simple loops per length: the a(n) of a bouquet.

    form is one of 'ones', 'geometric', 'list', 'double_exponential'.  For the
    geometric form a(n) = ratio**n, with an optional override of a(1) so the
    family stays graph-realizable (a simple graph carries at most one
    self-loop at the root).
    """

    form: str
    ratio: int = 2
    values: tuple = ()
    a1: int | None = None

    def __post_init__(self):
        if self.form not in ("ones", "geometric", "list", "double_exponential"):
            raise ValueError(f"unknown loop-count form {self.form!r}")
        if self.form == "geometric" and self.ratio < 1:
            raise ValueError("geometric ratio must be >= 1")
        if self.form == "list" and any(v < 0 for v in self.values):
            raise ValueError("loop counts must be non-negative")

    def count(self, n: int) -> int:
        if n < 1:
            return 0
        if self.a1 is not None and n == 1:
            return self.a1
        if self.form == "ones":
            return 1
        if self.form == "geometric":
            return self.ratio ** n
        if self.form == "list":
            return int(self.values[n - 1]) if n <= len(self.values) else 0
        if n > _DOUBLE_EXP_CAP:
            raise EnumerationRefusal(
                f"double-exponential loop counts beyond n={_DOUBLE_EXP_CAP} are not materialized")
        return 2 ** (2 ** n)

    def support(self, up_to: int) -> list[int]:
        return [n for n in range(1, up_to + 1) if self.count(n) >= 1]

    def growth_rate(self) -> float:
        """limsup (1/n) log a(n); for finite lists, the max over the support."""
        import math
        if self.form == "ones":
            return 0.0
        if self.form == "geometric":
            return math.log(self.ratio)
        if self.form == "double_exponential":
            return math.inf
        best = float("-inf")
        for n in range(1, len(self.values) + 1):
            c = self.count(n)
            if c >= 1:
                best = max(best, math.log(c) / n)
        return best


# -- transition systems ---------------------------------------------------------

_BRANCH_CAP = 200_000


class TransitionSystem:
    """Immutable directed-graph carrier of a Markov shift.

    Subclasses provide ordered successor sets, a state-order bijection onto
    1..state_count, and membership tests.  All operations are pure, so
    concurrent reads are safe.
    """

    kind: str = "abstract"

    def contains(self, s: State) -> bool:
        raise NotImplementedError

    def require(self, s: State) -> None:
        if not self.contains(s):
            raise UnknownStateError(f"state {s!r} does not belong to this system")

    def successors(self, s: State) -> tuple[State, ...]:
        raise NotImplementedError

    def has_edge(self, u: State, v: State) -> bool:
        raise NotImplementedError

    def order_index(self, s: State) -> int:
        raise NotImplementedError

    def state_of_order(self, idx: int) -> State:
        raise NotImplementedError

    def state_count(self) -> int:
        raise NotImplementedError

    def states_up_to(self, q: int) -> list[State]:
        q = min(q, self.state_count())
        return [self.state_of_order(i) for i in range(1, q + 1)]

    def states(self) -> Iterator[State]:
        for i in range(1, self.state_count() + 1):
            yield self.state_of_order(i)


class FiniteShift(TransitionSystem):
    """Shift over a finite 0/1 transition matrix; states are Plain(1..n).

    The matrix must define a topologically transitive shift (every row
    non-empty and every ordered pair of states connected by a path).
    """

    kind = "finite"

    def __init__(self, matrix: Sequence[Sequence[int]]):
        n = len(matrix)
        if n == 0:
            raise ValueError("empty transition matrix")
        for row in matrix:
            if len(row) != n:
                raise ValueError("transition matrix must be square")
            if any(x not in (0, 1) for x in row):
                raise ValueError("transition matrix entries must be 0 or 1")
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        self._succ = tuple(
            tuple(Plain(j + 1) for j in range(n) if self.matrix[i][j])
            for i in range(n)
        )
        if any(not s for s in self._succ):
            raise ValueError("every state needs at least one outgoing edge")
        self._check_transitive()

    def _check_transitive(self) -> None:
        n = len(self.matrix)
        for start in range(n):
            seen = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in range(n):
                        if self.matrix[u][v] and v not in seen:
                            seen.add(v)
                            nxt.append(v)
                frontier = nxt
            if len(seen) != n:
                raise ValueError("transition matrix is not topologically transitive")

    def contains(self, s: State) -> bool:
        return isinstance(s, Plain) and 1 <= s.index <= len(self.matrix)

    def successors(self, s: State) -> tuple[State, ...]:
        self.require(s)
        return self._succ[s.index - 1]

    def predecessors(self, s: State) -> tuple[State, ...]:
        self.require(s)
        j = s.index - 1
        return tuple(Plain(i + 1) for i in range(len(self.matrix)) if self.matrix[i][j])

    def has_edge(self, u: State, v: State) -> bool:
        self.require(u)
        self.require(v)
        return bool(self.matrix[u.index - 1][v.index - 1])

    def order_index(self, s: State) -> int:
        self.require(s)
        return s.index

    def state_of_order(self, idx: int) -> State:
        if not 1 <= idx <= len(self.matrix):
            raise UnknownStateError(f"order index {idx} out of range")
        return Plain(idx)

    def state_count(self) -> int:
        return len(self.matrix)


class BouquetShift(TransitionSystem):
    """Bouquet of simple loops at a single root, truncated at a loop length.

    Loops longer than truncate_len are dropped entirely (never partially), so
    the truncated system remains topologically transitive.  The state order
    lists the root first, then loop vertices sorted by (loop length, loop
    index, position).  Graph realization requires a(1) <= 1 because a simple
    graph cannot carry parallel self-loops; families with a(1) >= 2 must be
    handled through their aggregate per-length return weights instead.
    """

    kind = "bouquet"

    def __init__(self, a: LoopCountFamily, truncate_len: int):
        if truncate_len is None or truncate_len < 1:
            raise EnumerationRefusal(
                "a bouquet graph needs a truncation bound; pass truncate_len >= 1")
        if a.count(1) > 1:
            raise ValueError(
                "graph realization needs a(1) <= 1; use the abstract return-weight "
                "route for families with parallel self-loops")
        self.a = a
        self.truncate_len = int(truncate_len)
        self._support = a.support(self.truncate_len)
        if not self._support:
            raise ValueError("bouquet has no loops within the truncation; empty shift")
        # prefix[n] = number of interior vertices of loops of length <= n
        self._prefix = [0] * (self.truncate_len + 1)
        for n in range(2, self.truncate_len + 1):
            self._prefix[n] = self._prefix[n - 1] + a.count(n) * (n - 1)
        self._count = 1 + self._prefix[self.truncate_len]

    def loop_lengths(self) -> list[int]:
        return list(self._support)

    def contains(self, s: State) -> bool:
        if isinstance(s, Root):
            return True
        if isinstance(s, LoopVertex):
            return (2 <= s.loop_len <= self.truncate_len
                    and 1 <= s.loop_index <= self.a.count(s.loop_len))
        return False

    def successors(self, s: State) -> tuple[State, ...]:
        self.require(s)
        if isinstance(s, LoopVertex):
            if s.position < s.loop_len - 1:
                return (LoopVertex(s.loop_len, s.loop_index, s.position + 1),)
            return (ROOT,)
        total = sum(self.a.count(n) for n in self._support if n >= 2)
        if total > _BRANCH_CAP:
            raise EnumerationRefusal(
                f"the root has {total} successors at truncate_len={self.truncate_len}; "
                "use the composition/abstract routes or a smaller truncate_len")
        out: list[State] = []
        if self.a.count(1) >= 1:
            out.append(ROOT)
        for n in self._support:
            if n >= 2:
                out.extend(LoopVertex(n, i, 1) for i in range(1, self.a.count(n) + 1))
        return tuple(out)

    def has_edge(self, u: State, v: State) -> bool:
        self.require(u)
        self.require(v)
        if isinstance(u, LoopVertex):
            if u.position < u.loop_len - 1:
                return (isinstance(v, LoopVertex) and v.loop_len == u.loop_len
                        and v.loop_index == u.loop_index
                        and v.position == u.position + 1)
            return isinstance(v, Root)
        if isinstance(v, Root):
            return self.a.count(1) >= 1
        return isinstance(v, LoopVertex) and v.position == 1

    def order_index(self, s: State) -> int:
        self.require(s)
        if isinstance(s, Root):
            return 1
        base = 1 + self._prefix[s.loop_len - 1]
        return base + (s.loop_index - 1) * (s.loop_len - 1) + s.position

    def state_of_order(self, idx: int) -> State:
        if idx == 1:
            return ROOT
        if not 1 <= idx <= self._count:
            raise UnknownStateError(f"order index {idx} out of range")
        rem = idx - 2
        for n in range(2, self.truncate_len + 1):
            block = self.a.count(n) * (n - 1)
            if rem < block:
                i, k = divmod(rem, n - 1)
                return LoopVertex(n, i + 1, k + 1)
            rem -= block
        raise UnknownStateError(f"order index {idx} out of range")

    def state_count(self) -> int:
        return self._count


# -- indexed graphs ----------------------------------------------------------------

@dataclass(frozen=True)
class IndexedGraph:
    """A transition system listed for the state DPs.

    states[i] is the state of order index i + 1, so the low part of level q
    is the first q indices, and succ[i] lists the indices of the successors
    of states[i] in successor order.
    """

    states: list[State]
    succ: list[list[int]]

    def weighted(self, phi) -> list[list[tuple[int, float]]]:
        """Successor lists carrying the potential's edge weights."""
        return [[(j, phi.edge_weight(u, self.states[j])) for j in js]
                for u, js in zip(self.states, self.succ)]


def index_graph(T: TransitionSystem, cap: int | None = None,
                refusal: str = "") -> IndexedGraph:
    """List T in state order with successor index lists.

    With a cap, a system of more states is refused before any state is
    listed; the refusal text may name {cap} and {states} (the state count).
    """
    if cap is not None and T.state_count() > cap:
        raise EnumerationRefusal(refusal.format(cap=cap, states=T.state_count()))
    states = list(T.states())
    index = {s: i for i, s in enumerate(states)}
    return IndexedGraph(states, [[index[t] for t in T.successors(s)] for s in states])


# -- word operations -------------------------------------------------------------

def is_admissible(T: TransitionSystem, w: Word) -> bool:
    """True iff every consecutive pair of w is an edge of T.

    The empty word is admissible; length-1 words are admissible iff the state
    exists.  Unknown states raise UnknownStateError.
    """
    for s in w:
        T.require(s)
    return all(T.has_edge(w[i], w[i + 1]) for i in range(len(w) - 1))


def _as_predicate(T: TransitionSystem, flt) -> Callable[[State], bool] | None:
    if flt is None:
        return None
    if callable(flt):
        return flt
    if isinstance(flt, (Root, LoopVertex, Plain)):
        target = flt
        return lambda s: s == target
    allowed = set(flt)
    return lambda s: s in allowed


@dataclass(frozen=True)
class WordEnumeration:
    words: tuple[Word, ...]
    exhaustive: bool

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)


def enumerate_words(T: TransitionSystem, length: int, start=None, end=None,
                    limit: int = 100_000) -> WordEnumeration:
    """All admissible words of the given length, in state-order lexicographic
    order, passing the start/end filters, up to `limit` of them.

    Filters may be None, a state, a collection of states, or a predicate.
    The exhaustive flag reports whether the limit cut the enumeration short.
    Systems with unbounded branching raise EnumerationRefusal (from the
    successor materialization) naming the truncation parameter.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    if length < 0:
        raise ValueError("length must be >= 0")
    startp = _as_predicate(T, start)
    endp = _as_predicate(T, end)
    if length == 0:
        empty_ok = startp is None and endp is None
        return WordEnumeration(((),) if empty_ok else (), True)

    if isinstance(start, (Root, LoopVertex, Plain)):
        T.require(start)
        roots: list[State] = [start]
    else:
        if T.state_count() > _BRANCH_CAP:
            raise EnumerationRefusal(
                f"word enumeration over {T.state_count()} states is unbounded "
                "in practice; pass an explicit start state or a smaller "
                "truncate_len")
        roots = [s for s in T.states() if startp is None or startp(s)]

    words: list[Word] = []

    for ridx, first in enumerate(roots):
        stack: list[tuple[Word, int]] = [((first,), 1)]
        while stack:
            word, k = stack.pop()
            if k == length:
                if endp is None or endp(word[-1]):
                    words.append(word)
                    if len(words) >= limit:
                        # pending extensions or untried starts mean a real cut
                        more = bool(stack) or ridx + 1 < len(roots)
                        return WordEnumeration(tuple(words), not more)
                continue
            succ = T.successors(word[-1])
            for s in reversed(succ):
                stack.append((word + (s,), k + 1))
    return WordEnumeration(tuple(words), True)


def periodic_points(T: TransitionSystem, n: int, a: State,
                    max_count: int = 1_000_000) -> list[Word]:
    """Length-n words w with w[0] = a, admissible, and an admissible wrap edge
    w[n-1] -> w[0]; each encodes one periodic point of period n through [a].

    The enumeration is ordered and refuses (EnumerationRefusal) if the result
    would exceed max_count.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    T.require(a)
    out: list[Word] = []
    stack: list[Word] = [(a,)]
    while stack:
        word = stack.pop()
        if len(word) == n:
            if T.has_edge(word[-1], a):
                out.append(word)
                if len(out) > max_count:
                    raise EnumerationRefusal(
                        f"more than {max_count} periodic words of period {n}")
            continue
        for s in reversed(T.successors(word[-1])):
            stack.append(word + (s,))
    out.sort(key=lambda w: tuple(T.order_index(s) for s in w))
    return out


def shortest_connector(T: TransitionSystem, a: State, b: State) -> Word:
    """Minimal-length word w with w[0] = a and w + (b,) admissible.

    Ties are broken toward the state-order lexicographically smallest word.
    Connector lengths are >= 1 even when a == b.
    """
    T.require(a)
    T.require(b)
    if isinstance(T, BouquetShift):
        return _bouquet_connector(T, a, b)
    return _bfs_connector(T, a, b)


def _bfs_connector(T: FiniteShift, a: State, b: State) -> Word:
    n = T.state_count()
    dist = {b: 0}
    frontier = [b]
    while frontier:
        nxt = []
        for v in frontier:
            for u in T.predecessors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    candidates = [1 + dist[s] for s in T.successors(a) if s in dist]
    if T.has_edge(a, b):
        ell = 1
    elif candidates:
        ell = min(candidates)
    else:
        raise ConnectorNotFound(f"{b!r} is unreachable from {a!r}", horizon=n)
    word = [a]
    current = a
    for j in range(1, ell):
        remaining = ell - j
        step = None
        for s in T.successors(current):
            # w_j still needs exactly `remaining` edges to reach b
            if remaining == 1:
                ok = T.has_edge(s, b)
            else:
                ok = dist.get(s, 10 ** 9) == remaining
            if ok:
                step = s
                break
        if step is None:
            raise ConnectorNotFound("connector reconstruction failed", horizon=n)
        word.append(step)
        current = step
    return tuple(word)


def _bouquet_connector(T: BouquetShift, a: State, b: State) -> Word:
    def path_to_root(v: LoopVertex) -> list[State]:
        return [LoopVertex(v.loop_len, v.loop_index, k)
                for k in range(v.position, v.loop_len)]

    def path_from_root(v: LoopVertex) -> list[State]:
        return [ROOT] + [LoopVertex(v.loop_len, v.loop_index, k)
                         for k in range(1, v.position)]

    if isinstance(a, LoopVertex) and isinstance(b, LoopVertex) \
            and (a.loop_len, a.loop_index) == (b.loop_len, b.loop_index) \
            and b.position > a.position:
        return tuple(LoopVertex(a.loop_len, a.loop_index, k)
                     for k in range(a.position, b.position))
    prefix: list[State] = [] if isinstance(a, Root) else path_to_root(a)
    if isinstance(b, Root):
        if not prefix:
            nmin = min(T.loop_lengths())
            if nmin == 1:
                return (ROOT,)
            return tuple([ROOT] + [LoopVertex(nmin, 1, k) for k in range(1, nmin)])
        return tuple(prefix)
    return tuple(prefix + path_from_root(b))


@dataclass(frozen=True)
class FPropertyCount:
    count: int
    overflow: bool
    bound: int


def f_property_count(T: TransitionSystem, q: int, N: int,
                     bound: int = 10 ** 18) -> FPropertyCount:
    """Number of admissible words of length N that start in the low part
    (order index <= q) and admit a continuation by a low state.

    Equivalently: words w in Sigma_N with ord(w[0]) <= q and w + (b,)
    admissible for some b with ord(b) <= q.  On bouquets with q = 1 this is
    the renewal count over loop-length compositions of N.  The overflow flag
    is set when the exact count exceeds `bound`.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if q <= 0:
        return FPropertyCount(0, False, bound)
    if isinstance(T, BouquetShift) and q == 1:
        comp = [0] * (N + 1)
        comp[0] = 1
        lengths = T.loop_lengths()
        for m in range(1, N + 1):
            comp[m] = sum(T.a.count(k) * comp[m - k] for k in lengths if k <= m)
        return FPropertyCount(comp[N], comp[N] > bound, bound)
    graph = index_graph(
        T, 5000, "path counting over {states} states exceeds the cap {cap}; "
        "only the q=1 composition route is available here")
    vec = [int(i < q) for i in range(len(graph.states))]
    for _ in range(N - 1):
        vec = count_push(graph.succ, vec)
    total = sum(c for c, js in zip(vec, graph.succ) if any(j < q for j in js))
    return FPropertyCount(total, total > bound, bound)
