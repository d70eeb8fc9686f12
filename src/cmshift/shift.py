"""Transition systems for countable Markov shifts.

States, admissible words, shortest connectors, path counting between
low-index states, and the indexed graphs the state DPs run on: the block
graph that carries a potential's weights on its edges.  The word and
periodic-point enumerations that check those DPs are in cmshift.oracle.  Two
realizations are provided: finite 0/1 transition matrices and bouquets of
simple loops attached to a single root (always held with an explicit
truncation of the loop lengths).  All systems are immutable after
construction and every listing is deterministic, ordered by the state-order
bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator, Sequence, Union

from .numerics import count_push

if TYPE_CHECKING:  # for an annotation only
    from .infinity import LoopSums

__all__ = [
    "ShiftError", "UnknownStateError", "EnumerationRefusal",
    "Root", "LoopVertex", "Plain", "ROOT", "State", "Word",
    "LoopCountFamily", "TransitionSystem", "FiniteShift", "BouquetShift",
    "FPropertyCount", "IndexedGraph", "BlockGraphs",
    "is_admissible", "shortest_connector", "f_property_count", "index_graph",
]


class ShiftError(Exception):
    """Base class for shift construction and query errors."""


class UnknownStateError(ShiftError):
    """A state does not belong to the transition system."""


class EnumerationRefusal(ShiftError):
    """An enumeration would be unbounded or exceed its configured cap."""


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

# 2^(2^24) is a 2 MB integer; longer double-exponential counts are refused
_DOUBLE_EXP_CAP = 24


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
        if (self.form == "list" and any(v < 0 for v in self.values)) \
                or (self.a1 is not None and self.a1 < 0):
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


def _distances(adj: Sequence[Sequence[int]], start: int) -> list[int]:
    """Breadth-first edge counts from start over the index lists adj; -1
    where start does not reach."""
    dist = [-1] * len(adj)
    dist[start] = 0
    order = [start]
    for u in order:  # grows as the search reaches new states
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                order.append(v)
    return dist


class TransitionSystem:
    """Immutable directed-graph carrier of a Markov shift.

    Subclasses provide ordered successor sets, a state-order bijection onto
    1..state_count, and membership tests.  All operations are pure, so
    concurrent reads are safe.
    """

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
        succ = [[j for j, x in enumerate(row) if x] for row in self.matrix]
        if not all(succ):
            raise ValueError("every state needs at least one outgoing edge")
        self._pred: list[list[int]] = [[] for _ in range(n)]
        for i, js in enumerate(succ):
            for j in js:
                self._pred[j].append(i)
        # transitive iff state 1 reaches every state and every state reaches it
        if -1 in _distances(succ, 0) or -1 in _distances(self._pred, 0):
            raise ValueError("transition matrix is not topologically transitive")
        self._succ = tuple(tuple(Plain(j + 1) for j in js) for js in succ)

    def contains(self, s: State) -> bool:
        return isinstance(s, Plain) and 1 <= s.index <= len(self.matrix)

    def successors(self, s: State) -> tuple[State, ...]:
        self.require(s)
        return self._succ[s.index - 1]

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
        return self._root_successors

    @cached_property
    def _root_successors(self) -> tuple[State, ...]:
        # built on first request; a refusal stores nothing, so it is raised again
        total = sum(self.a.count(n) for n in self._support if n >= 2)
        if total > _BRANCH_CAP:
            raise EnumerationRefusal(
                f"the root has {total} successors at truncate_len={self.truncate_len}, "
                f"above _BRANCH_CAP = {_BRANCH_CAP}; use the composition/abstract "
                "routes or a smaller truncate_len")
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

    def states(self) -> Iterator[State]:
        """The states in order, without a search per index."""
        yield ROOT
        for n in range(2, self.truncate_len + 1):
            for i in range(1, self.a.count(n) + 1):
                for k in range(1, n):
                    yield LoopVertex(n, i, k)


# -- indexed graphs ----------------------------------------------------------------

@dataclass(frozen=True)
class IndexedGraph:
    """A transition system listed for the state DPs as its k-block graph.

    The nodes are the admissible k-words in state-order lexicographic order,
    succ[i] lists the nodes v with states[i][1:] == v[:-1] in order, and the
    nodes starting with the state of order index i + 1 are starts[i] ..
    starts[i + 1] - 1.  The graph is conjugate to the system by the first
    symbol (Lind-Marcus, Symbolic Dynamics and Coding, 1.4 and 2.3), and a
    potential of memory m <= k + 1 is a weight on its edges.
    """

    states: list
    succ: list[list[int]]
    block: int
    starts: list[int]

    def low(self, q: int) -> int:
        """The number of nodes whose first symbol has order index <= q."""
        return self.starts[min(max(q, 0), len(self.starts) - 1)]

    def weighted(self, phi) -> list[list[tuple[int, float]]]:
        """Successor lists carrying the potential's edge weights: the edge
        u -> v carries the weight of the first phi.memory symbols of
        u + v[-1:]."""
        m = phi.memory
        return [[(j, phi.weight((u + self.states[j][-1:])[:m])) for j in js]
                for u, js in zip(self.states, self.succ)]


# state caps of the DPs over an indexed graph: the profile sweep's best sums
# carry a visit dimension on top of the states, in sparse layers that store a
# state only where it beats every lower layer (its counts pack every visit
# layer into one integer per state), every other DP is linear in them
SWEEP_STATE_CAP = 4000
DP_STATE_CAP = 20_000


def _check_cap(cap: int, dp: str, memory: int, states: int, blocks: int = 0) -> None:
    """Refuse the DP named dp, of at most cap states, on a system of that
    many states, then on its k-block graph of that many blocks, k =
    max(memory - 1, 1)."""
    if states > cap:
        raise EnumerationRefusal(f"{dp} runs on at most {cap} states (this system has {states})")
    if blocks > cap:
        raise EnumerationRefusal(
            f"{dp} runs on at most {cap} states (the {max(memory - 1, 1)}-block graph of "
            f"this system, for a potential of memory {memory}, has {blocks})")


def index_graph(T: TransitionSystem, cap: int, dp: str, memory: int = 1) -> IndexedGraph:
    """List the k-block graph of T, k = max(memory - 1, 1), for the DP named
    dp: the graph on which a potential of that memory is an edge weight.

    A system of more than cap states, or of more than cap admissible
    k-words, is refused before any state or word is listed.
    """
    _check_cap(cap, dp, memory, T.state_count())
    k = max(memory - 1, 1)
    states = list(T.states())
    index = {s: i for i, s in enumerate(states)}
    succ = [[index[t] for t in T.successors(s)] for s in states]
    ends = [1] * len(states)  # admissible words of each length, by last state
    for _ in range(k - 1):
        ends = count_push(succ, ends)
    _check_cap(cap, dp, memory, len(states), sum(ends))
    nodes, starts = [(s,) for s in states], list(range(len(states) + 1))
    for _ in range(k - 1):
        # the (j+1)-words are the edges u -> v of the j-block graph in (u, v)
        # order, so lexicographic; those out of u v are those out of v
        first = list(accumulate(map(len, succ), initial=0))
        edges = [(i, j) for i, js in enumerate(succ) for j in js]
        nodes = [nodes[i] + nodes[j][-1:] for i, j in edges]
        succ = [list(range(first[j], first[j + 1])) for _, j in edges]
        starts = [first[i] for i in starts]
    return IndexedGraph(nodes, succ, k, starts)


class BlockGraphs:
    """The k-block graphs of one system and their successor lists weighted
    by one potential (None for the DPs that only count), each listed by
    index_graph and weighed on first use and then kept: one graph and one
    weighting per block length.  This is the one way a DP reaches a graph:
    graph() is the only caller of index_graph, and it reads the module's
    index_graph at each call, so a spy or a tracer bound there sees every
    listing.

    The DPs of one run share one BlockGraphs of its system and potential,
    and a DP called without one makes its own, so a graph lives as long as
    the run or the call that made it.  A DP asks with its own cap and name;
    a kept graph is refused as index_graph refuses it, by the system's state
    count and then its block count, in the same words.  The graphs and lists
    handed out are shared: no DP changes them.

    On a bouquet whose potential has loop totals, it also keeps the best
    loop sums: one table per horizon N (loop_sums), which the delta grid's
    composition fill and the crc profile both read.
    """

    def __init__(self, T: TransitionSystem, phi) -> None:
        self.system, self.potential = T, phi
        self._graphs: dict[int, IndexedGraph] = {}
        self._weighted: dict[int, list[list[tuple[int, float]]]] = {}
        self._loop_sums: dict[int, LoopSums] = {}

    def graph(self, cap: int, dp: str, memory: int = 1) -> IndexedGraph:
        """The k-block graph, k = max(memory - 1, 1), for the DP named dp
        (index_graph's arguments but the system)."""
        k = max(memory - 1, 1)
        graph = self._graphs.get(k)
        if graph is None:
            graph = self._graphs[k] = index_graph(self.system, cap, dp, memory)
        else:
            _check_cap(cap, dp, memory, self.system.state_count(), len(graph.states))
        return graph

    def weighted(self, graph: IndexedGraph) -> list[list[tuple[int, float]]]:
        """graph.weighted(potential), for a graph of this system."""
        wsucc = self._weighted.get(graph.block)
        if wsucc is None:
            wsucc = self._weighted[graph.block] = graph.weighted(self.potential)
        return wsucc

    def loop_sums(self, N: int, jmax: int) -> LoopSums:
        """The best loop sums of horizon N (infinity.best_loop_sums), filled
        up to visit column jmax at least, or to the column where they
        settled.  A kept table is filled again only when jmax lies beyond
        its last column and it has not settled."""
        sums = self._loop_sums.get(N)
        # a table that ran to its last column has not settled
        if sums is None or sums.jmax < jmax and len(sums.table) > sums.jmax:
            from .infinity import best_loop_sums  # infinity imports this module
            sums = self._loop_sums[N] = best_loop_sums(self.system, self.potential, N, jmax)
        return sums


# -- word operations -------------------------------------------------------------

def is_admissible(T: TransitionSystem, w: Word) -> bool:
    """True iff every consecutive pair of w is an edge of T.

    The empty word is admissible; length-1 words are admissible iff the state
    exists.  Unknown states raise UnknownStateError.
    """
    for s in w:
        T.require(s)
    return all(T.has_edge(w[i], w[i + 1]) for i in range(len(w) - 1))


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
    # T is transitive, so every state has a distance to b; b's is 0, so an
    # edge a -> b gives length 1
    dist = _distances(T._pred, b.index - 1)
    ell = 1 + min(dist[s.index - 1] for s in T.successors(a))
    word = [a]
    for remaining in range(ell - 1, 0, -1):
        # the first successor that still needs exactly `remaining` edges to b
        word.append(next(s for s in T.successors(word[-1])
                         if dist[s.index - 1] == remaining))
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
    """An exact word count, flagged as an overflow above bound."""

    count: int
    bound = 10 ** 18

    @property
    def overflow(self) -> bool:
        return self.count > self.bound


def f_property_count(T: TransitionSystem, q: int, N: int) -> FPropertyCount:
    """Number of admissible words of length N that start in the low part
    (order index <= q) and admit a continuation by a low state.

    Equivalently: words w in Sigma_N with ord(w[0]) <= q and w + (b,)
    admissible for some b with ord(b) <= q.  On bouquets with q = 1 this is
    the renewal count over loop-length compositions of N, run by the
    composition fill's loop recurrence.  The overflow flag is set when the
    exact count exceeds FPropertyCount.bound = 10**18.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if q <= 0:
        return FPropertyCount(0)
    if isinstance(T, BouquetShift) and q == 1:
        from .infinity import _loop_runs, _run_rows  # infinity imports this module
        lengths = [k for k in T.loop_lengths() if k <= N]
        total = _run_rows(_loop_runs(lengths, [T.a.count(k) for k in lengths]), N, 1,
                          lambda row: row)[N]
        return FPropertyCount(total)
    graph = BlockGraphs(T, None).graph(DP_STATE_CAP, "path counting")
    vec = [int(i < q) for i in range(len(graph.states))]
    for _ in range(N - 1):
        vec = count_push(graph.succ, vec)
    total = sum(c for c, js in zip(vec, graph.succ) if any(j < q for j in js))
    return FPropertyCount(total)
