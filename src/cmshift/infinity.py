"""Entropy and contraction at infinity.

Counts the (n+1)-cylinders whose word starts and ends in the low part of the
alphabet (order index <= q) while visiting it rarely, and fits the growth
rates that estimate the entropy at infinity and its weighted analogue.

Counting convention: the low-visit cardinality ranges over the first n
coordinates of the (n+1)-word, i.e. exactly the window where the length-n
Birkhoff sum collects its terms, compared exactly as count * M <= n + 1.
Counts are arbitrary-precision integers; ratios and slopes live in log space.
Both routes fill the whole (n, M) grid of one q at once, carrying per visit
index the pair (count, best Birkhoff sum) up to the largest visit cap
(N + 1) // min(M) a grid can read; cell (n, M) reads the running sum and
maximum over the visit indices up to its cap (n + 1) // M.  Grid values
are positive integers, distinct within the M and within the q list (else a
ValueError).  On bouquets with q = 1 the fill runs over loop-length
compositions (parts = low visits), so large families never enumerate
states.  The loops split into runs of consecutive lengths with geometric
counts a0 * rho**(k - k0), and convolving with a run is the first-order
recurrence of its rational generating function
a0 z^k0 (1 - (rho z)^m) / (1 - rho z), exact in integers, so every count
equals the plain convolution's; it costs a few bigint row operations per
length n however long the run.  The counts of a row are one int of
prefix sums over the visit number, one w-bit slot each, so a cell reads
one slot; counts too wide for that (w above _PACKED_SLOT_BITS) keep one
int per cell in a row of a numpy object array, and one recurrence
(_run_rows) fills both layouts.  The best loop sums are filled one visit
column at a time, column c holding the best over at most c parts, so a
cell reads one entry; each column recomputes only the rows within a loop
length of those the previous column changed, and the fill stops at the
first column that changes none.
Every other system runs one forward state sweep over (low visits so far,
state), pushing its counts with numerics.count_push, and reads each row's
cells as it makes it.  Its counts are packed like the fill's: one int per
state of prefix sums over the visit number, one w-bit slot each, so one
count_push moves every slot and a cell reads one slot of the low states'
sum.  Its best sums keep sparse visit layers: per layer one dict of the
block nodes whose best sum is strictly above every lower layer's there,
pushed in ascending v through one running floor per node, so no entry
that a lower layer matches or beats at its node is stored or pushed
(exact: see _count_B_sweep).
Every q of a grid reads its graphs from one shift.BlockGraphs: the count
graph, the k-block graph and its weighted successor lists, each listed
once and checked against SWEEP_STATE_CAP at every ask.  A report's grid
reads those its run shares with its other DPs; any other grid, and a
single count_B (the one-cell case of the same fill), makes its own.  The
slot width is set once per grid, at its largest q, since the paths from
its low part bound those from every smaller one, and each q's sweep is
handed that int.  profile_pair fits both profiles from one weighted fill
per q.  The
grid stays in columns: the fill and the sweep return per M a list of int
counts and one of z_phi, the grid adds the log-count list once per (M, q),
and the fits, the count diagnostics, rows, cell() and the report writer
read those lists (a profile's Column per (M, q)); CountB is the one cell
of count_B and of the oracle's reference cells.  A bouquet's best loop
sums (best_loop_sums) are kept by the run's shift.BlockGraphs, one table
per N, which its delta fill at q = 1 and its crc profile both read.  The
reference cells, one walk over the words themselves that scores each
word on its own, are in cmshift.oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Sequence

from .numerics import LOG_ZERO, count_push, linear_fit
from .potential import Potential
from .shift import SWEEP_STATE_CAP, BlockGraphs, BouquetShift, IndexedGraph, TransitionSystem

__all__ = [
    "CountB", "InfinityProfile",
    "count_B", "hinf_profile", "delta_profile", "profile_pair",
]


@dataclass(frozen=True)
class CountB:
    count: int
    log_count: float
    z_phi: float | None  # max (1/n) S_n phi over the counted cylinders

    @classmethod
    def empty(cls, with_phi: bool) -> "CountB":
        return cls(0, LOG_ZERO, LOG_ZERO if with_phi else None)

    @classmethod
    def of(cls, count: int, z_phi: float | None) -> "CountB":
        return cls(count, math.log(count) if count else LOG_ZERO, z_phi)


def _slot(row: int, cap: int, width: int) -> int:
    """Slot cap of a row packed in width-bit slots: in a row of prefix sums
    over the visit number, the count with at most cap low visits.  Both
    routes read their packed cells here."""
    return row >> cap * width & ((1 << width) - 1)


# -- composition fill (bouquet, q = 1) --------------------------------------------

def _loop_runs(lengths: Sequence[int],
               counts: Sequence[int]) -> list[tuple[int, int, int, int]]:
    """Split loops (ascending lengths, positive counts) into runs k0..k1 of
    consecutive lengths with a(k) = a0 * rho**(k - k0) for one integer
    rho >= 1, as (k0, k1, a0, rho); every other length is a run of its own
    with rho = 0.

    Stretches are grown left to right while a(k) * a(k-2) == a(k-1)**2, so
    no count is divided until a stretch has three lengths; a pair that
    stops there gives up its first length and starts over from its second.
    A stretch of two lengths stays two single ones.  On the rows of
    _run_rows, ints or object arrays alike, a run costs up to six
    operations per row (rho * W, a0 * rows[n - k0] and its addition, the
    leaving row's product and subtraction, the addition into the row) and
    a single length at most two (its product and its addition), so a run
    is never dearer from three lengths on and cheaper from four.  A
    stretch whose ratio is not an integer has no run in it, since each
    part of it has the same ratio.
    """
    spans: list[list[int]] = []  # [first, last] indices into lengths
    for i, k in enumerate(lengths):
        if spans and lengths[i - 1] == k - 1:
            first, last = spans[-1]
            if last == first or counts[i] * counts[i - 2] == counts[i - 1] ** 2:
                spans[-1][1] = i
                continue
            if last - first == 1:
                spans[-1] = [first, first]
                spans.append([last, i])
                continue
        spans.append([i, i])
    runs = []
    for first, last in spans:
        a0 = counts[first]
        if last - first >= 2 and counts[first + 1] % a0 == 0:
            runs.append((lengths[first], lengths[last], a0, counts[first + 1] // a0))
        else:
            runs.extend((lengths[i], lengths[i], counts[i], 0) for i in range(first, last + 1))
    return runs


# the slot width, in bits, up to which _composition_fill packs its counts:
# the packed rows win below about 500 bits on renewal-ones and below about
# 900 to 1,100 on the sec53 and sec54 families, and lose beyond (README)
_PACKED_SLOT_BITS = 640


def _run_rows(runs: Sequence[tuple[int, int, int, int]], N: int, first, step,
              widest: int | None = None) -> list:
    """Rows 0..N of the loop convolution, rows[0] = first and
    rows[n] = step(sum over loop lengths k <= n of a(k) * rows[n - k]), for
    rows that are Python ints (plain or packed) or numpy object arrays of
    Python ints; a row that no loop length reaches is 0 * first, and with
    widest (int rows only) the rows end at the first one wider than widest
    bits.

    A run k0..k1 of _loop_runs with a(k) = a0 * rho**(k - k0) contributes
    W(n) = sum_{k0 <= k <= k1} a(k) * rows[n - k], and
    W(n) = rho * W(n - 1) + a0 * rows[n - k0] - rho * a(k1) * rows[n - 1 - k1]
    (rows[m] = 0 for m < 0) is the same sum term by term, so a run costs a few
    row operations per row however long it is; each single length adds
    a * rows[n - k].  The arithmetic is exact, so the rows are those of the
    plain convolution.  The windows are updated in place, which on arrays
    changes no stored row: a window starts as the int 0 and becomes a fresh
    array at its first addition, and on arrays step must return a new one.
    """
    # each chain carries its window W(n) and rho * a(k1), the weight of the
    # row that leaves it
    chains = [[k0, k1, a0, rho, a0 * rho ** (k1 - k0 + 1), 0] for k0, k1, a0, rho in runs if rho]
    singles = [(k0, a0) for k0, _, a0, rho in runs if not rho]
    rows = [first]
    for n in range(1, N + 1):
        row = None  # its first term is taken as is: 0 + term would copy the row
        for k, a in singles:
            if k > n:
                break
            term = rows[n - k] if a == 1 else a * rows[n - k]
            row = term if row is None else row + term
        for chain in chains:
            k0, k1, a0, rho, leaving, window = chain
            if n < k0:
                break
            if rho != 1:
                window *= rho
            window += rows[n - k0] if a0 == 1 else a0 * rows[n - k0]
            if n > k1:
                window -= rows[n - 1 - k1] if leaving == 1 else leaving * rows[n - 1 - k1]
            chain[5] = window
            row = window if row is None else row + window
        rows.append(step(0 * first if row is None else row))
        if widest is not None and rows[-1].bit_length() > widest:
            break
    return rows


def _best_sums(lengths: Sequence[int], tau, N: int, jmax: int):
    """The best loop sums by visit column: row c of the array returned holds
    B(n, c), the largest total loop weight over the compositions of n into
    at most c parts, at index L + n (0 <= n <= N) after L = lengths[-1]
    leading LOG_ZERO entries; tau is the column of loop totals of the
    ascending lengths.

    B(0, c) = 0.0, B(n, 0) = LOG_ZERO for n >= 1, and for c >= 1
    B(n, c) = fmax over the lengths k of B(n - k, c - 1) + tau(k), where the
    leading entries make every k > n a LOG_ZERO candidate.  One as_strided
    view of the array gives a column's candidates as one K x rows gather,
    so the fill takes one numpy step per column.  Column c recomputes only
    the rows n >= c from the first row that column c - 1 changed plus the
    shortest length to its last changed row plus the longest (column 1
    counts row 0 as changed), and copies the others from column c - 1: a
    row none of whose inputs changed sees the same candidates as in column
    c - 1, so it gets the same value, and a row n < c has at most n parts
    either way.  Once a column changes no row, every later one equals it, so
    the fill stops there and returns the columns before it (all jmax + 1
    when none stops it); no lengths give column 0 alone.
    """
    import numpy as np
    from numpy.lib.stride_tricks import as_strided

    L = lengths[-1] if lengths else 0
    B = np.empty((jmax + 1, L + N + 1))
    B[0] = LOG_ZERO
    B[0, L] = 0.0
    if not lengths:
        return B[:1]
    # window[c, d, n] = B[c, d + n], so window[c, L - k, n] = B[c, L + n - k]
    stride = B.strides[1]
    window = as_strided(B, (jmax + 1, L + 1, N + 1), (B.strides[0], stride, stride))
    offsets = L - np.array(lengths, dtype=np.intp)
    first = last = 0  # the rows that column c - 1 changed
    with np.errstate(invalid="ignore", over="ignore"):
        for c in range(1, jmax + 1):
            lo, hi = max(c, first + lengths[0]), min(N, last + L)
            if lo > hi:
                return B[:c]
            cand = window[c - 1, offsets, lo:hi + 1]
            cand += tau
            col = np.fmax.reduce(cand, axis=0, initial=LOG_ZERO)
            changed = np.flatnonzero(col != B[c - 1, L + lo:L + hi + 1])
            if not changed.size:
                return B[:c]
            B[c] = B[c - 1]
            B[c, L + lo:L + hi + 1] = col
            first, last = lo + changed[0], lo + changed[-1]
    return B


class LoopSums(NamedTuple):
    """The best loop sums of a bouquet for horizon N (_best_sums), filled up
    to visit column jmax.  shift.BlockGraphs keeps one per N, so a run's
    delta fill at q = 1 and its crc profile read the same table."""

    table: object  # the float64 array of _best_sums
    N: int
    jmax: int

    def settled(self) -> list[float] | None:
        """The best total over all compositions of n, for n = 1..N, when the
        fill stopped at a column that changed nothing: every later column
        equals its last one.  None when the fill ran to column jmax, where
        a row n > jmax may still gain from more parts."""
        if len(self.table) > self.jmax:
            return None
        return self.table[-1, self.table.shape[1] - self.N:].tolist()


def best_loop_sums(T: BouquetShift, phi: Potential, N: int, jmax: int) -> LoopSums:
    """The best loop sums of T's loops no longer than N, weighed by phi's loop
    totals (_best_sums), up to visit column jmax."""
    import numpy as np

    lengths = [k for k in T.loop_lengths() if k <= N]
    tau = np.array([phi.loop_total(k) for k in lengths], dtype=np.float64)[:, None]
    return LoopSums(_best_sums(lengths, tau, N, jmax), N, jmax)


def _composition_fill(T: BouquetShift, phi: Potential | None, M_list: Sequence[int], N: int,
                      graphs: BlockGraphs | None = None) -> dict[int, tuple[list, list]]:
    """The count and z_phi columns of every M, cells n = 1..N, from one fill
    over loop-length compositions: per M the exact int counts and the float
    z_phi (None without a potential).  With a potential the best sums are
    the table of horizon N that graphs, those of T and phi, keep
    (BlockGraphs.loop_sums), asked up to this grid's column jmax, so a
    report fills one table for its fill and its crc profile.

    Root-anchored words decompose into complete loops, and a composition
    with j parts visits the root at position 0 and after every part but the
    last, i.e. j low visits.  cnt[m, j] is the number of compositions of m
    into j parts (each part weighted by its loop count), for j up to the
    largest visit cap jmax = (N + 1) // min(M), and cell (n, M) reads their
    sum over j up to the cap (n + 1) // M and the largest total loop weight
    over the same compositions.  The loops are split by _loop_runs, and row
    n of the counts is sum_k a(k) * cnt[n - k] shifted by one part.

    The counts run twice through _run_rows.  First the plain totals
    T(n) = sum_j cnt[n, j] (T(0) = 1), whose largest value sets the slot
    width w in bits; the pass stops at the first total wider than
    _PACKED_SLOT_BITS, since that one settles the route.  Then, when w is at
    most _PACKED_SLOT_BITS, the packed prefix rows: row n is one int whose
    slot j, at bit j * w, holds S(n, j) = sum_{i <= j} cnt[n, i].  Prefix
    sums over j are linear and S(n, j) = sum_k a(k) * S(n - k, j - 1) with
    S(n, 0) = 0 for n >= 1, so the same recurrences run on these ints from a
    row 0 with a 1 in every slot, and each step is (row << w) & mask.  No
    slot of a sum ever exceeds a total T(n) < 2**w, so no carry crosses a
    slot, and cell (n, M) is the one slot at its cap.  Wider counts, as
    sec54's 2^(2^k) loops give, keep one Python int per cell, where a slot
    would pay w bits for every cell whatever its size: the same recurrences
    run on numpy object rows of jmax + 1 counts, slot j of row n holding
    cnt[n, j], from a row 0 with a 1 in slot 0, and each step shifts a row
    by one part into a new array.  Their prefix sums are then taken in
    place, column by column, in the rows n with (n + 1) // min(M) >= j that
    read column j.  Both are exact, so the counts are the same.

    The best sums are float64: B(n, c) over the compositions of n into at
    most c parts (_best_sums), and cell (n, M) reads B(n, (n + 1) // M).
    This is the running maximum over j <= c of the best sums over exactly j
    parts, each composition scored on its own, bit for bit: a candidate
    B(n - k, c - 1) + tau(k) is the same single float addition, and
    fl(x + t) is monotone in x (a NaN it gives loses as -inf does), so
    adding tau(k) to the best over at most c - 1 parts gives the largest of
    the sums over each number of parts.  np.fmax from LOG_ZERO keeps the
    largest candidate, so NaN never wins, +inf does, and a LOG_ZERO entry
    gives -inf or NaN, so it never wins; hence no best sum is NaN.  Its ties
    are between equal values, which differ at most in the sign of zero, and
    no best sum is -0.0 (they start from +0.0, and x + y is -0.0 only when
    both are), so the maximum is the same in whatever order fmax meets the
    candidates.  A cell with no composition has best sum LOG_ZERO, so
    z_phi = best / n is LOG_ZERO there.  numpy is imported here and in
    best_loop_sums, on the first fill or crc table, so no other route loads
    it.
    """
    import numpy as np

    jmax = (N + 1) // min(M_list)
    lengths = [k for k in T.loop_lengths() if k <= N]
    runs = _loop_runs(lengths, [T.a.count(k) for k in lengths])
    width = max(_run_rows(runs, N, 1, lambda row: row, _PACKED_SLOT_BITS)).bit_length()
    ns = np.arange(1, N + 1)
    caps = {M: (ns + 1) // M for M in M_list}
    if width <= _PACKED_SLOT_BITS:
        mask = (1 << width * (jmax + 1)) - 1
        rows = _run_rows(runs, N, mask // ((1 << width) - 1), lambda row: (row << width) & mask)
        counts = {M: [_slot(rows[n], (n + 1) // M, width) for n in range(1, N + 1)]
                  for M in M_list}
    else:
        # slot j of row n holds cnt[n, j]; prefix sums in place, each column
        # only in the rows whose cap reaches it
        row0 = np.array([1] + [0] * jmax, dtype=object)
        cnt = np.array(_run_rows(runs, N, row0, lambda row: np.concatenate(([0], row[:-1]))))
        for j in range(1, jmax + 1):
            first = max(1, j * min(M_list) - 1)
            cnt[first:, j] += cnt[first:, j - 1]
        counts = {M: cnt[ns, cap].tolist() for M, cap in caps.items()}
    if phi is None:
        return {M: (counts[M], [None] * N) for M in M_list}
    best = (graphs or BlockGraphs(T, phi)).loop_sums(N, jmax).table
    L, top = best.shape[1] - N - 1, len(best) - 1
    return {M: (counts[M], (best[np.minimum(cap, top), L + ns] / ns).tolist())
            for M, cap in caps.items()}


# -- state sweep (finite systems, any q) --------------------------------------------

def _sweep_graphs(graphs: BlockGraphs, phi: Potential | None) -> tuple[IndexedGraph, IndexedGraph]:
    """The graph a sweep counts on, the states, and the potential's k-block
    graph its best sums run on (the states too without a potential), from
    graphs, those of the swept system; SWEEP_STATE_CAP is checked against
    both, before any state is listed."""
    blocks = graph = graphs.graph(SWEEP_STATE_CAP, "profile state sweep",
                                  1 if phi is None else phi.memory)
    if blocks.block > 1:
        graph = graphs.graph(SWEEP_STATE_CAP, "profile state sweep")
    return graph, blocks


def _sweep_width(graphs: BlockGraphs, phi: Potential | None, q: int, N: int) -> int:
    """Bits per visit slot of the packed counts of a sweep of horizon N at
    every q' <= q on the graphs of _sweep_graphs: the width of the most
    n-step paths from the low part of q, n <= N.  The paths from a smaller
    low part are among them, so a grid sets one width at its largest q."""
    graph = _sweep_graphs(graphs, phi)[0]
    lo = graph.low(q)
    paths, bound = [1] * lo + [0] * (len(graph.states) - lo), lo
    for _ in range(N):
        paths = count_push(graph.succ, paths)
        bound = max(bound, sum(paths))
    return bound.bit_length()


def _count_B_sweep(graphs: BlockGraphs, phi: Potential | None, q: int, M_list: Sequence[int],
                   N: int, w: int) -> dict[int, tuple[list, list]]:
    """The count and z_phi columns of every M, cells n = 1..N, from one
    forward sweep over the graphs of _sweep_graphs, with the packed counts
    in w-bit slots (_sweep_width at q, or at a larger q, and N).

    The DP state is (v, i): paths that start in the low part and now sit at
    node i, with v low visits at positions 0..k-1 (the current endpoint
    counts only once the path steps off it).  Each step first moves the low
    nodes' entries up one visit layer, then pushes them along the edges.
    After step n each M reads off the low endpoints with v <= (n + 1) // M.
    v never decreases, so a path beyond the largest cap
    vcap = (N + 1) // min(M) can count for no cell and is dropped.
    Counts run on the states, as cells count (n+1)-cylinders; best sums run
    on the potential's k-block graph, whose n-step walks are the (n+k)-words
    S_n reads, visits and ends read on first symbols.

    The counts are packed state-major (Kronecker substitution) as prefix
    sums, like the composition fill's rows: one int per state holds in its
    w-bit slot v, at bit v * w, the paths there with at most v visits, for
    v = 0..vcap, so the low states start with a 1 in every slot.  Moving
    the low states up a layer is (c << w) & keep, and one count_push of the
    packed vector pushes every slot with one bigint add per edge; both are
    linear and shift the slots alike, so the prefix sums obey the
    recurrence of the layers.  No slot ever exceeds the number of n-step
    paths from the low part, which the width w holds, so no carry
    crosses a slot, and cell (n, M) reads the one slot (n + 1) // M of the
    low states' sum.  Each row's cells are read as it is made and no row is
    kept.

    The best sums keep the visit dimension as sparse layers: one dict per
    visit layer v maps a block node i to the best sum of (v, i), and holds
    it only when it is strictly above every lower layer at node i.  A step
    pushes the non-empty layers in ascending v along the weighted edges
    through one running floor per node, the best sum any lower layer (or
    the same layer, so far) reached there: a candidate is kept only when it
    is strictly above the floor at its target, and then raises it.  So each
    target keeps the maximum of its layer's candidates exactly when that
    maximum beats every lower layer there.  The low nodes' results are
    stored one layer up, the climb of the next step, and those of the top
    layer drop out; the climb moves all the layers of a node alike, so the
    stored entries stay above the lower layers at their nodes.  Dropping
    the others is exact.  Any continuation adds the same visits and the
    same weight to an entry (v, i) and to an entry (v', i), v' < v, with a
    value >= it, float addition rounds monotonically, and every cell that
    admits v + x admits v' + x.  So an entry that beats every lower layer
    at its node is reached only from entries that do the same, which are
    all kept, and has the value of the full dense push bit for bit; any
    other entry of the dense push is one that a lower layer matches or
    beats at its node, and raises no running maximum below.  Every best
    sum starts at +0.0, so none is -0.0 and ties are between equal floats;
    no candidate is NaN above the floor, and +inf ones win; so the maximum
    of a target, and of a layer, does not depend on the order in which the
    entries are visited.  Cell (n, M) reads z_phi = tops[(n + 1) // M] / n,
    tops being the running maximum over v of the low nodes' best sums of
    the layers, which only the stored entries can raise.  A cell with no
    counted word has no block walk either, so its best sum is LOG_ZERO, and
    LOG_ZERO / n is LOG_ZERO.
    """
    graph, blocks = _sweep_graphs(graphs, phi)
    wsucc = None if phi is None else graphs.weighted(blocks)
    S, lo = len(graph.states), graph.low(q)
    blo = blocks.low(q)
    vcap = (N + 1) // min(M_list)
    # cnt[i] packs the prefix counts of the states (v, i); layers[v] maps a
    # block node to the maximal Birkhoff sum of the block walks there, holding
    # only the entries above every lower layer at that node, already climbed
    # for the next push (the low nodes start at layer 1)
    keep = (1 << w * (vcap + 1)) - 1
    cnt = [keep // ((1 << w) - 1)] * lo + [0] * (S - lo)
    layers = ([{}, dict.fromkeys(range(blo), 0.0)] + [{} for _ in range(vcap - 1)])[:vcap + 1]
    counts: dict[int, list[int]] = {M: [] for M in M_list}
    zs: dict[int, list[float]] = {M: [] for M in M_list}
    if wsucc is not None:
        # each node's weighted successors split at the low part: the results
        # at low nodes climb a layer, the others stay in theirs
        lowsucc = [[(j, wt) for j, wt in js if j < blo] for js in wsucc]
        highsucc = [[(j, wt) for j, wt in js if j >= blo] for js in wsucc]
    for n in range(1, N + 1):
        cnt[:lo] = [(c << w) & keep for c in cnt[:lo]]
        cnt = count_push(graph.succ, cnt)
        if wsucc is not None:
            # floor[j]: the best sum at node j over the layers pushed so far
            floor = [LOG_ZERO] * len(wsucc)
            top, tops, nxt = LOG_ZERO, [], [{}]
            for v, layer in enumerate(layers):
                # the low nodes' entries climb a layer (off the top one)
                here, up = nxt[v], {}
                for i, s in layer.items():
                    for j, wt in lowsucc[i]:
                        cand = s + wt
                        if cand > floor[j]:
                            floor[j] = up[j] = cand
                    for j, wt in highsucc[i]:
                        cand = s + wt
                        if cand > floor[j]:
                            floor[j] = here[j] = cand
                if up:
                    top = max(top, max(up.values()))
                nxt.append(up)
                tops.append(top)  # the running best sums over v
            layers = nxt[:vcap + 1]
            for M, col in zs.items():
                col.append(tops[(n + 1) // M] / n)
        low = sum(cnt[:lo])
        for M, col in counts.items():
            col.append(_slot(low, (n + 1) // M, w))
    return {M: (col, [None] * N if wsucc is None else zs[M]) for M, col in counts.items()}


def _composes(T: TransitionSystem, phi: Potential | None, q: int) -> bool:
    """Whether the grid of q is filled over loop-length compositions."""
    return isinstance(T, BouquetShift) and q == 1 \
        and (phi is None or phi.loop_total is not None)


def _grid_cells(T: TransitionSystem, phi: Potential | None, q: int, M_list: Sequence[int],
                N: int, width: int | None = None,
                graphs: BlockGraphs | None = None) -> dict[int, tuple[list, list]]:
    """The count and z_phi columns of one q, per M: a composition fill, or a
    sweep with its counts in width-bit slots (_sweep_width at q when None).
    Both read graphs, those of T (and phi), when given."""
    graphs = graphs or BlockGraphs(T, phi)
    if _composes(T, phi, q):
        return _composition_fill(T, phi, M_list, N, graphs)
    if width is None:
        width = _sweep_width(graphs, phi, q, N)
    return _count_B_sweep(graphs, phi, q, M_list, N, width)


def count_B(T: TransitionSystem, phi: Potential | None, n: int, M: int, q: int) -> CountB:
    """Count length-(n+1) cylinders with low endpoints and rare low visits.

    Returns the exact count, its log, and (when a potential is given) the
    maximum of (1/n) sup S_n phi over the counted cylinders, exact at every
    memory.
    """
    if n < 1 or M < 1:
        raise ValueError("n and M must be >= 1")
    if q <= 0:
        return CountB.empty(phi is not None)
    counts, zs = _grid_cells(T, phi, q, [M], n)[M]
    return CountB.of(counts[-1], zs[-1])


# -- profiles -------------------------------------------------------------------------

class Column(NamedTuple):
    """The cells n = 1..N of one (M, q) of a profile grid, one list each."""

    count: list[int]
    log_count: list[float]
    z_phi: list  # floats, or None in every cell of an unweighted fill


@dataclass
class InfinityProfile:
    """Grid of boundary-cylinder data with per-(M, q) tail fits.

    columns hold one Column per (M, q), q-major in grid order: the counts,
    their logs and the z_phi of n = 1..N, as the fill made them.  table
    joins them into six columns over the whole grid, and rows zips those
    to (n, M, q, count, log_count, z_phi), with z_phi None in the entropy
    profile; a report writes its files from the table.  The headline
    estimate is the fitted slope at the largest grid point (max q, then
    max M), whose reported uncertainty adds half the gap to the
    neighbouring M-slope as a finite-M term.  For the contraction profile
    the estimate is the maximum window value of z_phi at the largest grid
    point.
    """

    kind: str  # 'entropy' | 'contraction'
    columns: dict[tuple[int, int], Column]
    fits: dict
    estimate: float
    uncertainty: float
    window: tuple[int, int]
    monotone_M_violations: list[tuple] = field(default_factory=list)
    pressure: float | None = None
    band: float | None = None
    ci_verdict: str | None = None

    @property
    def table(self) -> list[list]:
        """The six columns of rows, each over every cell of the grid."""
        weighted = self.kind == "contraction"
        table: list[list] = [[] for _ in range(6)]
        for (M, q), (count, log_count, z_phi) in self.columns.items():
            N = len(count)
            for whole, part in zip(table, (range(1, N + 1), repeat(M, N), repeat(q, N), count,
                                           log_count, z_phi if weighted else repeat(None, N))):
                whole += part
        return table

    @property
    def rows(self) -> list[tuple]:
        return list(zip(*self.table))

    def cell(self, n: int, M: int, q: int) -> tuple:
        col = self.columns.get((M, q))
        if col is None or not 1 <= n <= len(col.count):
            raise KeyError((n, M, q))
        return (n, M, q, col.count[n - 1], col.log_count[n - 1],
                col.z_phi[n - 1] if self.kind == "contraction" else None)


# shortest horizon whose fit window has the four points of _profile_window
MIN_PROFILE_HORIZON = 4


def _profile_window(N: int) -> list[int]:
    """The top quarter of 1..N, and at least its last four."""
    return list(range(max(1, min(math.ceil(0.75 * N), N - 3)), N + 1))


def _grid(T, phi, q_list, M_list, N,
          graphs: BlockGraphs | None = None) -> tuple[dict, list]:
    """The columns of a checked grid, filled once per q, and their count
    diagnostics; each log-count column is taken once, here.  Every q reads
    graphs, those of T (and phi), or one BlockGraphs made here, and the
    sweeps share one slot width, set when the first of them starts."""
    if not q_list or not M_list:
        raise ValueError("grids must be non-empty")
    if min(M_list) < 1 or min(q_list) < 1:
        raise ValueError("M and q values must be >= 1")
    if len(set(M_list)) < len(M_list) or len(set(q_list)) < len(q_list):
        raise ValueError("M and q values must be distinct")
    if N < MIN_PROFILE_HORIZON:
        raise ValueError("horizon too small to fit")
    graphs = graphs or BlockGraphs(T, phi)
    columns, width = {}, None
    for q in q_list:
        if width is None and not _composes(T, phi, q):
            # one width for every q: the paths from the largest low part
            width = _sweep_width(graphs, phi, max(q_list), N)
        for M, (count, z_phi) in _grid_cells(T, phi, q, M_list, N, width, graphs).items():
            log_count = [math.log(c) if c else LOG_ZERO for c in count]
            columns[M, q] = Column(count, log_count, z_phi)
    return columns, _count_diagnostics(columns, q_list, M_list, N)


def _count_diagnostics(columns, q_list, M_list, N) -> list[tuple]:
    """Cells whose count grows with M at fixed (n, q), as (n, M_lo, M_hi, q):
    they break the M-monotonicity of the counts."""
    Ms = sorted(M_list)
    return [(n + 1, lo, hi, q) for q in q_list for n in range(N) for lo, hi in zip(Ms, Ms[1:])
            if columns[hi, q].count[n] > columns[lo, q].count[n]]


def hinf_profile(T: TransitionSystem, q_list: Sequence[int],
                 M_list: Sequence[int], N: int,
                 graphs: BlockGraphs | None = None) -> InfinityProfile:
    """Fill the (n, M, q) grid of cylinder counts and fit tail growth rates.

    The per-(M, q) slope is a least-squares fit of log z_n over the top
    quarter of the horizon (the count cap is locally stable there, which a
    half-horizon window is not).  The headline entropy-at-infinity estimate is
    the slope at the largest (q, M); its uncertainty includes the spread to
    the neighbouring M as a finite-M proxy.  A state sweep reads its graph
    from graphs, those of T, when given.
    """
    return _entropy_fit(*_grid(T, None, q_list, M_list, N, graphs=graphs), q_list, M_list, N)


def _entropy_fit(columns, diagnostics, q_list, M_list, N) -> InfinityProfile:
    window = _profile_window(N)
    lo, hi = window[0], window[-1]
    fits = {key: linear_fit(window, col.log_count[lo - 1:hi]) for key, col in columns.items()}
    qmax, Mmax = max(q_list), max(M_list)
    head = fits[(Mmax, qmax)]
    estimate = head.slope
    unc = head.uncertainty
    others = sorted(M_list)
    if len(others) > 1:
        prev = others[-2]
        gap = abs(fits[(prev, qmax)].slope - estimate)
        unc += 0.5 * gap
    if head.degenerate:
        estimate, unc = LOG_ZERO, math.inf
        if not any(columns[Mmax, qmax].count):
            unc = 0.0  # empty at every n: nothing at infinity
    return InfinityProfile("entropy", columns, fits, estimate, unc, (lo, hi), diagnostics)


# the contraction verdict's band around P, beyond the spread of the estimate
CONTRACTION_BAND = 1e-9


def delta_profile(T: TransitionSystem, phi: Potential, q_list: Sequence[int],
                  M_list: Sequence[int], N: int, P: float = 0.0,
                  graphs: BlockGraphs | None = None) -> InfinityProfile:
    """Weighted profile: z_phi grid, contraction-at-infinity estimate, and the
    contraction verdict (estimate + band < P - CONTRACTION_BAND).

    The estimate is the maximum z_phi over the fit window at the largest
    (q, M) grid point; the band is the spread of its finite values.  A
    window with no counted cell (all empty, or NaN) yields the verdict
    'no-evidence' rather than a vacuous pass.  A +inf cell (a Birkhoff sum
    past the float range) is counted: the estimate is +inf, which fails
    against a finite P and is inconclusive against P = +inf.  A state sweep
    reads its graphs, and a bouquet's fill at q = 1 its best loop sums, from
    graphs, those of T and phi, when given.
    """
    return _contraction_fit(*_grid(T, phi, q_list, M_list, N, graphs),
                            q_list, M_list, N, P)


def _contraction_fit(columns, diagnostics, q_list, M_list, N, P) -> InfinityProfile:
    window = _profile_window(N)
    lo, hi = window[0], window[-1]
    fits = {}
    for key, col in columns.items():
        # empty and NaN cells are no evidence; a +inf cell is
        counted = [z for z in col.z_phi[lo - 1:hi] if z > LOG_ZERO]
        finite = [z for z in counted if z < math.inf]
        fits[key] = (max(counted) if counted else LOG_ZERO,
                     (max(finite) - min(finite)) if finite
                     else 0.0 if counted else math.inf)
    qmax, Mmax = max(q_list), max(M_list)
    estimate, band = fits[(Mmax, qmax)]
    if estimate == LOG_ZERO:
        verdict = "no-evidence"
        band = math.inf
    elif estimate + band < P - CONTRACTION_BAND:
        verdict = "holds"
    elif estimate - band > P + CONTRACTION_BAND:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    return InfinityProfile("contraction", columns, fits, estimate,
                           band if math.isfinite(band) else math.inf, (lo, hi),
                           diagnostics, pressure=P, band=band, ci_verdict=verdict)


def profile_pair(T: TransitionSystem, phi: Potential, q_list: Sequence[int],
                 M_list: Sequence[int], N: int, P: float = 0.0,
                 graphs: BlockGraphs | None = None) -> tuple[InfinityProfile, InfinityProfile]:
    """hinf_profile and delta_profile of the same grid, from one weighted fill.

    The entropy profile is fitted from the counts of the delta profile's
    columns: both routes count exactly in integers, so a weighted grid holds
    the counts of the unweighted one even where the two take different
    routes (a bouquet potential without loop totals at q = 1).  Both
    profiles are those the two separate calls return; the count diagnostics
    of the delta profile are those of the entropy one, so they are computed
    once.  graphs is delta_profile's.
    """
    dp = delta_profile(T, phi, q_list, M_list, N, P, graphs)
    return _entropy_fit(dp.columns, dp.monotone_M_violations, q_list, M_list, N), dp
