"""Partition sums, pressure estimates, and recurrence diagnostics.

Two engines produce the weighted periodic-orbit sums Z_n (period-n points
through a base state) and Z*_n (those returning for the first time at step
n): a renewal convolution over per-length return weights, and a transfer DP
over the block graphs of finite systems; cmshift.oracle enumerates the
periodic words as their reference.  On top sit the growth-rate
estimators, the renewal series of closed-form return weights (one root,
the induced values and one recurrence classifier: RenewalSeries), and the
verdict operations: strong positive recurrence, uniform
contraction (chi_per vs pressure, chi_per from an exact maximum cycle mean
pass), compact-return contraction profiles, and witness searches for
the stronger contraction conditions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from operator import add
from typing import TYPE_CHECKING, Sequence

from .numerics import (LOG_ZERO, SeriesBudgetError, TailFit, _ratio, count_push,
                       linear_fit, linear_fit_with_log, logsum_pull, logsumexp,
                       maxplus_push, renewal_row, reverse_edges, tail_window)
from .potential import Potential
from .shift import (DP_STATE_CAP, ROOT, BlockGraphs, BouquetShift, IndexedGraph,
                    LoopVertex, State, TransitionSystem, Word, index_graph)

if TYPE_CHECKING:  # for an annotation only; thermo never loads infinity
    from .infinity import LoopSums

__all__ = [
    "PartitionSums", "PressureEstimate", "SprVerdict", "ChiPerResult",
    "InducedPressure", "RecurrenceClass", "RenewalSeries",
    "CrcProfile", "Witness", "partition_sums_renewal",
    "partition_sums_transfer", "pressure_estimate", "chi_per", "ucs_check",
    "spr_check", "crc_profile", "condition_witness_search",
]


# -- partition sums -------------------------------------------------------------

@dataclass
class PartitionSums:
    """Log-space sequences log Z_n and log Z*_n for 1 <= n <= horizon.

    method is one of 'brute-force', 'renewal-dp', 'transfer-dp',
    'closed-form'.  counts/star_counts carry exact periodic-point counts when
    the engine enumerated or counted words (always for zero potentials).
    """

    base: object
    horizon: int
    log_z: list[float]
    log_zstar: list[float]
    method: str
    counts: list[int] | None = None
    star_counts: list[int] | None = None

    def logz(self, n: int) -> float:
        return self.log_z[n - 1]

    def logzstar(self, n: int) -> float:
        return self.log_zstar[n - 1]


def partition_sums_renewal(log_wstar: Sequence[float], N: int | None = None) -> PartitionSums:
    """Renewal convolution Z_n = sum_{m<=n} Z*_m Z_{n-m} with Z_0 = 1, from
    the log return weights per length (the horizon defaults to their
    number), run in log space with compensated summation.

    A row of more than _WHOLE = 64 terms, all finite and far from
    overflow, sums a head of its first terms and counts the rest once one
    bound shows that each lies at least 2^56 times below the head's largest
    term, where expm1 of their log ratio is exactly -1; the floats are
    numerics.logsumexp's.  Return weights that decay like e^{-Δk} against
    the pressure need about 40/Δ terms a row, a power tail all n.  Every
    other row (LOG_ZERO weights, +-inf, NaN, overflow) runs logsumexp over
    its terms.
    """
    log_wstar = list(log_wstar)
    if N is None:
        N = len(log_wstar)
    if N < 1:
        raise ValueError("horizon must be >= 1")
    if len(log_wstar) < N:
        log_wstar = log_wstar + [LOG_ZERO] * (N - len(log_wstar))
    w = log_wstar[:N]
    # rows count only while the weights and log sums are finite and far from
    # overflow (a LOG_ZERO, NaN or inf weight makes the sum of magnitudes inf
    # or NaN; a row's terms hold every log Z so far)
    counted = N > _WHOLE and sum(map(abs, w)) < _FAR_FROM_OVERFLOW
    wmax = list(accumulate(reversed(w), max))[::-1] if counted else []  # max(w[k:])
    log_Z, zmax = [0.0], [0.0]  # Z_0 = 1; zmax[i] = max(log Z_0..log Z_i)
    h = N
    for n in range(1, N + 1):
        if counted and n > _WHOLE:
            z, h = renewal_row(w, wmax, log_Z, zmax, h)
            if h == n:  # nothing counted: start the next row whole
                h = N
        else:
            # the terms Z*_m Z_{n-m} in the order m = 1..n
            z = logsumexp(map(add, w[:n], reversed(log_Z)))
        log_Z.append(z)
        if counted:
            zmax.append(z if z > zmax[-1] else zmax[-1])
            counted = abs(z) < _FAR_FROM_OVERFLOW
    return PartitionSums("r", N, log_Z[1:], w, "renewal-dp")


# weights and log sums below this add and subtract without overflow
_FAR_FROM_OVERFLOW = 2.0 ** 1020
# rows of at most this many terms are summed whole: on renewal-ones (Δ = log 2)
# a row has terms to count from 57 terms on, and a row of 64 costs about the
# same counted or whole (measured), so the presets' 40-60-term report rows
# skip the bound's set-up
_WHOLE = 64


def partition_sums_transfer(T: TransitionSystem, phi: Potential, a: State,
                            N: int, graphs: BlockGraphs | None = None) -> PartitionSums:
    """Transfer DP over the edges of a finite graph (a finite shift or a
    truncated bouquet): exact log-space Z_n and Z*_n.

    Zero potentials run on integer path counts, so those sums are exact to
    the last bit (counts are attached); weighted sums step log-space vectors
    along the edge weights of the block graph, where a stands for the blocks
    that start with a.  Each step is one numerics.logsum_pull over the
    predecessor lists: entry j is logsumexp of vec[i] + w over the edges
    i -> j in source index order, sources at LOG_ZERO skipped, and entries
    of one to three terms skip the list and fsum without changing a bit
    (the term at the maximum m adds expm1(0) = 0.0, so fsum is one float
    addition of the others).  As in the brute force, a ValueError names the
    least period whose words through a have windows of weight +inf and -inf.
    The graph is read from graphs, those of T and phi, when given.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    exact = phi.is_zero()
    graphs = graphs or BlockGraphs(T, phi, index_graph)
    graph = graphs.graph(DP_STATE_CAP, "transfer DP", 1 if exact else phi.memory)
    nodes = _nodes_of(graph, T, a)
    if exact:
        push, one, zero, total = partial(count_push, graph.succ), 1, 0, sum
    else:
        # each entry sums its terms in source index order, a fixed order
        # that keeps the floats (and the reports) stable
        wsucc = graphs.weighted(graph)
        one, zero, total = 0.0, LOG_ZERO, logsumexp
        n = _undefined_period(wsucc, nodes, N)
        if n is not None:
            raise ValueError(f"the weight of a period-{n} word through {a!r} is "
                             "undefined: its windows weigh +inf and -inf")
        push = partial(logsum_pull, reverse_edges(wsucc))
    # Z_n sums the entries (u, u) of the n-th power of the (counting or
    # log-space) transfer matrix over the nodes u of a, so row u is iterated;
    # vec keeps the walks from u that have not returned to a node of a
    z = zstar = None
    for u in nodes:
        row = vec = [one if j == u else zero for j in range(len(graph.states))]
        zu, zstar_u = [], []
        for _ in range(N):
            row, vec = push(row), push(vec)
            zu.append(row[u])
            zstar_u.append(vec[u])
            for x in nodes:
                vec[x] = zero
        z = zu if z is None else [total(t) for t in zip(z, zu)]
        zstar = zstar_u if zstar is None else [total(t) for t in zip(zstar, zstar_u)]
    if not exact:
        return PartitionSums(a, N, z, zstar, "transfer-dp")
    log_z = [math.log(c) if c else LOG_ZERO for c in z]
    log_zstar = [math.log(c) if c else LOG_ZERO for c in zstar]
    return PartitionSums(a, N, log_z, log_zstar, "transfer-dp", z, zstar)


def _undefined_period(wsucc, nodes, N: int) -> int | None:
    """The least n <= N with a closed n-step walk from one of nodes back to
    itself over edges of weight +inf and -inf, or None: a boolean sweep over
    (node, saw +inf, saw -inf), run only when both kinds of edge exist."""
    kinds = {w for js in wsucc for _, w in js}
    if math.inf not in kinds or -math.inf not in kinds:
        return None
    least = None
    for u in nodes:
        reach = {(u, False, False)}
        for n in range(1, N + 1 if least is None else least):
            reach = {(j, up or w == math.inf, down or w == -math.inf)
                     for i, up, down in reach for j, w in wsucc[i]}
            if (u, True, True) in reach:
                least = n
                break
    return least


# -- pressure -------------------------------------------------------------------

# fewest terms of a log-sequence that the pressure and SPR tail fits accept
MIN_FIT_TERMS = 5


@dataclass(frozen=True)
class PressureEstimate:
    """Tail-fit growth rate of a log-sequence, with residual-based uncertainty."""

    value: float
    intercept: float
    stderr: float
    resid_max: float
    window: tuple[int, int]
    all_zero: bool = False

    @property
    def uncertainty(self) -> float:
        span = max(1, self.window[1] - self.window[0])
        return self.stderr + 2.0 * self.resid_max / span


def pressure_estimate(ps: PartitionSums | Sequence[float]) -> PressureEstimate:
    """Estimate lim (1/n) log Z_n by a linear fit over the second half of the
    horizon (numerics.tail_window).

    A term log Z_n = +inf makes the pressure +inf, with nothing fitted.
    Sums with a finite log Z_n at exactly one n fit no slope over any window;
    when 2n is past the horizon they raise a ValueError naming n, since every
    period-n point is one of period 2n, so Z_2n > 0 and a longer horizon
    fits.  Within the horizon, a log Z_2n of -inf was lost to the float
    range, and the estimate stays the degenerate fit's.
    """
    seq = ps.log_z if isinstance(ps, PartitionSums) else list(ps)
    N = len(seq)
    if N < MIN_FIT_TERMS:
        raise ValueError(f"pressure estimation needs at least {MIN_FIT_TERMS} terms")
    if math.inf in seq:
        return PressureEstimate(math.inf, 0.0, math.inf, math.inf, (1, N))
    if all(v == LOG_ZERO for v in seq):
        return PressureEstimate(LOG_ZERO, 0.0, math.inf, math.inf, (1, N), True)
    finite = [n for n, v in enumerate(seq, 1) if math.isfinite(v)]
    if len(finite) == 1 and 2 * finite[0] > N:
        raise ValueError(f"only n = {finite[0]} of 1..{N} has a finite log Z_n, "
                         "and one length fits no pressure")
    win = tail_window(N)
    fit = linear_fit(list(win), [seq[n - 1] for n in win])
    if fit.degenerate:
        fit = linear_fit(range(1, N + 1), seq)
    return PressureEstimate(fit.slope, fit.intercept, fit.stderr, fit.resid_max,
                            fit.window)


# -- chi_per and UCS --------------------------------------------------------------

@dataclass(frozen=True)
class ChiPerResult:
    value: float
    period: int
    orbit: Word | None


def chi_per(T: TransitionSystem, phi: Potential, N: int,
            graphs: BlockGraphs | None = None) -> ChiPerResult:
    """Supremum of periodic Birkhoff averages over periods <= N.

    On bouquets with per-loop total weights attached, the maximum is taken
    exactly over simple loops (orbit averages are convex combinations of
    simple-loop averages).  Otherwise the weights sit on the edges of the
    state graph or the block graph, become integers over one power-of-two
    denominator, and every comparison below is exact: a periodic orbit is a
    closed walk, and its average is a mean edge weight.

    The winner is the closed walk of at most N edges with the largest exact
    mean; an exact tie goes to the shorter period, then to the first node
    (in state order, then lexicographic block order), and the word is read
    off from that node by taking the first successor that stays optimal.
    Its value is its exact sum rounded once, then divided by the period, as
    math.fsum of its periodic Birkhoff sum would give, or +-inf past the
    float range.

    Two routes find it, and they give the same answer.  The maximum cycle
    mean of the whole graph and the shortest period p of a cycle reaching
    it come from one Karp pass (_critical_cycle), O(blocks x edges); when
    p <= N that cycle is the winner, replayed from its first node for p
    steps.  Otherwise every cycle of at most N edges averages less, and one
    max-plus program per anchor runs instead, anchors x N x edges: the
    closed walks through each node of each anchor at every period (the
    (a, a) entries of the n-th max-plus power), filled and scanned one
    anchor at a time, keeping only the leader's tables.  The per-anchor
    program also runs first where it is the cheaper, when the anchor nodes
    times N are fewer than the blocks; only a bouquet, whose root is its
    only anchor, reaches that.

    Edges of weight -inf or nan are dropped (walks over them never score
    above -inf).  An edge of weight +inf weighs more than every finite walk
    of the graph's cycle lengths: a walk with a larger share of +inf edges
    has the larger mean, one with a +inf edge reads +inf, and walks with the
    same share compare by their finite edges.  The graph is read from
    graphs, those of T and phi, when given.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    if isinstance(T, BouquetShift) and phi.loop_total is not None:
        best, best_n = -math.inf, 0
        for n in T.loop_lengths():
            if n > N:
                continue
            avg = phi.loop_total(n) / n
            if avg > best:
                best, best_n = avg, n
        orbit = _loop_word(best_n) if best_n else None
        return ChiPerResult(best, best_n, orbit)
    graphs = graphs or BlockGraphs(T, phi, index_graph)
    graph = graphs.graph(DP_STATE_CAP, "max-plus chi_per", phi.memory)
    blocks = len(graph.states)
    weighted = graphs.weighted(graph)
    ratios = {w: w.as_integer_ratio() for js in weighted for _, w in js
              if -math.inf < w < math.inf}
    den = max((d for _, d in ratios.values()), default=1)
    exact = {w: num * (den // d) for w, (num, d) in ratios.items()}
    top = max(map(abs, exact.values()), default=0)
    # no walk of at most N finite edges sums past bound, and one +inf edge
    # does; the finite parts of two cycles of at most L = max(N, blocks)
    # edges, cross-multiplied, differ by at most 2 L^2 top, so the larger
    # share of +inf edges always has the larger mean
    bound = N * top
    exact[math.inf] = 2 * max(N, blocks) ** 2 * top + 1
    # edges of weight -inf or nan have no key: they are dropped
    succ = [[(j, exact[w]) for j, w in js if w in exact] for js in weighted]
    pred = reverse_edges(succ)
    # the nodes of each anchor state: every orbit of a bouquet passes the
    # root, which comes first in state order, so the root is its only anchor
    groups = list(map(range, graph.starts, graph.starts[1:]))
    if isinstance(T, BouquetShift):
        groups = groups[:1]
    win = None
    if sum(map(len, groups)) * N >= blocks:
        critical = _critical_cycle(succ)
        if critical is None:
            return ChiPerResult(-math.inf, 0, None)
        n, u = critical
        if n <= N:
            win = n, u, _closing_walks(pred, u, n)
    if win is None:
        win = _best_closing_walk(pred, groups, N)
    if win is None:
        return ChiPerResult(-math.inf, 0, None)
    n, u, g = win
    value = math.inf if g[n][u] > bound else _ratio(g[n][u], den) / n
    word, i = [u], u
    for k in range(n, 1, -1):
        i = next(j for j, w in succ[i]
                 if g[k - 1][j] != LOG_ZERO and g[k - 1][j] + w == g[k][i])
        word.append(i)
    return ChiPerResult(value, n, tuple(graph.states[i][0] for i in word))


def _closing_walks(pred, u: int, N: int) -> list[list]:
    """g[k][i], k <= N: the best sum of a k-edge walk from node i to u."""
    g = [[0 if i == u else LOG_ZERO for i in range(len(pred))]]
    for _ in range(N):
        g.append(maxplus_push(pred, g[-1]))
    return g


def _best_closing_walk(pred, groups, N: int):
    """(n, u, g) of the closed walk of at most N edges with the largest mean
    through the nodes of groups, one anchor's nodes per group, or None: the
    first largest closed walk of each (anchor, period) is a candidate, and
    a candidate replaces the leader when its mean is greater, or equal at a
    shorter period."""
    best, win = 0, None
    for nodes in groups:
        closing = [(u, _closing_walks(pred, u, N)) for u in nodes]
        for n in range(1, N + 1):
            u, g = max(closing, key=lambda t: t[1][n][t[0]])
            s = g[n][u]
            if s == LOG_ZERO:
                continue
            # s / n against best / win[0], exactly; a tie to the shorter period
            if win is None or (s * win[0], -n) > (best * n, -win[0]):
                best, win = s, (n, u, g)
    return win


def _critical_cycle(succ) -> tuple[int, int] | None:
    """(p, u) for the graph of integer edge weights succ: p is the shortest
    length of a cycle of maximum mean, and u the first node on such a cycle
    of length p; None for a graph without cycles.

    Karp's theorem (Karp 1978, "A characterization of the minimum cycle
    mean in a digraph") gives the maximum mean lam from the best k-edge walk
    sums D_k(v) into each node v from anywhere (D_0 = 0, a super-source, so
    graphs that are not strongly connected work too): lam is the maximum
    over v with D_B(v) finite of the minimum over k < B of
    (D_B(v) - D_k(v)) / (B - k), B the number of nodes.  D_B is filled
    first and the rows D_k are filled again after it, so two passes of B
    pushes hold O(B) numbers, and the fractions are compared by
    cross-multiplication.  Under the weights w d - c, lam = c / d, no cycle
    is positive; the edges that the longest walks from the super-source
    make tight carry exactly the cycles of mean lam, and a breadth-first
    search over them from each node in index order finds the shortest.
    """
    B = len(succ)
    last = [0] * B
    for _ in range(B):
        last = maxplus_push(succ, last)
    ends = [v for v in range(B) if last[v] != LOG_ZERO]
    if not ends:
        return None
    # least[v] = (c, d): the least (D_B(v) - D_k(v)) / (B - k) so far, from D_0 = 0
    least = {v: (last[v], B) for v in ends}
    row = [0] * B
    for k in range(1, B):
        row = maxplus_push(succ, row)
        d = B - k
        for v in ends:
            if row[v] != LOG_ZERO:
                c, m = last[v] - row[v], least[v]
                if c * m[1] < m[0] * d:
                    least[v] = c, d
    c, d = least[ends[0]]
    for m in least.values():
        if m[0] * d > c * m[1]:
            c, d = m
    g = math.gcd(c, d)
    c, d = c // g, d // g
    scaled = [[(j, w * d - c) for j, w in js] for js in succ]
    # longest walks from the super-source, label-correcting in FIFO order
    pot, queued = [0] * B, [True] * B
    queue = deque(range(B))
    while queue:
        i = queue.popleft()
        queued[i] = False
        for j, w in scaled[i]:
            if pot[i] + w > pot[j]:
                pot[j] = pot[i] + w
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)
    tight = [[j for j, w in js if pot[i] + w == pot[j]] for i, js in enumerate(scaled)]
    best = None
    for u in range(B):
        seen, frontier, n = {u}, [u], 0
        while frontier and (best is None or n + 1 < best[0]):
            n += 1
            reached = []
            for i in frontier:
                for j in tight[i]:
                    if j not in seen:
                        seen.add(j)
                        reached.append(j)
                    elif j == u:
                        best = n, u
            if best is not None and best[1] == u:
                break
            frontier = reached
    return best


def _nodes_of(graph: IndexedGraph, T: TransitionSystem, a: State) -> range:
    """The nodes of graph that stand for the state a: the blocks that start with a."""
    i = T.order_index(a)
    return range(graph.starts[i - 1], graph.starts[i])


def _loop_word(n: int, i: int = 1) -> Word:
    if n == 1:
        return (ROOT,)
    return (ROOT,) + tuple(LoopVertex(n, i, k) for k in range(1, n))


# the verdict bands around P: UCS on chi_per, SPR on the slope of log Z*_n
UCS_BAND = 1e-9
SPR_BAND_CLOSED_FORM = 1e-6


def _band_verdict(x: float, P: float, band: float) -> str:
    """'holds' below P - band, 'fails' within band of P, and 'inconclusive'
    above it (or for a NaN)."""
    if x < P - band:
        return "holds"
    if abs(x - P) <= band:
        return "fails"
    return "inconclusive"


def ucs_check(chi: float, P: float) -> str:
    """'holds' iff the periodic supremum sits below the pressure by more than
    UCS_BAND; a pressure of +inf or -inf leaves it inconclusive."""
    return _band_verdict(chi, P, UCS_BAND) if math.isfinite(P) else "inconclusive"


# -- SPR ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SprVerdict:
    verdict: str  # 'holds' | 'fails' | 'inconclusive'
    slope: float
    pressure: float
    tol: float
    reason: str | None = None  # why the verdict reads without the band


def spr_check(log_zstar: Sequence[float], P: float, finite_support: bool = False,
              reason: str | None = None) -> SprVerdict:
    """Verdict on limsup (1/n) log Z*_n < P.

    The slope comes from a least-squares fit of log Z*_n against {1, n, log n}
    on the tail half, so polynomial prefactors do not bias the rate (power-law
    sequences fit slope 0 exactly).  The verdict is the band rule of
    ucs_check with tol = SPR_BAND_CLOSED_FORM: holds when slope < P - tol,
    fails when |slope - P| <= tol, inconclusive otherwise.  A pressure of
    +inf or -inf leaves nothing to compare with: the verdict is inconclusive.
    Return weights that vanish eventually, in the tail window or past a
    finite table (finite_support), have limsup -inf: the verdict holds.

    A reason says why the verdict holds whatever the slope: it then holds
    on every finite P, with tol 0, and the slope is only a cross-check.  A
    finite graph is one.  A closed walk through the anchor's blocks never
    leaves their strongly connected class C, so Z*_n counts walks in C
    without those blocks: a proper principal submatrix of an irreducible
    matrix, whose Perron root is strictly below C's (Gurevich-Savchenko
    1998; Sarig 2001).
    """
    if len(log_zstar) < MIN_FIT_TERMS:
        raise ValueError(f"SPR check needs at least {MIN_FIT_TERMS} terms")
    tol = 0.0 if reason else SPR_BAND_CLOSED_FORM
    if not math.isfinite(P):
        return SprVerdict("inconclusive", math.nan, P, tol, "the pressure is not finite")
    N = len(log_zstar)
    win = list(tail_window(N))
    finite_in_tail = sum(1 for n in win if math.isfinite(log_zstar[n - 1]))
    if finite_support or finite_in_tail == 0:
        # the return weights vanish eventually: the limsup is -infinity
        slope = LOG_ZERO
    else:
        if finite_in_tail < 3:
            win = list(range(1, N + 1))
        ys = [log_zstar[n - 1] for n in win]
        slope = linear_fit_with_log(win, ys).slope \
            if sum(1 for y in ys if math.isfinite(y)) >= 3 else math.nan
    verdict = "holds" if reason else _band_verdict(slope, P, tol)
    return SprVerdict(verdict, slope, P, tol, reason)


# -- the renewal equation ---------------------------------------------------------------

# a return series within this relative band of 1 reads as 1: at the boundary
# it leaves the pressure at log_x and the family recurrent
SERIES_BAND = 1e-9
# InducedPressure.spr: the value delta at pstar counts as positive above this
# band, which absorbs the closed forms' float noise
DELTA_BAND = 1e-9


@dataclass(frozen=True)
class InducedPressure:
    """Value of log sum_k e^{kp} Z*_k at a given shift p, with the critical
    shift pstar = sup{p : finite} and the value delta at pstar."""

    value: float
    pstar: float
    delta: float
    p: float

    @property
    def spr(self) -> bool:
        """delta > DELTA_BAND."""
        return self.delta > DELTA_BAND


@dataclass(frozen=True)
class RecurrenceClass:
    """Recurrence mode plus the two defining series behind the verdict.

    kind is one of 'transient', 'null-recurrent', 'positive-recurrent' or
    'strongly-positive-recurrent'.  return_sum is sum e^{-nP} Z*_n
    (recurrent iff it reaches 1) and mean_return is sum n e^{-nP} Z*_n
    (positive recurrence iff finite; None for a transient family).
    """

    kind: str
    pressure: float
    return_sum: float
    mean_return: float | None


class RenewalSeries:
    """The renewal equation sum_k w*_k e^{-kP} = 1 of a closed-form tail
    (families.GeometricTail, PowerTail or FiniteTail: log_series, log_mean
    and the boundary shift log_x), and what is read from it: the pressure,
    the induced values and the recurrence class.  The series at the
    boundary is summed once per object and read by all three, and the
    pressure is solved once per object.
    """

    def __init__(self, tail):
        self.tail = tail

    @cached_property
    def at_boundary(self) -> float:
        return self.tail.log_series(self.tail.log_x)

    def log_series(self, p: float) -> float:
        return self.at_boundary if p == self.tail.log_x else self.tail.log_series(p)

    @cached_property
    def pressure(self) -> float:
        """The root P of g(p) = log_series(p) = 0, or the boundary log_x
        when the series there is at most 1 (within SERIES_BAND).

        g is a log-sum-exp of affine functions of p, so it is convex and
        decreasing, with slope -exp(log_mean - log_series).  Newton steps
        start at the right end of a doubling bracket from newton_start;
        after at most one step they approach the root from the left without
        overshooting.  A step that leaves the bracket, or is longer than
        half the step before last, bisects instead, and so does every step
        after the slope's series first fails to converge.  The root is
        returned once a step is shorter than 1e-15 * max(1, |p|).  A root
        above 1e6 raises ValueError, and so does a root so close to log_x
        that the series runs out of terms before its partial sum decides a
        sign.
        """
        tail, logx = self.tail, self.tail.log_x
        if self.at_boundary <= SERIES_BAND:
            return logx

        def g(p: float) -> float:
            try:
                return tail.log_series(p)
            except SeriesBudgetError as exc:
                # a partial sum is a lower bound of the series, so it places
                # p left of the root (g > 0) only once it reaches 1
                if exc.log_partial <= 0.0:
                    raise ValueError(
                        f"pressure root out of reach: at p = {p:.6g} {exc}, and its "
                        f"partial sum leaves the sign of log C + log Li open") from None
                return math.inf
            except ValueError:
                return math.inf  # at/past the boundary

        def log_mean(p: float) -> float:
            try:
                return tail.log_mean(p)
            except ValueError:
                return math.inf  # the slope's series is too slow

        lo, hi = logx, tail.newton_start
        gp = g(hi)
        while gp > 0:
            lo, hi = hi, max(1.0, 2.0 * hi)
            if hi > 1e6:
                raise ValueError("pressure root escaped the search interval")
            gp = g(hi)
        p = hi
        last = before = hi - lo  # the last two step lengths
        newton = True
        for _ in range(200):
            if gp == 0.0:
                return p
            nxt = math.nan
            if newton and math.isfinite(gp):
                lm = log_mean(p)
                newton = math.isfinite(lm)
                nxt = p + gp * math.exp(gp - lm)  # p - g/g'
            if not (lo < nxt < hi and abs(nxt - p) <= 0.5 * before):
                nxt = 0.5 * (lo + hi)
            before, last = last, abs(nxt - p)
            p = nxt
            if last < 1e-15 * max(1.0, abs(p)):
                return p
            gp = g(p)
            if gp > 0:
                lo = p
            else:
                hi = p
        return p

    def induced(self, p: float = 0.0) -> InducedPressure:
        """log sum_k e^{kp} w*_k at the shift p; pstar is -log_x and delta
        the series there."""
        # 0.0 - x, not -x: a boundary at 0 gives pstar 0.0, never -0.0
        return InducedPressure(self.log_series(-p), 0.0 - self.tail.log_x,
                               self.at_boundary, p)

    def classify(self, P: float | None = None) -> RecurrenceClass:
        """The recurrence class at the pressure P (the root when None): after
        normalizing P to zero, transient when the return series is below 1,
        null-recurrent when the mean return series diverges, and strongly
        positive recurrent when P lies above the boundary, where the return
        weights decay exponentially below the pressure."""
        P = self.pressure if P is None else P
        total = math.exp(self.log_series(P))
        if total < 1.0 - SERIES_BAND:
            return RecurrenceClass("transient", P, total, None)
        mean = math.exp(self.tail.log_mean(P))
        if not math.isfinite(mean):
            return RecurrenceClass("null-recurrent", P, total, mean)
        if self.tail.log_x - P < -SERIES_BAND:
            return RecurrenceClass("strongly-positive-recurrent", P, total, mean)
        return RecurrenceClass("positive-recurrent", P, total, mean)


# -- compact-return contraction profile --------------------------------------------------

@dataclass(frozen=True)
class CrcProfile:
    """Maximal Birkhoff sums over words pinned to the low part, with the
    least affine majorant of the tail."""

    s: list[float]  # s[n-1] = max S_n over (n+k)-words with x_0, x_n low
    C_q: float
    lambda_q: float
    q: int
    verdict: bool  # lambda_q > P
    pressure: float
    fit: TailFit


def crc_profile(T: TransitionSystem, phi: Potential, q: int, N: int,
                P: float = 0.0, loop_sums: LoopSums | None = None,
                graphs: BlockGraphs | None = None) -> CrcProfile:
    """Profile s(n) = max S_n phi over words whose x_0 and x_n have order
    index <= q, plus the fitted affine majorant C_q - n*lambda_q.

    S_n of a potential of memory m is read on the (n+k)-words, k =
    max(m - 1, 1): the n-step walks of the k-block graph.

    lambda_q is minus the tail-fit slope of s; C_q is then the least constant
    majorizing every tail point.  The verdict reports lambda_q > P.
    A fit window with low-to-low words of finite weight at fewer than two
    lengths has no slope and is a ValueError.

    On a bouquet at q = 1, loop_sums may be infinity.best_loop_sums of T,
    phi and N: when that fill stopped before its last column, its settled
    column is s, bit for bit (the same max-plus rule over the same float
    additions), and the recurrence below does not run.  A table that ran to
    its last column is not read, and a table of another N is a ValueError.
    The recurrence reads its graph from graphs, those of T and phi, when
    given.
    """
    if q < 1 or N < 1:
        raise ValueError("q and N must be >= 1")
    if loop_sums is not None and loop_sums.N != N:
        raise ValueError(f"loop sums for N = {loop_sums.N} cannot serve a crc profile of N = {N}")
    s = None if loop_sums is None or q != 1 else loop_sums.settled()
    if s is None:
        s = _max_birkhoff_low_to_low(T, phi, q, N, graphs)
    win = list(tail_window(N))
    fit = linear_fit(win, [s[n - 1] for n in win])
    if fit.degenerate:
        found = "no low-to-low word of finite weight" if fit.n_points == 0 else \
            "low-to-low words of finite weight at only one length"
        raise ValueError(f"{found} in the fit window n = {win[0]}..{win[-1]}")
    lam = 0.0 - fit.slope  # a flat profile gives 0.0, never -0.0
    cq = max(s[n - 1] + n * lam for n in win if math.isfinite(s[n - 1]))
    return CrcProfile(s, cq, lam, q, lam > P, P, fit)


def _max_birkhoff_low_to_low(T, phi, q, N, graphs: BlockGraphs | None = None) -> list[float]:
    if isinstance(T, BouquetShift) and q == 1 and phi.loop_total is not None:
        best = [LOG_ZERO] * (N + 1)
        best[0] = 0.0
        # each loop total read once, in the order of the lengths' first use
        # (at m = k, from best[0])
        taus = [(k, phi.loop_total(k)) for k in T.loop_lengths() if k <= N]
        for m in range(1, N + 1):
            # the rule of maxplus_push: the first strictly greatest sum, from
            # LOG_ZERO, so a NaN (+inf + -inf) never wins
            best[m] = max([c for k, tau in taus if k <= m and (c := tau + best[m - k]) == c],
                          default=LOG_ZERO)
        return best[1:]
    graphs = graphs or BlockGraphs(T, phi, index_graph)
    graph = graphs.graph(DP_STATE_CAP, "contraction profile DP", phi.memory)
    wsucc = graphs.weighted(graph)
    lo = graph.low(q)
    dp = [0.0 if i < lo else LOG_ZERO for i in range(len(graph.states))]
    out = []
    for _ in range(N):
        dp = maxplus_push(wsucc, dp)
        out.append(max(dp[:lo]))
    return out


# -- condition witness searches -----------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    word: Word
    n: int
    value: float
    bound: float
    condition: str


def condition_witness_search(T: TransitionSystem, phi: Potential, cond: str,
                             q: int, C: float, eps: float, N: int) -> Witness | None:
    """Search for a word violating S_n phi <= C - n*eps under a contraction
    condition's endpoint constraints.

    cond 'A': the landing state x_n lies in the low part; 'B': the starting
    state x_0 does; 'C': all of x_0..x_{n-1} lie outside it.  For a
    potential of memory m, S_n is a sum over the (n+k)-words, k =
    max(m - 1, 1), so the n-step walks of the k-block graph are searched,
    for 1 <= n <= N, with each rule read on the first symbol of a node.  The
    first witness (smallest n, then maximal value) is returned as its
    (n+k)-word, or None when the horizon is clean.  Ties go to the word
    whose last k symbols come first in state-order lexicographic order, then
    to the earliest x_{n-1}, x_{n-2}, ... in turn.
    """
    if cond not in ("A", "B", "C"):
        raise ValueError("condition must be 'A', 'B' or 'C'")
    if N < 1 or q < 1:
        raise ValueError("q and N must be >= 1")
    graph = index_graph(T, DP_STATE_CAP, "witness DP", phi.memory)
    wsucc = graph.weighted(phi)
    S, lo = len(graph.states), graph.low(q)
    low = [i < lo for i in range(S)]
    anywhere, outside = [True] * S, [not b for b in low]
    start_ok, interior_ok, end_ok = {"A": (anywhere, anywhere, low),
                                     "B": (low, anywhere, anywhere),
                                     "C": (outside, outside, anywhere)}[cond]
    dp = [0.0 if start_ok[i] else LOG_ZERO for i in range(S)]
    parent: list[dict[int, int]] = [{}]
    for n in range(1, N + 1):
        # the sources already met the start/interior constraint of their
        # position; the parent of each state is its first optimal source
        par: dict[int, int] = {}
        nxt = maxplus_push(wsucc, dp, par)
        parent.append(par)
        bound = C - n * eps
        best_j, best_v = None, LOG_ZERO
        for j in range(S):
            if end_ok[j] and nxt[j] > bound and nxt[j] > best_v:
                best_j, best_v = j, nxt[j]
        if best_j is not None:
            word_idx = [best_j]
            for step in range(n, 0, -1):
                word_idx.append(parent[step][word_idx[-1]])
            word_idx.reverse()
            word = tuple(graph.states[i][0] for i in word_idx[:-1]) + graph.states[best_j]
            return Witness(word, n, best_v, bound, cond)
        # positions beyond the start must satisfy the interior constraint
        dp = [nxt[j] if interior_ok[j] else LOG_ZERO for j in range(S)]
    return None
