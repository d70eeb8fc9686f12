"""Partition sums, pressure estimates, and recurrence diagnostics.

Three engines produce the weighted periodic-orbit sums Z_n (period-n points
through a base state) and Z*_n (those returning for the first time at step
n): direct enumeration, a renewal convolution over per-length return weights,
and a transfer DP over finite matrices.  On top of these sit the growth-rate
estimators and the verdict operations: strong positive recurrence, uniform
contraction (chi_per vs pressure), compact-return contraction profiles, and
witness searches for the stronger contraction conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .numerics import (LOG_ZERO, TailFit, count_push, linear_fit,
                       linear_fit_with_log, logsumexp, maxplus_push, tail_window)
from .potential import Potential, birkhoff_sum
from .shift import (ROOT, BouquetShift, EnumerationRefusal, FiniteShift,
                    LoopVertex, State, TransitionSystem, Word, index_graph,
                    periodic_points)

__all__ = [
    "PartitionSums", "PressureEstimate", "SprVerdict", "ChiPerResult",
    "InducedWord", "InducedSystem", "InducedPressure", "RecurrenceClass",
    "CrcProfile", "Witness",
    "analytic_pressure", "partition_sums_bruteforce", "partition_sums_renewal",
    "partition_sums_transfer", "pressure_estimate", "chi_per", "ucs_check",
    "spr_check", "induced_system", "induced_pressure", "recurrence_classify",
    "crc_profile", "condition_witness_search",
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

    def check_star_le_z(self, tol: float = 1e-9) -> bool:
        return all(zs <= z + tol for zs, z in zip(self.log_zstar, self.log_z))


def _first_return(word: Word, a: State) -> bool:
    return all(s != a for s in word[1:])


def partition_sums_bruteforce(T: TransitionSystem, phi: Potential, a: State,
                              N: int, max_count: int = 2_000_000) -> PartitionSums:
    """Exact sums over enumerated periodic words through a, up to horizon N."""
    if N < 1:
        raise ValueError("horizon must be >= 1")
    log_z, log_zstar, counts, star_counts = [], [], [], []
    for n in range(1, N + 1):
        words = periodic_points(T, n, a, max_count=max_count)
        terms = []
        star_terms = []
        stars = 0
        for w in words:
            s = birkhoff_sum(T, phi, w, mode="periodic").value
            terms.append(s)
            if _first_return(w, a):
                star_terms.append(s)
                stars += 1
        log_z.append(logsumexp(terms))
        log_zstar.append(logsumexp(star_terms))
        counts.append(len(words))
        star_counts.append(stars)
    return PartitionSums(a, N, log_z, log_zstar, "brute-force", counts, star_counts)


def partition_sums_renewal(wstar: Sequence[float] | None = None,
                           log_wstar: Sequence[float] | None = None,
                           N: int | None = None,
                           base: object = "r") -> PartitionSums:
    """Renewal convolution Z_n = sum_{m<=n} Z*_m Z_{n-m} with Z_0 = 1.

    Return weights are given per length, either linearly (wstar, all >= 0) or
    in log space; the convolution itself runs in log space with compensated
    summation.
    """
    if (wstar is None) == (log_wstar is None):
        raise ValueError("pass exactly one of wstar / log_wstar")
    if wstar is not None:
        if any(w < 0 for w in wstar):
            raise ValueError("return weights must be non-negative")
        log_wstar = [math.log(w) if w > 0 else LOG_ZERO for w in wstar]
    log_wstar = list(log_wstar)
    if N is None:
        N = len(log_wstar)
    if N < 1:
        raise ValueError("horizon must be >= 1")
    if len(log_wstar) < N:
        log_wstar = log_wstar + [LOG_ZERO] * (N - len(log_wstar))
    log_Z = [0.0]  # Z_0 = 1
    for n in range(1, N + 1):
        log_Z.append(logsumexp(log_wstar[m - 1] + log_Z[n - m]
                               for m in range(1, n + 1)))
    return PartitionSums(base, N, log_Z[1:], log_wstar[:N], "renewal-dp")


def partition_sums_transfer(T: FiniteShift, phi: Potential, a: State,
                            N: int) -> PartitionSums:
    """Transfer DP over a finite matrix: exact log-space Z_n and Z*_n.

    Zero potentials run on integer path counts, so those sums are exact to
    the last bit (counts are attached); weighted sums use log-space matrix
    iteration over edge weights, which a weighted potential of memory >= 3
    does not have (refused).
    """
    if not isinstance(T, FiniteShift):
        raise ValueError("transfer sums need a finite-matrix shift")
    if N < 1:
        raise ValueError("horizon must be >= 1")
    graph = index_graph(T, 128, "transfer DP capped at {cap} states")
    states = graph.states
    S = len(states)
    ai = T.order_index(a) - 1

    # Z_n is entry a of row a of the n-th matrix power, and row a of a power
    # is row a of the previous power times the matrix, so one row is iterated
    if phi.is_zero():
        # row: walks from a; vec: walks from a that have not returned to a
        row = vec = [int(j == ai) for j in range(S)]
        counts, star_counts = [], []
        for _ in range(N):
            row = count_push(graph.succ, row)
            vec = count_push(graph.succ, vec)
            counts.append(row[ai])
            star_counts.append(vec[ai])
            vec[ai] = 0
        log_z = [math.log(c) if c else LOG_ZERO for c in counts]
        log_zstar = [math.log(c) if c else LOG_ZERO for c in star_counts]
        return PartitionSums(a, N, log_z, log_zstar, "transfer-dp",
                             counts, star_counts)

    W = [[phi.edge_weight(u, v) if T.matrix[i][j] else LOG_ZERO
          for j, v in enumerate(states)] for i, u in enumerate(states)]
    log_z, log_zstar = [], []
    log_zstar.append(W[ai][ai])
    row = W[ai][:]
    log_z.append(row[ai])
    vec = [W[ai][j] if j != ai else LOG_ZERO for j in range(S)]
    for n in range(2, N + 1):
        row = [logsumexp(row[k] + W[k][j] for k in range(S)) for j in range(S)]
        log_z.append(row[ai])
        log_zstar.append(logsumexp(vec[j] + W[j][ai] for j in range(S)))
        vec = [logsumexp(vec[k] + W[k][j] for k in range(S)) if j != ai else LOG_ZERO
               for j in range(S)]
    return PartitionSums(a, N, log_z, log_zstar, "transfer-dp")


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


def pressure_estimate(ps: PartitionSums | Sequence[float],
                      window_fraction: float = 0.5) -> PressureEstimate:
    """Estimate lim (1/n) log Z_n by a linear fit over the tail of the horizon."""
    seq = ps.log_z if isinstance(ps, PartitionSums) else list(ps)
    N = len(seq)
    if N < MIN_FIT_TERMS:
        raise ValueError(f"pressure estimation needs at least {MIN_FIT_TERMS} terms")
    if all(v == LOG_ZERO for v in seq):
        return PressureEstimate(LOG_ZERO, 0.0, math.inf, math.inf, (1, N), True)
    win = tail_window(N, window_fraction)
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
            q_cap: int | None = None, max_count: int = 500_000) -> ChiPerResult:
    """Supremum of periodic Birkhoff averages over periods <= N.

    On bouquets with per-loop total weights attached, the maximum is taken
    exactly over simple loops (orbit averages are convex combinations of
    simple-loop averages).  Otherwise the periodic orbits through states of
    order index <= q_cap are searched.  On finite shifts with a potential of
    memory <= 2 the weights sit on edges, so the best closed walk through an
    anchor a at each period n is a max-plus DP (the (a, a) entry of the n-th
    max-plus power, cf. Karp 1978): one candidate per (period, anchor), found
    in polynomial time.  Memory >= 3 potentials and bouquets without loop
    totals enumerate every periodic word instead; finite shifts refuse up
    front when a period has more than max_count words through an anchor.
    Either way the candidates are scored by the same periodic Birkhoff sum
    in the same (period, anchor) order, keeping strictly greater averages
    only, so both routes return the same value and period.
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
    anchors = T.states_up_to(q_cap) if q_cap else list(T.states())
    if isinstance(T, FiniteShift) and phi.memory <= 2:
        words = _best_closed_walks(T, phi, anchors, N)
    else:
        if isinstance(T, FiniteShift):
            _refuse_large_periods(T, anchors, N, max_count)
        words = (w for n in range(1, N + 1) for a in anchors
                 for w in periodic_points(T, n, a, max_count=max_count))
    best, best_w = -math.inf, None
    for w in words:
        avg = birkhoff_sum(T, phi, w, mode="periodic").value / len(w)
        if avg > best:
            best, best_w = avg, w
    return ChiPerResult(best, len(best_w) if best_w else 0, best_w)


def _best_closed_walks(T: FiniteShift, phi: Potential, anchors: list[State],
                       N: int) -> list[Word]:
    """Per period n <= N, then per anchor a: the periodic word through a of
    period n with the largest exact weight sum, state-order first on ties.

    The edge weights become integers over one power-of-two denominator, so
    maxima and ties are those of the exact sums, which math.fsum rounds
    monotonically: the word scores what the best enumerated word of its
    (period, anchor) scores.  g[k][i] is the best sum of a k-edge walk from
    state i to a; the word is read off forwards, taking the first successor
    that stays optimal.  Edges of weight -inf or nan are dropped (walks over
    them never score above -inf), and an edge of weight +inf outweighs every
    finite walk (walks over it score +inf).  The tables are filled by
    max-plus steps along the reversed edges, with LOG_ZERO where no walk
    reaches a.
    """
    graph = index_graph(T)
    states = graph.states
    edges = [(i, j, w) for i, js in enumerate(graph.weighted(phi)) for j, w in js
             if w > -math.inf]  # not -inf, not nan
    ratios = {w: w.as_integer_ratio() for _, _, w in edges if w < math.inf}
    den = max((d for _, d in ratios.values()), default=1)
    exact = {w: num * (den // d) for w, (num, d) in ratios.items()}
    exact[math.inf] = 2 * N * max(map(abs, exact.values()), default=0) + 1
    succ: list[list[tuple[int, int]]] = [[] for _ in states]
    pred: list[list[tuple[int, int]]] = [[] for _ in states]
    for i, j, w in edges:
        succ[i].append((j, exact[w]))
        pred[j].append((i, exact[w]))
    tables = []
    for a in anchors:
        ai = T.order_index(a) - 1
        g = [[0 if i == ai else LOG_ZERO for i in range(len(states))]]
        for _ in range(N):
            g.append(maxplus_push(pred, g[-1]))
        tables.append((ai, g))
    words = []
    for n in range(1, N + 1):
        for ai, g in tables:
            if g[n][ai] == LOG_ZERO:
                continue
            word, i = [ai], ai
            for k in range(n, 1, -1):
                i = next(j for j, w in succ[i]
                         if g[k - 1][j] != LOG_ZERO and g[k - 1][j] + w == g[k][i])
                word.append(i)
            words.append(tuple(states[i] for i in word))
    return words


def _refuse_large_periods(T: FiniteShift, anchors: list[State], N: int,
                          max_count: int) -> None:
    """Raise the refusal periodic_points would raise, before any word is built.

    The periodic words of period n through a number (A^n)[a][a], so the rows
    of the anchors are iterated exactly and the first period in the
    enumeration order with a count above max_count is refused.
    """
    succ = index_graph(T).succ
    idx = [T.order_index(a) - 1 for a in anchors]
    rows = [[int(j == i) for j in range(len(succ))] for i in idx]
    for n in range(1, N + 1):
        rows = [count_push(succ, row) for row in rows]
        if any(row[i] > max_count for row, i in zip(rows, idx)):
            raise EnumerationRefusal(
                f"more than {max_count} periodic words of period {n}")


def _loop_word(n: int, i: int = 1) -> Word:
    if n == 1:
        return (ROOT,)
    return (ROOT,) + tuple(LoopVertex(n, i, k) for k in range(1, n))


def ucs_check(chi: float, P: float, tol: float = 1e-9) -> str:
    """'holds' iff the periodic supremum sits strictly below the pressure."""
    if chi < P - tol:
        return "holds"
    if abs(chi - P) <= tol:
        return "fails"
    return "inconclusive"


# -- SPR ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SprVerdict:
    verdict: str  # 'holds' | 'fails' | 'inconclusive'
    slope: float
    pressure: float
    tol: float
    fit: TailFit | None = None


def spr_check(log_zstar: Sequence[float], P: float, tol: float | None = None,
              closed_form: bool = False) -> SprVerdict:
    """Verdict on limsup (1/n) log Z*_n < P.

    The slope comes from a least-squares fit of log Z*_n against {1, n, log n}
    on the tail half, so polynomial prefactors do not bias the rate (power-law
    sequences fit slope 0 exactly).  Verdict bands: holds when slope < P - tol,
    fails when |slope - P| <= tol, inconclusive otherwise.  Default tolerance
    is 1e-6 for closed-form inputs and 1e-2 for fitted ones.
    """
    if not math.isfinite(P):
        raise ValueError("SPR check needs a finite pressure")
    if len(log_zstar) < MIN_FIT_TERMS:
        raise ValueError(f"SPR check needs at least {MIN_FIT_TERMS} terms")
    if tol is None:
        tol = 1e-6 if closed_form else 1e-2
    N = len(log_zstar)
    win = list(tail_window(N))
    ys = [log_zstar[n - 1] for n in win]
    finite_in_tail = sum(1 for y in ys if math.isfinite(y))
    if finite_in_tail == 0:
        # the return weights vanish eventually: the limsup is -infinity
        return SprVerdict("holds", LOG_ZERO, P, tol, None)
    if finite_in_tail < 3:
        win = list(range(1, N + 1))
        ys = [log_zstar[n - 1] for n in win]
        if sum(1 for y in ys if math.isfinite(y)) < 3:
            return SprVerdict("inconclusive", math.nan, P, tol, None)
    fit = linear_fit_with_log(win, ys)
    slope = fit.slope
    if slope < P - tol:
        verdict = "holds"
    elif abs(slope - P) <= tol:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    return SprVerdict(verdict, slope, P, tol, fit)


# -- induced system ------------------------------------------------------------------

@dataclass(frozen=True)
class InducedWord:
    word: Word
    log_weight: float  # exact Birkhoff sum on [word + (base,)]


@dataclass
class InducedSystem:
    """First-return words to the base state, with exact induced weights.

    Each stored word w satisfies w[0] = base, w[i] != base for interior i,
    and w + (base,) admissible.  exhaustive[L] records whether all words of
    length L were produced (the cap can cut long lengths short).
    """

    base: State
    horizon: int
    words: list[InducedWord]
    exhaustive: dict[int, bool]

    def by_length(self, n: int) -> list[InducedWord]:
        return [iw for iw in self.words if len(iw.word) == n]

    def log_return_weight(self, n: int) -> float:
        """Aggregate induced weight of length-n first returns (equals log Z*_n)."""
        return logsumexp(iw.log_weight for iw in self.by_length(n))


def induced_system(T: TransitionSystem, phi: Potential, a: State, L: int,
                   max_words: int = 500_000) -> InducedSystem:
    """Enumerate first-return words to a of length <= L with induced weights."""
    if L < 1:
        raise ValueError("horizon must be >= 1")
    T.require(a)
    words: list[InducedWord] = []
    exhaustive = {n: True for n in range(1, L + 1)}
    stack: list[Word] = [(a,)]
    truncated_at: int | None = None
    if phi.memory > 2:
        raise ValueError("induced weights are exact only for memory <= 2")
    while stack:
        w = stack.pop()
        if T.has_edge(w[-1], a):
            # the first len(w) terms of the sum on [w + (a,)] are exactly the
            # induced weight for memory <= 2 potentials
            total = math.fsum(
                phi.edge_weight((w + (a,))[i], (w + (a,))[i + 1])
                for i in range(len(w)))
            words.append(InducedWord(w, total))
            if len(words) > max_words:
                truncated_at = len(w)
                break
        if len(w) < L:
            for s in reversed(T.successors(w[-1])):
                if s != a:
                    stack.append(w + (s,))
    if truncated_at is not None:
        for n in range(truncated_at, L + 1):
            exhaustive[n] = False
    words.sort(key=lambda iw: (len(iw.word),
                               tuple(T.order_index(s) for s in iw.word)))
    return InducedSystem(a, L, words, exhaustive)


# -- induced pressure -----------------------------------------------------------------

@dataclass(frozen=True)
class InducedPressure:
    """Value of log sum_k e^{kp} Z*_k at a given shift p, with the critical
    shift pstar = sup{p : finite} and the value delta at pstar."""

    value: float | None
    pstar: float | None
    delta: float | None
    p: float
    note: str = ""

    @property
    def spr(self) -> bool | None:
        """delta > 0 with a small band absorbing closed-form float noise."""
        if self.delta is None:
            return None
        return self.delta > 1e-9


def induced_pressure(weights, p: float = 0.0, tol: float = 1e-12) -> InducedPressure:
    """Shifted induced-pressure series over return weights.

    `weights` is a closed-form tail model (GeometricTail / PowerTail /
    FiniteTail from the families module) or a plain sequence of linear-space
    Z*_k values.  Closed forms get analytic tail bounds; a truncated family
    is a finite sum for every p (pstar = +inf); raw sequences with unknown
    tails return an inconclusive marker instead of a number.
    """
    from .families import FiniteTail, GeometricTail, PowerTail, UnknownTail
    from .numerics import polylog_with_bound

    if isinstance(weights, GeometricTail):
        x = weights.log_ratio + p
        pstar = -weights.log_ratio
        if x < 0:
            value = weights.log_coeff + x - math.log1p(-math.exp(x))
        else:
            value = math.inf
        return InducedPressure(value, pstar, math.inf, p)
    if isinstance(weights, PowerTail):
        x = weights.log_x + p
        pstar = -weights.log_x
        if x > 0:
            value: float | None = math.inf
        else:
            lv, _ = polylog_with_bound(weights.beta, x, tol)
            value = weights.log_coeff + lv if weights.beta > 1 or x < 0 else math.inf
        if weights.beta > 1:
            lz, _ = polylog_with_bound(weights.beta, 0.0, tol)
            delta = weights.log_coeff + lz
        else:
            delta = math.inf
        return InducedPressure(value, pstar, delta, p)
    if isinstance(weights, FiniteTail):
        value = logsumexp(lw + (k + 1) * p for k, lw in enumerate(weights.log_weights))
        return InducedPressure(value, math.inf, math.inf, p,
                               note="finite support: finite for every shift")
    if isinstance(weights, UnknownTail):
        seq_log = list(weights.log_weights)
    else:
        seq = list(weights)
        if any(w < 0 for w in seq):
            raise ValueError("return weights must be non-negative")
        seq_log = [math.log(w) if w > 0 else LOG_ZERO for w in seq]

    terms = [lw + (k + 1) * p for k, lw in enumerate(seq_log)]
    finite = [t for t in terms if t != LOG_ZERO]
    partial = logsumexp(terms)
    fit = linear_fit_with_log(range(1, len(terms) + 1), terms)
    pstar_est = None
    starfit = linear_fit_with_log(range(1, len(seq_log) + 1), seq_log)
    if not starfit.degenerate:
        pstar_est = -starfit.slope
    if len(finite) >= 4:
        tail = [t for t in terms[-4:] if t != LOG_ZERO]
        if len(tail) >= 3 and tail[-1] > tail[-2] > tail[-3]:
            return InducedPressure(math.inf, pstar_est, None, p,
                                   note="tail terms increase: series diverges")
        if len(tail) >= 3 and tail[-1] < tail[-2] < tail[-3]:
            ratio = tail[-1] - tail[-2]
            geo_tail = tail[-1] + ratio - math.log1p(-math.exp(ratio)) \
                if ratio < 0 else math.inf
            value = logsumexp([partial, geo_tail])
            return InducedPressure(value, pstar_est, None, p,
                                   note="partial sum with fitted geometric tail")
    return InducedPressure(None, pstar_est, None, p,
                           note="inconclusive: unknown tail behaviour")


# -- recurrence classification ---------------------------------------------------------

@dataclass(frozen=True)
class RecurrenceClass:
    """Recurrence mode plus the two defining series behind the verdict.

    kind is one of 'transient', 'null-recurrent', 'positive-recurrent',
    'strongly-positive-recurrent', or 'inconclusive'.  return_sum is
    sum e^{-nP} Z*_n (recurrent iff it reaches 1) and mean_return is
    sum n e^{-nP} Z*_n (positive recurrence iff finite).
    """

    kind: str
    pressure: float
    return_sum: float | None
    mean_return: float | None
    evidence: dict = field(default_factory=dict)


def recurrence_classify(family=None, log_zstar: Sequence[float] | None = None,
                        P: float | None = None, tol: float = 1e-9) -> RecurrenceClass:
    """Classify recurrence of a potential from its return-weight data.

    For the power family Z*_n = C n^-beta e^{n log_x} the two series are
    evaluated analytically (with certified zeta bounds): after normalizing the
    pressure to zero, divergence of sum e^{-nP} Z_n is equivalent to
    sum e^{-nP} Z*_n reaching 1, and positive recurrence to a finite mean
    return series.  Numeric-only inputs with undecidable tails come back
    'inconclusive' with the partial sums attached.
    """
    from .families import PowerTail
    from .numerics import polylog_with_bound, renewal_pressure, zeta_series_with_bound

    if family is not None:
        if not isinstance(family, PowerTail):
            raise ValueError("closed-form classification expects a power-tail family")
        beta, logC, logx = family.beta, family.log_coeff, family.log_x
        if logx > 0 or (beta <= 1 and logx >= 0):
            # the return series diverges at shift zero: positive pressure
            lp = renewal_pressure_from_power(family)
            return _classify_power(PowerTail(beta, logC, logx - lp), lp, tol)
        lv, lb = polylog_with_bound(beta, logx, tol)
        total = math.exp(logC + lv)
        band = total * (lb + tol)
        if total > 1.0 + band:
            lp = renewal_pressure_from_power(family)
            return _classify_power(PowerTail(beta, logC, logx - lp), lp, tol)
        return _classify_power(family, 0.0, tol, total=total, band=band)

    if log_zstar is None or P is None:
        raise ValueError("pass a closed-form family or (log_zstar, P)")
    shifted = [lw - (n + 1) * P for n, lw in enumerate(log_zstar)]
    ret = math.exp(logsumexp(shifted))
    mean = math.exp(logsumexp(lw + math.log(n + 1) for n, lw in enumerate(shifted)
                              if lw != LOG_ZERO))
    verdict = spr_check(log_zstar, P) if len(log_zstar) >= MIN_FIT_TERMS else None
    return RecurrenceClass("inconclusive", P, ret, mean,
                           evidence={"partial_return_sum": ret,
                                     "partial_mean_return": mean,
                                     "note": "numeric tails are undecidable "
                                             "without a closed form",
                                     "spr": verdict.verdict if verdict else None})


def analytic_pressure(weights) -> float | None:
    """Exact pressure of a renewal system with closed-form return weights.

    Solves sum_k w*_k e^{-kP} = 1: in closed form for geometric tails, via the
    certified series root for power tails, and by bisection on the finite
    generating polynomial for truncated families.  Returns None when the tail
    model carries no usable continuation.
    """
    from .families import FiniteTail, GeometricTail, PowerTail
    from .numerics import renewal_pressure

    if isinstance(weights, GeometricTail):
        # e^c y / (1 - y) = 1 at y = e^{rho - P}  =>  y = 1 / (1 + e^c)
        return weights.log_ratio + math.log1p(math.exp(weights.log_coeff))
    if isinstance(weights, PowerTail):
        return renewal_pressure_from_power(weights)
    if isinstance(weights, FiniteTail):
        return renewal_pressure(list(weights.log_weights))
    return None


def renewal_pressure_from_power(family) -> float:
    """Pressure of the renewal system with power-tail return weights (root of
    the shifted series reaching 1)."""
    from .numerics import polylog_with_bound

    beta, logC, logx = family.beta, family.log_coeff, family.log_x
    # the series diverges for shifts below logx; when its boundary value
    # already sits at (or numerically at) 1 or below, the pressure is the
    # boundary itself
    if beta > 1:
        lvb, lbb = polylog_with_bound(beta, 0.0, 1e-13)
        if logC + lvb <= 1e-9 + lbb:
            return logx

    def g(p: float) -> float:
        try:
            lv, _ = polylog_with_bound(beta, logx - p, 1e-13, max_terms=300_000)
        except ValueError:
            return math.inf  # at/past the boundary, or too slow to converge
        return logC + lv

    lo, hi = logx, max(1.0, logx + 1.0)
    while g(hi) > 0:
        hi *= 2
        if hi > 1e6:
            raise ValueError("pressure root escaped the search interval")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _classify_power(family, P: float, tol: float,
                    total: float | None = None, band: float | None = None) -> RecurrenceClass:
    from .families import PowerTail
    from .numerics import polylog_with_bound

    beta, logC, logx = family.beta, family.log_coeff, family.log_x
    if total is None:
        if beta <= 1 and logx >= 0:
            total, band = math.inf, 0.0
        else:
            lv, lb = polylog_with_bound(beta, min(logx, 0.0), tol)
            total = math.exp(logC + lv)
            band = total * (lb + tol)
    evidence = {"return_sum": total, "band": band, "beta": beta,
                "normalized_shift": logx}
    if total < 1.0 - band:
        return RecurrenceClass("transient", P, total, None, evidence)
    # recurrent: mean return series sum n * C n^-beta x^n = C * Li_{beta-1}(x)
    if logx < 0:
        lv2, _ = polylog_with_bound(beta - 1.0, logx, tol) if beta - 1.0 > 1 or logx < 0 \
            else (math.inf, 0.0)
        mean = math.exp(logC + lv2)
    elif beta - 1.0 > 1.0:
        lv2, _ = polylog_with_bound(beta - 1.0, 0.0, tol)
        mean = math.exp(logC + lv2)
    else:
        mean = math.inf
    evidence["mean_return"] = mean
    if not math.isfinite(mean):
        return RecurrenceClass("null-recurrent", P, total, mean, evidence)
    # positive recurrent; strongly so iff the return weights decay
    # exponentially below the pressure (normalized: logx < 0)
    if logx < -tol:
        return RecurrenceClass("strongly-positive-recurrent", P, total, mean, evidence)
    return RecurrenceClass("positive-recurrent", P, total, mean, evidence)


# -- compact-return contraction profile --------------------------------------------------

@dataclass(frozen=True)
class CrcProfile:
    """Maximal Birkhoff sums over words pinned to the low part, with the
    least affine majorant of the tail."""

    s: list[float]  # s[n-1] = max S_n over words of length n+1 with low ends
    C_q: float
    lambda_q: float
    q: int
    verdict: bool  # lambda_q > P
    pressure: float
    fit: TailFit


def crc_profile(T: TransitionSystem, phi: Potential, q: int, N: int,
                P: float = 0.0, tol: float = 0.0) -> CrcProfile:
    """Profile s(n) = max S_n phi over length-(n+1) words with both endpoint
    order indices <= q, plus the fitted affine majorant C_q - n*lambda_q.

    lambda_q is minus the tail-fit slope of s; C_q is then the least constant
    majorizing every tail point.  The verdict reports lambda_q > P + tol.
    """
    if q < 1 or N < 1:
        raise ValueError("q and N must be >= 1")
    s = _max_birkhoff_low_to_low(T, phi, q, N)
    win = list(tail_window(N))
    fit = linear_fit(win, [s[n - 1] for n in win])
    lam = -fit.slope
    cq = max((s[n - 1] + n * lam) for n in win if math.isfinite(s[n - 1]))
    return CrcProfile(s, cq, lam, q, lam > P + tol, P, fit)


def _max_birkhoff_low_to_low(T, phi, q, N) -> list[float]:
    if isinstance(T, BouquetShift) and q == 1 and phi.loop_total is not None:
        best = [LOG_ZERO] * (N + 1)
        best[0] = 0.0
        lengths = T.loop_lengths()
        for m in range(1, N + 1):
            cands = [phi.loop_total(k) + best[m - k]
                     for k in lengths if k <= m and best[m - k] != LOG_ZERO]
            best[m] = max(cands) if cands else LOG_ZERO
        return best[1:]
    graph = index_graph(
        T, 5000, "contraction profile needs <= {cap} states here; only the "
        "root-anchored composition route scales beyond")
    wsucc = graph.weighted(phi)
    dp = [0.0 if i < q else LOG_ZERO for i in range(len(graph.states))]
    out = []
    for _ in range(N):
        dp = maxplus_push(wsucc, dp)
        out.append(max(dp[:q]))
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
    state x_0 does; 'C': all of x_0..x_{n-1} lie outside it.  Words of length
    n+1 are searched for 1 <= n <= N and the first (smallest-n, then maximal
    value with order-first tie break) witness is returned, or None when the
    horizon is clean.
    """
    if cond not in ("A", "B", "C"):
        raise ValueError("condition must be 'A', 'B' or 'C'")
    if N < 1 or q < 1:
        raise ValueError("q and N must be >= 1")
    if isinstance(T, BouquetShift) and T.truncate_len > N + 1:
        T = BouquetShift(T.a, N + 1)
    graph = index_graph(T, 20_000, "witness DP needs <= {cap} states (got {states})")
    states = graph.states
    wsucc = graph.weighted(phi)
    S = len(states)
    low = [i < q for i in range(S)]

    if cond == "A":
        start_ok = [True] * S
        interior_ok = [True] * S
        end_ok = low
    elif cond == "B":
        start_ok = low
        interior_ok = [True] * S
        end_ok = [True] * S
    else:
        start_ok = [not b for b in low]
        interior_ok = [not b for b in low]
        end_ok = [True] * S

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
            word = tuple(states[i] for i in word_idx)
            return Witness(word, n, best_v, bound, cond)
        # positions beyond the start must satisfy the interior constraint
        dp = [nxt[j] if interior_ok[j] else LOG_ZERO for j in range(S)]
    return None
