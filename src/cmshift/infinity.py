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
(N + 1) // min(M) a grid can read, and share one cell read-off.  On bouquets
with q = 1 the fill runs over loop-length compositions (parts = low visits),
so large families never enumerate states; every other system runs one forward
state sweep over (low visits so far, state).  A single count_B is the
one-cell case of the same fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from .numerics import LOG_ZERO, linear_fit
from .potential import Potential
from .shift import (BouquetShift, EnumerationRefusal, LoopCountFamily,
                    TransitionSystem, enumerate_words, index_graph)

__all__ = [
    "CountB", "InfinityProfile",
    "count_B", "count_B_bruteforce", "hinf_profile", "delta_profile",
    "profile_pair", "bouquet_hinf_oracle",
]


@dataclass(frozen=True)
class CountB:
    count: int
    log_count: float
    z_phi: float | None  # max (1/n) S_n phi over the counted cylinders

    @classmethod
    def empty(cls, with_phi: bool) -> "CountB":
        return cls(0, LOG_ZERO, LOG_ZERO if with_phi else None)


def _visits_ok(visits: int, n: int, M: int) -> bool:
    return visits * M <= n + 1


# -- cell read-off ----------------------------------------------------------------

def _read_off(cells: dict[int, list[CountB]], n: int, counts: Sequence[int],
              bests: Sequence[float], with_phi: bool) -> None:
    """Append the CountB of cell (n, M) to cells[M] for every M.

    counts[v] and bests[v] are the number and the best Birkhoff sum of the
    counted (n+1)-words with v low visits among their first n coordinates;
    cell (n, M) admits v * M <= n + 1, i.e. the running total and maximum
    over v read at index (n + 1) // M.
    """
    totals = list(accumulate(counts))
    tops = list(accumulate(bests, max))
    for M, col in cells.items():
        total, zbest = totals[(n + 1) // M], tops[(n + 1) // M]
        zphi = None
        if with_phi:
            zphi = zbest / n if (zbest != LOG_ZERO and total) else LOG_ZERO
        col.append(CountB(total, math.log(total) if total else LOG_ZERO, zphi))


# -- composition fill (bouquet, q = 1) --------------------------------------------

def _composition_fill(T: BouquetShift, phi: Potential | None,
                      M_list: Sequence[int], N: int) -> dict[int, list[CountB]]:
    """CountB of every cell (n, M) with 1 <= n <= N, from one fill over
    loop-length compositions.

    Root-anchored words decompose into complete loops, and a composition
    with j parts visits the root at position 0 and after every part but the
    last, i.e. j low visits.  cnt[m][j] is the number of compositions of m
    into j parts (each part weighted by its loop count) and best[m][j] their
    largest total loop weight, for j up to the largest visit cap
    (N + 1) // min(M).
    """
    with_phi = phi is not None
    jmax = (N + 1) // min(M_list)
    loops = [(k, T.a.count(k), phi.loop_total(k) if with_phi else 0.0)
             for k in T.loop_lengths() if k <= N]
    cnt = [[1] + [0] * jmax]
    best = [[0.0 if with_phi else LOG_ZERO] + [LOG_ZERO] * jmax]
    cells: dict[int, list[CountB]] = {M: [] for M in M_list}
    for n in range(1, N + 1):
        c, b = [0] * (jmax + 1), [LOG_ZERO] * (jmax + 1)
        for k, a, tau in loops:
            if k > n:
                break
            # a composition of n - k has at most n - k parts
            top = min(jmax, n - k + 1)
            pc, pb = cnt[n - k], best[n - k]
            for j in range(1, top + 1):
                p = pc[j - 1]
                if p:
                    c[j] += a * p
            if with_phi:
                for j in range(1, top + 1):
                    p = pb[j - 1]
                    if p != LOG_ZERO:
                        cand = p + tau
                        if cand > b[j]:
                            b[j] = cand
        cnt.append(c)
        best.append(b)
        _read_off(cells, n, c, b, with_phi)
    return cells


# -- state sweep (finite systems, any q) --------------------------------------------

def _count_B_sweep(T: TransitionSystem, phi: Potential | None, q: int,
                   M_list: Sequence[int], N: int) -> dict[int, list[CountB]]:
    """CountB of every cell (n, M) with 1 <= n <= N, from one forward sweep.

    The DP state is (v, i): paths that start in the low part and now sit at
    state i, with v low visits at positions 0..k-1 (the current endpoint
    counts only once the path steps off it).  After step n each M reads off
    the low endpoints with v <= (n + 1) // M.  v never decreases, so a path
    beyond the largest cap (N + 1) // min(M) can count for no cell and is
    dropped.
    """
    graph = index_graph(
        T, 4000, "state DP capped at {cap} states; only bouquets with "
        "q = 1 scale beyond (composition route)")
    succ = graph.weighted(phi) if phi is not None else \
        [[(j, 0.0) for j in js] for js in graph.succ]
    S = len(graph.states)
    low = [int(i < q) for i in range(S)]
    lows = range(min(q, S))
    vcap = (N + 1) // min(M_list)
    # cnt[v][i] counts the paths in state (v, i); best[v][i] is their maximal
    # Birkhoff sum, left at LOG_ZERO throughout when there is no potential
    cnt = [[0] * S for _ in range(vcap + 1)]
    best = [[LOG_ZERO] * S for _ in range(vcap + 1)]
    for i in lows:
        cnt[0][i] = 1
        if phi is not None:
            best[0][i] = 0.0
    cells: dict[int, list[CountB]] = {M: [] for M in M_list}
    for n in range(1, N + 1):
        ncnt = [[0] * S for _ in range(vcap + 1)]
        nbest = [[LOG_ZERO] * S for _ in range(vcap + 1)]
        for v in range(vcap + 1):
            crow, brow = cnt[v], best[v]
            for i in range(S):
                c, b = crow[i], brow[i]
                if not c and b == LOG_ZERO:
                    continue
                nv = v + low[i]
                if nv > vcap:
                    continue
                ncrow, nbrow = ncnt[nv], nbest[nv]
                for j, w in succ[i]:
                    if c:
                        ncrow[j] += c
                    if b != LOG_ZERO:
                        cand = b + w
                        if cand > nbrow[j]:
                            nbrow[j] = cand
        cnt, best = ncnt, nbest
        _read_off(cells, n, [sum(row[i] for i in lows) for row in cnt],
                  [max((row[i] for i in lows), default=LOG_ZERO) for row in best],
                  phi is not None)
    return cells


def _composition_route(T: TransitionSystem, phi: Potential | None, q: int) -> bool:
    return (isinstance(T, BouquetShift) and q == 1
            and (phi is None or phi.loop_total is not None))


def _grid_cells(T: TransitionSystem, phi: Potential | None, q: int,
                M_list: Sequence[int], N: int) -> dict[int, list[CountB]]:
    if _composition_route(T, phi, q):
        return _composition_fill(T, phi, M_list, N)
    return _count_B_sweep(T, phi, q, M_list, N)


def count_B(T: TransitionSystem, phi: Potential | None, n: int, M: int, q: int) -> CountB:
    """Count length-(n+1) cylinders with low endpoints and rare low visits.

    Returns the exact count, its log, and (when a potential is given) the
    maximum of (1/n) S_n phi over the counted cylinders, exact for potentials
    of memory <= 2.
    """
    if n < 1 or M < 1:
        raise ValueError("n and M must be >= 1")
    if q <= 0:
        return CountB.empty(phi is not None)
    return _grid_cells(T, phi, q, [M], n)[M][n - 1]


def count_B_bruteforce(T: TransitionSystem, phi: Potential | None,
                       n: int, M: int, q: int, limit: int = 2_000_000) -> CountB:
    """Reference implementation by word enumeration (oracle for the DPs)."""
    if q <= 0:
        return CountB.empty(phi is not None)
    lowset = set(T.states_up_to(q))
    words = enumerate_words(T, n + 1,
                            start=lambda s: s in lowset,
                            end=lambda s: s in lowset, limit=limit)
    if not words.exhaustive:
        raise EnumerationRefusal("brute-force cylinder count hit its limit")
    total = 0
    zbest = LOG_ZERO
    for w in words:
        visits = sum(1 for k in range(n) if w[k] in lowset)
        if not _visits_ok(visits, n, M):
            continue
        total += 1
        if phi is not None:
            s = math.fsum(phi.edge_weight(w[i], w[i + 1]) for i in range(n))
            zbest = max(zbest, s / n)
    zphi = (zbest if total else LOG_ZERO) if phi is not None else None
    return CountB(total, math.log(total) if total else LOG_ZERO, zphi)


# -- profiles -------------------------------------------------------------------------

@dataclass
class InfinityProfile:
    """Grid of boundary-cylinder data with per-(M, q) tail fits.

    rows hold (n, M, q, count, log_count, z_phi); the headline estimate is the
    fitted slope at the largest grid point (max q, then max M), whose reported
    uncertainty adds half the gap to the neighbouring M-slope as a
    finite-M term.  For the contraction profile the estimate is the maximum
    window value of z_phi at the largest grid point.
    """

    kind: str  # 'entropy' | 'contraction'
    rows: list[tuple]
    fits: dict
    estimate: float
    uncertainty: float
    window: tuple[int, int]
    monotone_M_violations: list[tuple] = field(default_factory=list)
    q_diagnostics: list[tuple] = field(default_factory=list)
    pressure: float | None = None
    band: float | None = None
    ci_verdict: str | None = None

    def cell(self, n: int, M: int, q: int) -> tuple:
        for row in self.rows:
            if row[0] == n and row[1] == M and row[2] == q:
                return row
        raise KeyError((n, M, q))

    def slope(self, M: int, q: int):
        return self.fits[(M, q)]


# shortest horizon whose fit window has the four points of _profile_window
MIN_PROFILE_HORIZON = 4


def _profile_window(N: int, min_points: int = 4) -> list[int]:
    start = max(1, int(math.ceil(0.75 * N)))
    if N - start + 1 < min_points:
        start = max(1, N - min_points + 1)
    return list(range(start, N + 1))


def _grid_rows(T, phi, q_list, M_list, N):
    rows = []
    for q in q_list:
        cells = _grid_cells(T, phi, q, M_list, N)
        for M in M_list:
            for n, cb in enumerate(cells[M], start=1):
                rows.append((n, M, q, cb.count, cb.log_count, cb.z_phi))
    return rows


def _monotone_M_check(rows, q_list, M_list, N):
    violations = []
    Ms = sorted(M_list)
    table = {(r[0], r[1], r[2]): r[3] for r in rows}
    for q in q_list:
        for n in range(1, N + 1):
            for lo, hi in zip(Ms, Ms[1:]):
                if table[(n, hi, q)] > table[(n, lo, q)]:
                    violations.append((n, lo, hi, q))
    return violations


def _q_direction_diagnostics(rows, q_list, M_list, N):
    """Cells where the count grows with q at fixed (n, M).

    The limiting rates are non-increasing in q, but finite-horizon counts need
    not be; these are reported for inspection, never asserted.
    """
    notes = []
    qs = sorted(q_list)
    table = {(r[0], r[1], r[2]): r[3] for r in rows}
    for M in M_list:
        for n in range(1, N + 1):
            for lo, hi in zip(qs, qs[1:]):
                if table[(n, M, hi)] > table[(n, M, lo)]:
                    notes.append((n, M, lo, hi))
    return notes


def _check_grid(q_list, M_list, N) -> None:
    if not q_list or not M_list:
        raise ValueError("grids must be non-empty")
    if N < MIN_PROFILE_HORIZON:
        raise ValueError("horizon too small to fit")


def hinf_profile(T: TransitionSystem, q_list: Sequence[int],
                 M_list: Sequence[int], N: int) -> InfinityProfile:
    """Fill the (n, M, q) grid of cylinder counts and fit tail growth rates.

    The per-(M, q) slope is a least-squares fit of log z_n over the top
    quarter of the horizon (the count cap is locally stable there, which a
    half-horizon window is not).  The headline entropy-at-infinity estimate is
    the slope at the largest (q, M); its uncertainty includes the spread to
    the neighbouring M as a finite-M proxy.
    """
    _check_grid(q_list, M_list, N)
    return _entropy_fit(_grid_rows(T, None, q_list, M_list, N), q_list, M_list, N)


def _entropy_fit(rows, q_list, M_list, N) -> InfinityProfile:
    window = _profile_window(N)
    fits = {}
    for q in q_list:
        for M in M_list:
            ys = [r[4] for r in rows if r[1] == M and r[2] == q and r[0] in window]
            fits[(M, q)] = linear_fit(window, ys)
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
        if all(r[3] == 0 for r in rows if r[1] == Mmax and r[2] == qmax):
            unc = 0.0  # empty at every n: nothing at infinity
    return InfinityProfile("entropy", rows, fits, estimate, unc,
                           (window[0], window[-1]),
                           _monotone_M_check(rows, q_list, M_list, N),
                           _q_direction_diagnostics(rows, q_list, M_list, N))


def delta_profile(T: TransitionSystem, phi: Potential, q_list: Sequence[int],
                  M_list: Sequence[int], N: int, P: float = 0.0,
                  tol: float = 1e-9) -> InfinityProfile:
    """Weighted profile: z_phi grid, contraction-at-infinity estimate, and the
    contraction verdict (estimate + band < P).

    The estimate is the maximum z_phi over the fit window at the largest
    (q, M) grid point; the band is the window spread.  An empty grid cell
    yields the verdict 'no-evidence' rather than a vacuous pass.
    """
    _check_grid(q_list, M_list, N)
    return _contraction_fit(_grid_rows(T, phi, q_list, M_list, N),
                            q_list, M_list, N, P, tol)


def _contraction_fit(rows, q_list, M_list, N, P, tol) -> InfinityProfile:
    window = _profile_window(N)
    fits = {}
    for q in q_list:
        for M in M_list:
            zs = [r[5] for r in rows if r[1] == M and r[2] == q and r[0] in window]
            finite = [z for z in zs if z is not None and math.isfinite(z)]
            fits[(M, q)] = (max(finite) if finite else LOG_ZERO,
                            (max(finite) - min(finite)) if finite else math.inf)
    qmax, Mmax = max(q_list), max(M_list)
    estimate, band = fits[(Mmax, qmax)]
    if estimate == LOG_ZERO:
        verdict = "no-evidence"
        band = math.inf
    elif estimate + band < P - tol:
        verdict = "holds"
    elif estimate - band > P + tol:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    return InfinityProfile("contraction", rows, fits, estimate,
                           band if math.isfinite(band) else math.inf,
                           (window[0], window[-1]),
                           _monotone_M_check(rows, q_list, M_list, N),
                           _q_direction_diagnostics(rows, q_list, M_list, N),
                           pressure=P, band=band, ci_verdict=verdict)


def profile_pair(T: TransitionSystem, phi: Potential, q_list: Sequence[int],
                 M_list: Sequence[int], N: int, P: float = 0.0,
                 tol: float = 1e-9) -> tuple[InfinityProfile, InfinityProfile]:
    """hinf_profile and delta_profile of the same grid, from one weighted fill.

    The weighted grid carries the counts of the unweighted one whenever
    every q takes the same route with and without phi, so the entropy
    profile is fitted from the delta profile's rows; otherwise (a bouquet
    potential without loop totals at q = 1) each profile fills its own grid.
    Both profiles are those the two separate calls return.
    """
    if not all(_composition_route(T, phi, q) == _composition_route(T, None, q)
               for q in q_list):
        return (hinf_profile(T, q_list, M_list, N),
                delta_profile(T, phi, q_list, M_list, N, P, tol))
    dp = delta_profile(T, phi, q_list, M_list, N, P, tol)
    counts = [r[:5] + (None,) for r in dp.rows]
    return _entropy_fit(counts, q_list, M_list, N), dp


def bouquet_hinf_oracle(a: LoopCountFamily) -> float:
    """Closed-form limsup (1/n) log a(n) for the supported loop-count forms.

    Geometric families give log(ratio), the all-ones family 0, the
    double-exponential family +infinity; finite lists report the maximum of
    (1/n) log a(n) over their support (a finite-support limsup proxy).
    """
    return a.growth_rate()
