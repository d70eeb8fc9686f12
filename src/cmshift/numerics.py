"""Log-space arithmetic (whole sums and the renewal DP's row sums), tail
fits, certified series evaluation, and the three step kernels of the state
DPs (exact counts, log-space sums and max-plus)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, index, mul, sub
from typing import Iterable, Sequence

LOG_ZERO = float("-inf")


def logsumexp(values: Iterable[float]) -> float:
    """Accurate log-domain sum of an iterable of log-terms.

    Uses the max-shift trick with a compensated (fsum) accumulation, so exact
    geometric identities survive to within a few ulps.  It rounds twice: the
    fsum of the expm1 terms is a float near -(k - 1), whose remainder keeps
    only the bits below ulp(k) before k - 1 is added back, so it loses about
    log2(k) bits when most of the k terms lie far below the maximum.
    """
    xs = list(values)
    if LOG_ZERO in xs:
        xs = [x for x in xs if x != LOG_ZERO]
    if not xs:
        return LOG_ZERO
    m = max(xs)
    if math.isinf(m):
        return m
    total = math.fsum(map(math.expm1, map(sub, xs, repeat(m))))
    return m + math.log1p(total + float(len(xs) - 1))


# expm1(d) is exactly -1.0 for every double d <= -56 ln 2: e^d <= 2^-56 is an
# eighth of the spacing of the doubles below 1, so -1 + e^d rounds to -1.0 in
# glibc's and fdlibm's expm1 alike
_NEGLIGIBLE = -56 * math.log(2)


def renewal_row(w, wmax, log_Z, zmax, h: int) -> tuple[float, int]:
    """Row n = len(log_Z) of the renewal DP (thermo.partition_sums_renewal):
    log Z_n from its terms w[j] + log Z_{n-1-j}, all finite and far from
    overflow (wmax[k] = max(w[k:]), zmax[i] = max(log Z_0..log Z_i)), and
    the head length used.  The head starts at the previous row's length h,
    grows until the bound wmax[h] + zmax[n-1-h] - m <= _NEGLIGIBLE holds for
    its largest term m (rounding is monotone, so every later term t then has
    fl(t - m) <= _NEGLIGIBLE and t < m), and shrinks while the bound holds
    without its last term.  fsum takes the head's
    expm1 values and one -1 per counted term as a single number, so it
    rounds logsumexp's exact sum once, as logsumexp does."""
    n = len(log_Z)
    h = min(h, n)
    head = list(map(add, w[:h], reversed(log_Z)))
    m = max(head)
    step = 1
    while h < n and wmax[h] + zmax[n - 1 - h] - m > _NEGLIGIBLE:
        h2 = min(n, h + step)
        more = list(map(add, w[h:h2], reversed(log_Z[n - h2:n - h])))
        head += more
        top = max(more)
        if top > m:
            m = top
        h, step = h2, 2 * step
    while h > 1 and wmax[h - 1] + zmax[n - h] - m <= _NEGLIGIBLE:
        h -= 1
    del head[h:]
    terms = map(math.expm1, map(sub, head, repeat(m)))
    if h < n:
        terms = chain(terms, (float(h - n),))
    return m + math.log1p(math.fsum(terms) + float(n - 1)), h


@dataclass(frozen=True)
class TailFit:
    """Least-squares fit of a log-sequence over a tail window."""

    slope: float
    intercept: float
    stderr: float
    resid_max: float
    window: tuple[int, int]
    n_points: int
    degenerate: bool = False

    @property
    def uncertainty(self) -> float:
        span = max(1, self.window[1] - self.window[0])
        return self.stderr + 2.0 * self.resid_max / span


def _finite_points(ns: Sequence[int], ys: Sequence[float]) -> tuple[list[int], list[float]]:
    """The points of (ns, ys), zipped, whose y is finite: the abscissae as
    Python ints (numpy integers would wrap in the fits' integer products, and
    a float abscissa is a TypeError) and their y values."""
    keep = list(map(math.isfinite, ys))[:len(ns)]
    return list(map(index, compress(ns, keep))), list(compress(ys, keep))


def _dyadic(values: Sequence[float]) -> tuple[list[int], int]:
    """Integers Z and a power of two D with values[i] == Z[i] / D exactly,
    for finite floats.

    The smallest nonzero magnitude has the finest last bit, so 2**t with
    t = 53 - its binary exponent scales every value to an integer.  Values
    spanning more binades than a float holds (about 970) overflow that
    scaling and take their exact ratios instead, which cost about three
    times as much per value.
    """
    small = min(map(abs, values), default=0.0) or min(filter(None, map(abs, values)),
                                                       default=1.0)
    t = max(0, 53 - math.frexp(small)[1])
    try:
        return list(map(int, map(math.ldexp, values, repeat(t)))), 1 << t
    except OverflowError:
        ratios = [v.as_integer_ratio() for v in values]
        D = max(q for _, q in ratios)
        return [p * (D // q) for p, q in ratios], D


def _ratio(num: int, den: int) -> float:
    """num / den for den > 0, correctly rounded; +-inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def linear_fit(ns: Sequence[int], ys: Sequence[float]) -> TailFit:
    """Fit y ~ slope*n + intercept on the finite points of (ns, ys).

    The least-squares solution is exact: the y values are integers over one
    power of two (_dyadic), the normal equations are solved by cofactors in
    integers, and slope, intercept, resid_max and the stderr ratio under its
    square root are each rounded once.  A window with a single abscissa gets
    the minimum-norm solution.
    """
    fn, fy = _finite_points(ns, ys)
    m = len(fn)
    if m < 2:
        return TailFit(LOG_ZERO, 0.0, math.inf, math.inf,
                       (min(ns, default=0), max(ns, default=0)), m,
                       degenerate=True)
    Y, D = _dyadic(fy)
    Sx, Sxx, Sy, Sxy = sum(fn), sum(map(mul, fn, fn)), sum(Y), sum(map(mul, fn, Y))
    det = m * Sxx - Sx * Sx
    if det:
        den, an, bn = det, Sxx * Sy - Sx * Sxy, m * Sxy - Sx * Sy
    else:
        x = fn[0]
        den, an, bn = m * (1 + x * x), Sy, x * Sy
    scale = den * D  # slope = bn / scale, intercept = an / scale
    # residual i is (den * Y[i] - bn * x[i] - an) / scale
    resid = [den * y - bn * x for x, y in zip(fn, Y)]
    if m == 2:
        stderr = 0.0
    elif det:
        # det * RSS in units of 1/D**2, and stderr**2 = m RSS / ((m - 2) det)
        rss = det * sum(map(mul, Y, Y)) - an * Sy - bn * Sxy
        stderr = math.sqrt(_ratio(m * rss, (m - 2) * det * scale * D))
    else:
        stderr = math.inf
    return TailFit(_ratio(bn, scale), _ratio(an, scale), stderr,
                   _ratio(max(max(resid) - an, an - min(resid)), scale),
                   (min(fn), max(fn)), m)


def linear_fit_with_log(ns: Sequence[int], ys: Sequence[float]) -> TailFit:
    """Fit y ~ slope*n + c*log(n) + intercept; report the n-coefficient.

    The log regressor absorbs polynomial prefactors, so sequences of the form
    log(C) - beta*log(n) + n*s recover the growth rate s exactly.  The
    regressor is the float math.log(n), and the least-squares solution on it
    is exact, rounded once per reported quantity as in linear_fit; the
    stderr is that of the n-coefficient.  With fewer than three finite
    points, or fewer than three distinct n, this is linear_fit.
    """
    fn, fy = _finite_points(ns, ys)
    m = len(fn)
    if m < 3:
        return linear_fit(ns, ys)
    # the column log n as integers L over a power of two, and the adjugate
    # of the integer normal matrix [[m, Sx, SL], [Sx, Sxx, SxL], [SL, SxL, SLL]]
    L = _dyadic(list(map(math.log, fn)))[0]
    Sx, Sxx, SL = sum(fn), sum(map(mul, fn, fn)), sum(L)
    SxL, SLL = sum(map(mul, fn, L)), sum(map(mul, L, L))
    c00, c01, c02 = Sxx * SLL - SxL * SxL, SxL * SL - Sx * SLL, Sx * SxL - Sxx * SL
    c11, c12, c22 = m * SLL - SL * SL, Sx * SL - m * SxL, m * Sxx - Sx * Sx
    det = m * c00 + Sx * c01 + SL * c02
    if not det:
        return linear_fit(fn, fy)
    Y, D = _dyadic(fy)
    Sy, Sxy, SLy = sum(Y), sum(map(mul, fn, Y)), sum(map(mul, L, Y))
    an = c00 * Sy + c01 * Sxy + c02 * SLy
    bn = c01 * Sy + c11 * Sxy + c12 * SLy
    cn = c02 * Sy + c12 * Sxy + c22 * SLy
    scale = det * D  # slope = bn / scale, intercept = an / scale
    # residual i is (det * Y[i] - bn * x[i] - cn * L[i] - an) / scale
    resid = [det * y - bn * x - cn * lg for x, y, lg in zip(fn, Y, L)]
    if m > 3:
        # det * RSS in units of 1/D**2; the n-coefficient's variance is
        # RSS / (m - 3) times entry 11 of the normal matrix's inverse
        rss = det * sum(map(mul, Y, Y)) - an * Sy - bn * Sxy - cn * SLy
        stderr = math.sqrt(_ratio(c11 * rss, (m - 3) * det * scale * D))
    else:
        stderr = 0.0
    return TailFit(_ratio(bn, scale), _ratio(an, scale), stderr,
                   _ratio(max(max(resid) - an, an - min(resid)), scale),
                   (min(fn), max(fn)), m)


def tail_window(n_max: int) -> range:
    """Indices [start..n_max] covering the trailing half of 1..n_max, and at
    least its last four."""
    start = max(1, min(math.ceil(0.5 * n_max) + 1, n_max - 3))
    return range(start, n_max + 1)


# -- certified zeta / polylog ------------------------------------------------

_EM_K = 64


class SeriesBudgetError(ValueError):
    """A series of positive terms ran out of its term budget.  log_partial is
    the log of the terms summed so far, a lower bound of the log of the sum."""

    def __init__(self, message: str, log_partial: float):
        super().__init__(message)
        self.log_partial = log_partial


def zeta_series_with_bound(beta: float, tol: float = 1e-9) -> tuple[float, float]:
    """Riemann zeta at real beta > 1 with a certified error bound.

    Partial sum to K, then the integral tail plus Euler-Maclaurin corrections;
    the returned bound is the magnitude of the first omitted correction plus
    float slop, and K is raised until the bound meets `tol`.
    """
    if beta <= 1.0:
        raise ValueError("zeta series diverges for exponent <= 1")
    K = _EM_K
    for _ in range(8):
        partial = math.fsum(n ** -beta for n in range(1, K + 1))
        tail = K ** (1.0 - beta) / (beta - 1.0)
        corr1 = -0.5 * K ** -beta
        corr2 = (beta / 12.0) * K ** (-beta - 1.0)
        corr3 = -(beta * (beta + 1.0) * (beta + 2.0) / 720.0) * K ** (-beta - 3.0)
        value = partial + tail + corr1 + corr2 + corr3
        omitted = (beta * (beta + 1.0) * (beta + 2.0) * (beta + 3.0) * (beta + 4.0)
                   / 30240.0) * K ** (-beta - 5.0)
        bound = abs(omitted) + 8.0 * abs(value) * 2.2e-16
        if bound <= tol:
            return value, bound
        if 8.0 * (abs(value) - abs(omitted)) * 2.2e-16 > tol:
            break  # zeta >= value - |omitted|, so no K brings the float slop under tol
        K *= 4
    raise ValueError(f"zeta series did not certify tolerance {tol} at exponent {beta}")


def polylog_with_bound(beta: float, log_x: float, tol: float = 1e-12,
                       max_terms: int = 2_000_000) -> tuple[float, float]:
    """log of sum_{k>=1} x^k k^-beta for x = e^log_x <= 1, with error bound.

    Returns (log_value, relative_bound).  For x == 1 this is log zeta(beta),
    certified to the absolute tolerance tol * max(1, 1 / (beta - 1)): since
    zeta(beta) > max(1, 1 / (beta - 1)), that is a relative tolerance tol.
    """
    if log_x > 0:
        raise ValueError("polylog series diverges for x > 1")
    if log_x == 0.0:
        v, b = zeta_series_with_bound(beta, tol * max(1.0, 1.0 / (beta - 1.0))
                                      if beta > 1.0 else tol)
        return math.log(v), b / v
    x = math.exp(log_x)
    if x == 1.0:
        raise ValueError(f"polylog tail bound is infinite: x = exp({log_x!r}) rounds to 1")
    if x == 0.0:
        return log_x, 0.0  # x underflows: its first term is the whole sum in floats
    terms = []
    k = 1
    total = 0.0
    t = math.exp(k * log_x - beta * math.log(k))
    while True:
        terms.append(t)
        total += t
        # the tail test's numerator is the next term
        t = math.exp((k + 1) * log_x - beta * math.log(k + 1))
        tail = t / (1.0 - x)
        if tail <= tol * max(total, 1e-300):
            value = math.fsum(terms)
            return math.log(value) + math.log1p(tail / value / 2.0), tail / value
        k += 1
        if k > max_terms:
            raise SeriesBudgetError("polylog series did not converge within term budget",
                                    math.log(math.fsum(terms)))


# -- path DP steps over successor index lists ------------------------------------

def count_push(succ: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int]:
    """One step of exact path counting: entry j of the result sums vec[i]
    over the edges i -> j, where succ[i] lists the successor indices of i."""
    out = [0] * len(vec)
    for i, c in enumerate(vec):
        if c:
            for j in succ[i]:
                out[j] += c
    return out


def reverse_edges(wsucc) -> list[list[tuple]]:
    """Predecessor lists of weighted successor lists: entry j lists (i, w)
    for every edge (j, w) in wsucc[i], sources in index order."""
    pred: list[list[tuple]] = [[] for _ in wsucc]
    for i, js in enumerate(wsucc):
        for j, w in js:
            pred[j].append((i, w))
    return pred


def logsum_pull(pred, vec: Sequence[float]) -> list[float]:
    """One log-space step: entry j of the result is logsumexp of the terms
    vec[i] + w over the weighted predecessors (i, w) in pred[j]
    (reverse_edges of the successor lists), in that order, and LOG_ZERO
    where no term arrives.  Sources at LOG_ZERO add no term, so a +inf edge
    out of one adds no -inf + inf.

    Every float is logsumexp's, bit for bit.  One term t gives t + 0.0,
    which is what logsumexp returns for every t (-0.0 -> 0.0, +-inf, NaN).
    For k = 2 or 3 terms without LOG_ZERO and with a finite maximum m (the
    first greatest, as max picks it), the term at m has expm1(m - m) = 0.0,
    and fsum rounds the exact sum of its inputs once, so fsum of the k
    expm1 values is the single float addition of the other k - 1 (a NaN
    among them is NaN either way); the result is then logsumexp's
    m + log1p(total + (k - 1)).  Entries with a LOG_ZERO term, a maximum of
    +inf or NaN, or four or more terms run logsumexp.
    """
    expm1, log1p, inf = math.expm1, math.log1p, math.inf
    out = []
    for ps in pred:
        t = [vec[i] + w for i, w in ps if vec[i] != LOG_ZERO]
        k = len(t)
        if k == 1:
            out.append(t[0] + 0.0)
            continue
        if k == 2:
            m, x = t
            if x > m:
                m, x = x, m
            if LOG_ZERO < m < inf and x != LOG_ZERO:
                out.append(m + log1p(expm1(x - m) + 1.0))
                continue
        elif k == 3:
            m, x, y = t
            if x > m:
                m, x = x, m
            if y > m:
                m, y = y, m
            if LOG_ZERO < m < inf and x != LOG_ZERO and y != LOG_ZERO:
                out.append(m + log1p((expm1(x - m) + expm1(y - m)) + 2.0))
                continue
        out.append(logsumexp(t))
    return out


def maxplus_push(wsucc, vec: Sequence, parent: dict | None = None) -> list:
    """One max-plus step: entry j of the result is the maximum of vec[i] + w
    over the weighted edges (j, w) in wsucc[i], LOG_ZERO where none arrives.

    Sources are scanned in index order and only a strictly greater sum
    replaces an entry, so parent[j] (when a dict is given) records the first
    source that reaches the maximum.  Sources at LOG_ZERO push nothing, and
    a NaN source would push only NaN sums, which replace no entry.
    """
    out = [LOG_ZERO] * len(vec)
    for i, v in enumerate(vec):
        if v > LOG_ZERO:
            for j, w in wsucc[i]:
                cand = v + w
                if cand > out[j]:
                    out[j] = cand
                    if parent is not None:
                        parent[j] = i
    return out
