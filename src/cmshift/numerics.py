"""Log-space arithmetic, tail fits, certified series evaluation, and the
two step kernels of the state DPs (exact counts and max-plus)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

LOG_ZERO = float("-inf")


def logsumexp(values: Iterable[float]) -> float:
    """Accurate log-domain sum of an iterable of log-terms.

    Uses the max-shift trick with a compensated (fsum) accumulation, so exact
    geometric identities survive to within a few ulps.
    """
    xs = [x for x in values if x != LOG_ZERO]
    if not xs:
        return LOG_ZERO
    m = max(xs)
    if math.isinf(m):
        return m
    total = math.fsum(math.expm1(x - m) for x in xs)
    return m + math.log1p(total + float(len(xs) - 1))


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


def _finite_points(ns: Sequence[int], ys: Sequence[float]):
    pts = [(n, y) for n, y in zip(ns, ys) if math.isfinite(y)]
    return [p[0] for p in pts], [p[1] for p in pts]


def linear_fit(ns: Sequence[int], ys: Sequence[float]) -> TailFit:
    """Fit y ~ slope*n + intercept on the finite points of (ns, ys)."""
    fn, fy = _finite_points(ns, ys)
    if len(fn) < 2:
        return TailFit(LOG_ZERO, 0.0, math.inf, math.inf,
                       (min(ns, default=0), max(ns, default=0)), len(fn),
                       degenerate=True)
    x = np.asarray(fn, dtype=float)
    y = np.asarray(fy, dtype=float)
    A = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    resid_max = float(np.max(np.abs(resid))) if len(resid) else 0.0
    if len(fn) > 2:
        s2 = float(resid @ resid) / (len(fn) - 2)
        sxx = float(np.sum((x - x.mean()) ** 2))
        stderr = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
    else:
        stderr = 0.0
    return TailFit(float(coef[1]), float(coef[0]), stderr, resid_max,
                   (int(min(fn)), int(max(fn))), len(fn))


def linear_fit_with_log(ns: Sequence[int], ys: Sequence[float]) -> TailFit:
    """Fit y ~ slope*n + c*log(n) + intercept; report the n-coefficient.

    The log regressor absorbs polynomial prefactors, so sequences of the form
    log(C) - beta*log(n) + n*s recover the growth rate s exactly.
    """
    fn, fy = _finite_points(ns, ys)
    if len(fn) < 3:
        return linear_fit(ns, ys)
    x = np.asarray(fn, dtype=float)
    y = np.asarray(fy, dtype=float)
    A = np.column_stack([np.ones_like(x), x, np.log(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    resid_max = float(np.max(np.abs(resid))) if len(resid) else 0.0
    if len(fn) > 3:
        s2 = float(resid @ resid) / (len(fn) - 3)
        try:
            cov = np.linalg.inv(A.T @ A) * s2
            stderr = math.sqrt(max(cov[1, 1], 0.0))
        except np.linalg.LinAlgError:
            stderr = math.inf
    else:
        stderr = 0.0
    return TailFit(float(coef[1]), float(coef[0]), stderr, resid_max,
                   (int(min(fn)), int(max(fn))), len(fn))


def tail_window(n_max: int, fraction: float = 0.5, min_points: int = 4) -> range:
    """Indices [start..n_max] covering the trailing `fraction` of 1..n_max."""
    start = max(1, int(math.ceil((1.0 - fraction) * n_max)) + 1)
    if n_max - start + 1 < min_points:
        start = max(1, n_max - min_points + 1)
    return range(start, n_max + 1)


# -- certified zeta / polylog ------------------------------------------------

_EM_K = 64


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
        K *= 4
    raise ValueError(f"zeta series did not certify tolerance {tol} at exponent {beta}")


def polylog_with_bound(beta: float, log_x: float, tol: float = 1e-12,
                       max_terms: int = 2_000_000) -> tuple[float, float]:
    """log of sum_{k>=1} x^k k^-beta for x = e^log_x <= 1, with error bound.

    Returns (log_value, relative_bound).  For x == 1 this is log zeta(beta).
    """
    if log_x > 0:
        raise ValueError("polylog series diverges for x > 1")
    if log_x == 0.0:
        v, b = zeta_series_with_bound(beta, tol)
        return math.log(v), b / v
    x = math.exp(log_x)
    terms = []
    k = 1
    total = 0.0
    while True:
        t = math.exp(k * log_x - beta * math.log(k))
        terms.append(t)
        total += t
        tail = math.exp((k + 1) * log_x - beta * math.log(k + 1)) / (1.0 - x)
        if tail <= tol * max(total, 1e-300):
            value = math.fsum(terms)
            return math.log(value) + math.log1p(tail / value / 2.0), tail / value
        k += 1
        if k > max_terms:
            raise ValueError("polylog series did not converge within term budget")


# -- integer matrix helpers (exact path counting) -----------------------------

def int_mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    n = len(A)
    m = len(B[0])
    kk = len(B)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        row = out[i]
        for k in range(kk):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(m):
                    if Bk[j]:
                        row[j] += a * Bk[j]
    return out


def int_mat_pow(A: list[list[int]], p: int) -> list[list[int]]:
    n = len(A)
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [row[:] for row in A]
    while p:
        if p & 1:
            result = int_mat_mul(result, base)
        base = int_mat_mul(base, base)
        p >>= 1
    return result


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


def maxplus_push(wsucc, vec: Sequence, parent: dict | None = None) -> list:
    """One max-plus step: entry j of the result is the maximum of vec[i] + w
    over the weighted edges (j, w) in wsucc[i], LOG_ZERO where none arrives.

    Sources are scanned in index order and only a strictly greater sum
    replaces an entry, so parent[j] (when a dict is given) records the first
    source that reaches the maximum.
    """
    out = [LOG_ZERO] * len(vec)
    for i, v in enumerate(vec):
        if v == LOG_ZERO:
            continue
        for j, w in wsucc[i]:
            cand = v + w
            if cand > out[j]:
                out[j] = cand
                if parent is not None:
                    parent[j] = i
    return out


# -- renewal pressure root ----------------------------------------------------

def renewal_pressure(log_wstar: Sequence[float]) -> float:
    """Growth rate of the renewal sequence built from return weights.

    Solves sum_n w*_n x^n = 1 on the positive axis and returns -log(x*); for
    a finite-support weight family this is the exact pressure of the renewal
    system.  log_wstar is 1-indexed via position (entry i is length i+1).
    """
    terms = [(n + 1, lw) for n, lw in enumerate(log_wstar) if lw != LOG_ZERO]
    if not terms:
        raise ValueError("all return weights vanish; pressure undefined")

    def g(y: float) -> float:
        return logsumexp(lw + k * y for k, lw in terms)

    lo, hi = -60.0, 60.0
    glo, ghi = g(lo), g(hi)
    if glo > 0.0:
        # dominated by a huge single weight; widen downwards
        while glo > 0.0 and lo > -700:
            lo *= 2
            glo = g(lo)
    if ghi < 0.0:
        while ghi < 0.0 and hi < 700:
            hi *= 2
            ghi = g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return -0.5 * (lo + hi)
