"""Reference computations made apart from cmshift.

Every function here recomputes a quantity cmshift reports, from the plain
inputs the benchmark generated (0/1 matrices over states 0..S-1, edge-weight
dicts, preset parameters), with a different method: numpy matrix powers,
max-plus products, networkx cycle enumeration, closed-form binomial counts,
mpmath series roots, and a direct word enumeration.  None of them imports
cmshift.  networkx and mpmath are imported inside the functions that use them,
so a workload process has not loaded them when its peak memory is read.  `selftest.py` checks each one on a tiny case whose answer is known
by hand.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

LOG2 = math.log(2.0)


class CheckFailed(AssertionError):
    """An output of cmshift disagreed with its reference or broke a property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float, what: str) -> None:
    """Absolute agreement; infinities must match exactly."""
    if math.isinf(a) or math.isinf(b):
        require(a == b, f"{what}: {a!r} != {b!r}")
        return
    require(abs(a - b) <= tol, f"{what}: {a!r} vs reference {b!r} (tol {tol})")


# -- finite graphs -------------------------------------------------------------

def weight_matrix(matrix, weights) -> np.ndarray:
    """Edge log-weights as an S x S array, -inf where there is no edge."""
    S = len(matrix)
    W = np.full((S, S), -np.inf)
    for i in range(S):
        for j in range(S):
            if matrix[i][j]:
                W[i, j] = weights.get((i, j), 0.0)
    return W


def best_cycle_mean(matrix, weights, N: int) -> float:
    """Largest mean edge weight over simple cycles of length <= N.

    A closed walk splits into simple cycles no longer than itself, so its
    mean is a convex combination of theirs: this is the supremum of periodic
    Birkhoff averages over periods <= N for an edge (memory-2) potential.
    """
    import networkx as nx  # about 12 MB: load it only when a check needs it

    S = len(matrix)
    G = nx.DiGraph()
    G.add_edges_from((i, j) for i in range(S) for j in range(S) if matrix[i][j])
    best = -math.inf
    for cyc in nx.simple_cycles(G, length_bound=N):
        total = math.fsum(weights.get((cyc[k], cyc[(k + 1) % len(cyc)]), 0.0)
                          for k in range(len(cyc)))
        best = max(best, total / len(cyc))
    return best


def transfer_log_sums(matrix, weights, base: int, N: int):
    """log Z_n (closed walks at base) and log Z*_n (first returns), n=1..N.

    numpy float matrix products, rescaled every step so long horizons do not
    overflow.
    """
    E = np.exp(weight_matrix(matrix, weights))
    S = len(matrix)
    log_z, log_zstar = [], []
    power, pscale = np.eye(S), 0.0
    away = E[base].copy()
    away[base] = 0.0
    ascale = 0.0
    for n in range(1, N + 1):
        power = power @ E
        log_z.append(math.log(power[base, base]) + pscale
                     if power[base, base] > 0 else -math.inf)
        m = power.max()
        power, pscale = power / m, pscale + math.log(m)
        if n == 1:
            star = E[base, base]
            log_zstar.append(math.log(star) if star > 0 else -math.inf)
            continue
        star = away @ E[:, base]
        log_zstar.append(math.log(star) + ascale if star > 0 else -math.inf)
        away = away @ E
        away[base] = 0.0
        m = away.max()
        if m > 0:
            away, ascale = away / m, ascale + math.log(m)
    return log_z, log_zstar


def log_spectral_radius(matrix, weights) -> float:
    E = np.exp(weight_matrix(matrix, weights))
    return float(math.log(max(abs(np.linalg.eigvals(E)))))


def maxplus_low_to_low(matrix, weights, low, N: int) -> list[float]:
    """s(n) = max edge-weight sum over (n+1)-words with both ends low."""
    W = weight_matrix(matrix, weights)
    lo = np.array(low, dtype=bool)
    D = W.copy()
    out = []
    for n in range(1, N + 1):
        if n > 1:
            D = np.max(D[:, :, None] + W[None, :, :], axis=1)
        out.append(float(D[np.ix_(lo, lo)].max()))
    return out


def maxplus_condition_best(matrix, weights, low, cond: str, N: int) -> list[float]:
    """For n = 1..N, the largest edge-weight sum of an (n+1)-word under a
    contraction condition's endpoint rules (-inf when there is none)."""
    W = weight_matrix(matrix, weights)
    lo = np.array(low, dtype=bool)
    every = np.ones_like(lo)
    start, inner, end = {"A": (every, every, lo), "B": (lo, every, every),
                         "C": (~lo, ~lo, every)}[cond]
    v = np.where(start, 0.0, -np.inf)
    out = []
    for _ in range(N):
        nxt = np.max(v[:, None] + W, axis=0)
        out.append(float(np.max(np.where(end, nxt, -np.inf))))
        v = np.where(inner, nxt, -np.inf)
    return out


def maxplus_first_violation(matrix, weights, low, cond: str, C: float,
                            eps: float, N: int):
    """Smallest n <= N with an (n+1)-word over the bound C - n*eps under a
    contraction condition's endpoint rules, and the best value there."""
    for n, best in enumerate(maxplus_condition_best(matrix, weights, low, cond, N), start=1):
        if best > C - n * eps:
            return n, best
    return None, None


def max_cycle_mean(matrix, weights) -> float:
    """Largest mean edge weight over all cycles: the best diagonal entry of
    the max-plus powers up to the state count, divided by the length."""
    W = weight_matrix(matrix, weights)
    D, best = W.copy(), -math.inf
    for n in range(1, len(matrix) + 1):
        if n > 1:
            D = np.max(D[:, :, None] + W[None, :, :], axis=1)
        best = max(best, float(np.max(np.diag(D))) / n)
    return best


def walk_sum(matrix, weights, word) -> float | None:
    """Edge-weight sum along a word, None if an edge is missing."""
    total = []
    for u, v in zip(word, word[1:]):
        if not matrix[u][v]:
            return None
        total.append(weights.get((u, v), 0.0))
    return math.fsum(total)


def f_property_reference(matrix, low, N: int) -> int:
    """Words of length N starting low that a low state can follow, by an
    exact integer matrix power."""
    A = np.array(matrix, dtype=object)
    P = np.linalg.matrix_power(A, N - 1)
    can_close = [any(matrix[j][k] and low[k] for k in range(len(matrix)))
                 for j in range(len(matrix))]
    return int(sum(P[i, j] for i in range(len(matrix)) if low[i]
                   for j in range(len(matrix)) if can_close[j]))


def enumerate_cells(matrix, weights, low, n: int, M: int):
    """(count, z_phi) of the boundary cell (n, M) by listing every word.

    Words have n+1 letters, both ends low; the low visits among the first n
    letters must satisfy visits * M <= n + 1; z_phi is the best mean of the n
    edge weights (None without weights, -inf when nothing is counted).
    """
    S = len(matrix)
    succ = [[j for j in range(S) if matrix[i][j]] for i in range(S)]
    count, best = 0, -math.inf
    stack = [(i, 1 if low[i] else 0, 0.0, 0) for i in range(S) if low[i]]
    while stack:
        state, visits, total, k = stack.pop()
        if visits * M > n + 1:
            continue
        if k == n:
            if low[state]:
                count += 1
                best = max(best, total / n)
            continue
        for j in succ[state]:
            w = weights.get((state, j), 0.0) if weights is not None else 0.0
            nv = visits + (1 if (low[j] and k + 1 < n) else 0)
            stack.append((j, nv, total + w, k + 1))
    return count, (best if weights is not None else None)


def bouquet_graph(L: int, tau):
    """Bouquet with one loop of each length 1..L as a 0/1 matrix over order
    indices (root 0, then each loop's interior vertices in order), and the
    loop weights tau(n) placed on the entry edge root -> first vertex."""
    offsets, size = {}, 1
    for n in range(2, L + 1):
        offsets[n] = size
        size += n - 1
    A = [[0] * size for _ in range(size)]
    A[0][0] = 1
    weights = {(0, 0): tau(1)}
    for n in range(2, L + 1):
        first = offsets[n]
        A[0][first] = 1
        weights[(0, first)] = tau(n)
        for k in range(n - 2):
            A[first + k][first + k + 1] = 1
        A[first + n - 2][0] = 1
    return A, weights


# -- bouquet closed forms ---------------------------------------------------------

def compositions(m: int, j: int, L: int) -> int:
    """Compositions of m into j parts each in 1..L (inclusion-exclusion)."""
    if j == 0:
        return 1 if m == 0 else 0
    total = 0
    for i in range(0, j + 1):
        top = m - i * L - 1
        if top < j - 1:
            break
        total += (-1) ** i * comb(j, i) * comb(top, j - 1)
    return total


def renewal_hinf_count(n: int, M: int, L: int) -> int:
    """Boundary count at q=1 for one loop of every length 1..L: root words of
    n steps made of j loops with j * M <= n + 1 root visits."""
    return sum(compositions(n, j, L) for j in range(1, n + 1) if j * M <= n + 1)


def tail_slope(ns, ys) -> float:
    return float(np.polyfit(np.array(ns, dtype=float), np.array(ys, dtype=float), 1)[0])


def sec53_class(beta: float, c_factor: float) -> str:
    """Recurrence class of sec53(beta, C = c_factor / zeta(beta)) by theory."""
    if c_factor < 1.0:
        return "transient"
    if c_factor > 1.0:
        return "strongly-positive-recurrent"
    return "positive-recurrent" if beta > 2.0 else "null-recurrent"


def sec53_pressure(beta: float, C: float) -> float:
    """Root P of C * Li_beta(e^-P) = 1, or 0 when C * zeta(beta) <= 1."""
    import mpmath  # about 4 MB: load it only when a check needs it

    with mpmath.workdps(30):
        if C * mpmath.zeta(beta) <= 1:
            return 0.0
        f = lambda p: C * mpmath.polylog(beta, mpmath.exp(-p)) - 1  # noqa: E731
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while f(hi) > 0:
            hi *= 2
        return float(mpmath.findroot(f, (lo, hi), solver="anderson", tol=1e-25))


_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)  # B_2, B_4, ..., B_12


def zeta(s: float) -> float:
    """Riemann zeta for real 1 < s <= 10, by Euler-Maclaurin summation with ten
    terms and six Bernoulli corrections (relative error below 1e-14)."""
    N = 10
    total = sum(k ** -s for k in range(1, N)) + N ** (1 - s) / (s - 1) + N ** -s / 2
    rising, fact = s, 2.0  # s(s+1)...(s+2j-2) and (2j)!
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b / fact * rising * N ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    return total
