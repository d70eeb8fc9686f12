"""Enumerative oracles of the DPs: walks over the words themselves, each word
scored on its own by this module's window rule, with no DP helper.  Only
`cmshift oracle` and the tests import it.  Word limits: 2,000,000 (brute
force), 1,000,000 (periodic_points), 100,000 (enumerate_words); `cmshift
oracle` needs a truncation <= 6 (--truncate for a preset, truncate_len for a
spec) and compares n <= 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Sequence

from . import families, infinity, thermo
from .cli import RunConfig, _Run
from .numerics import LOG_ZERO, logsumexp
from .potential import Potential
from .shift import (_BRANCH_CAP, ROOT, BouquetShift, EnumerationRefusal, LoopVertex,
                    Plain, Root, State, TransitionSystem, Word)
from .specio import ConfigError

__all__ = ["WordEnumeration", "enumerate_words", "periodic_points",
           "partition_sums_bruteforce", "count_B_bruteforce", "compare_oracle"]


# -- words ----------------------------------------------------------------------

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
                f"word enumeration over {T.state_count()} states is above "
                f"_BRANCH_CAP = {_BRANCH_CAP}; pass an explicit start state or a "
                "smaller truncate_len")
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


def _edge_weight(phi: Potential, u: State, v: State) -> float:
    """The window rule of the cell walk: (u,) for memory 1, (u, v) for
    memory 2, longer memories refused.  The DPs weigh the edges of
    shift.index_graph's block graph instead."""
    if phi.memory == 1:
        return phi.weight((u,))
    if phi.memory == 2:
        return phi.weight((u, v))
    raise EnumerationRefusal(
        f"edge windows need a potential of memory <= 2 (got memory {phi.memory})")


# -- partition sums -------------------------------------------------------------

def partition_sums_bruteforce(T: TransitionSystem, phi: Potential, a: State,
                              N: int, max_count: int = 2_000_000) -> thermo.PartitionSums:
    """Exact sums over enumerated periodic words through a, up to horizon N.

    One depth-first walk visits the admissible words w that start at a, in
    state order.  Each prefix carries the weights of its in-word windows,
    each weight computed once per window, and whether it has left a for good.
    A word of length n whose wrap edge leads back to a is a period-n point:
    its Birkhoff sum is one math.fsum over those weights and the wrap
    windows, in the window order of birkhoff_sum(..., "periodic"), so it
    equals that sum bit for bit.  Errors come as a period-by-period
    enumeration raises them: the smallest period that fails, a refusal (more
    than max_count words) before the first failing sum of that period.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    T.require(a)
    m = phi.memory
    weight = cache(phi.weight)

    @cache
    def step(u):
        # whether u -> a closes a word, and the successors of u in reverse
        # state order
        return T.has_edge(u, a), T.successors(u)[::-1]

    def grown(v, ws, err):
        # in-word window weights of v from those of v[:-1], or the first failure
        if err is None and len(v) >= m:
            try:
                return ws + (weight(v[-m:]),), None
            except Exception as exc:
                return ws, exc
        return ws, err

    counts = [0] * (N + 1)
    terms: list[list[float]] = [[] for _ in range(N + 1)]
    star_terms: list[list[float]] = [[] for _ in range(N + 1)]
    failed: dict[int, Exception] = {}
    top, refused = N, None  # a refusal at period n stops the walk below n
    # (word, weights of its in-word windows, first failing window, first return)
    stack = [((a,), *grown((a,), (), None), True)]
    while stack:
        w, ws, err, first = stack.pop()
        n = len(w)
        if n > top:
            continue
        closes, nexts = step(w[-1])
        if closes:
            counts[n] += 1
            if counts[n] > max_count:
                top, refused = n - 1, n
                continue
            if err is not None:
                failed.setdefault(n, err)
            elif n not in failed:
                try:
                    wrapped = ws + tuple(
                        weight(tuple(w[(i + j) % n] for j in range(m)))
                        for i in range(max(n - m + 1, 0), n))
                except Exception as exc:  # raised below, in period order
                    failed[n] = exc
                else:
                    try:
                        total = math.fsum(wrapped)
                    except ValueError:  # fsum of +inf and -inf
                        failed[n] = ValueError(
                            f"the weight of a period-{n} word through {a!r} is "
                            "undefined: its windows weigh +inf and -inf")
                    else:
                        terms[n].append(total)
                        if first:
                            star_terms[n].append(total)
        if n == top:
            continue
        for s in nexts:
            v = w + (s,)
            stack.append((v, *grown(v, ws, err), first and s != a))
    for n in range(1, N + 1):
        if n == refused:
            raise EnumerationRefusal(f"more than {max_count} periodic words of period {n}")
        if n in failed:
            raise failed[n]
    return thermo.PartitionSums(a, N, [logsumexp(t) for t in terms[1:]],
                         [logsumexp(t) for t in star_terms[1:]], "brute-force",
                         counts[1:], [len(t) for t in star_terms[1:]])


# -- boundary cylinders ------------------------------------------------------------

def count_B_bruteforce(T: TransitionSystem, phi: Potential | None,
                       n: int, M: int, q: int, limit: int = 2_000_000) -> infinity.CountB:
    """Reference implementation by word enumeration (oracle for the DPs):
    the one cell (n, M) of _bruteforce_cells, whose walk counts no shorter
    words, so only the words of length n + 1 meet the limit."""
    if q <= 0:
        return infinity.CountB.empty(phi is not None)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _bruteforce_cells(T, phi, q, [M], n, limit, n_min=n)[M][-1]


def _bruteforce_cells(T: TransitionSystem, phi: Potential | None, q: int,
                      M_list: Sequence[int], N: int, limit: int = 2_000_000,
                      n_min: int = 1) -> dict[int, list[infinity.CountB]]:
    """CountB of every cell (n, M) with n_min <= n <= N, by enumerating words.

    One depth-first walk from each low state, in state order, visits every
    admissible word of length <= N + 1.  Each prefix carries its low visits
    (at every coordinate but the last) and its edge weights, each weight
    computed once per edge.  A word of length n + 1 with a low endpoint counts
    in every cell (n, M) with visits * M <= n + 1, and its Birkhoff sum is one
    math.fsum over its n edge weights, taken in word order.  Errors come as
    the cells raise them one n after the other: a refusal when a word of
    length n + 1 follows the `limit`-th one that ends low (where an ordered
    enumeration capped at `limit` stops short), else the first failing sum
    of that length.
    """
    lowset = set(T.states_up_to(q))
    with_phi = phi is not None

    @cache
    def step(u):
        # whether u is low, and its successors v in reverse state order, each
        # with the weight of the edge u -> v or the error that weight raises
        edges = []
        for v in reversed(T.successors(u)):
            try:
                edges.append((v, _edge_weight(phi, u, v) if with_phi else None, None))
            except Exception as exc:
                edges.append((v, None, exc))
        return u in lowset, edges

    M_low = min(M_list)
    counts = {M: [0] * (N + 1) for M in M_list}
    bests = {M: [LOG_ZERO] * (N + 1) for M in M_list}
    ends = [0] * (N + 2)  # words with a low endpoint, per length
    failed: dict[int, Exception] = {}
    top, refused = N + 1, None  # a refusal at length k stops the walk below k
    # (last state, length, edge weights, first failing edge, low visits
    # at every coordinate but the last)
    stack = [(u, 1, (), None, 0) for u in reversed(T.states_up_to(q))]
    while stack:
        u, k, ws, err, visits = stack.pop()
        if k > top:
            continue
        low, edges = step(u)
        n = k - 1
        if n >= n_min:
            if ends[k] >= limit:
                top, refused = n, n
                if n <= n_min:
                    break
                continue
            if low:
                ends[k] += 1
                if visits * M_low <= k:
                    total = None
                    if err is not None:
                        failed.setdefault(n, err)
                    elif with_phi and n not in failed:
                        try:
                            total = math.fsum(ws)
                        except Exception as exc:  # raised below, in cell order
                            failed[n] = exc
                    for M in counts:
                        if visits * M <= k:
                            counts[M][n] += 1
                            if total is not None:
                                bests[M][n] = max(bests[M][n], total / n)
        if k < top:
            visits += low
            for v, wt, verr in edges:
                if err is None and with_phi:
                    stack.append((v, k + 1, ws + (wt,), verr, visits))
                else:
                    stack.append((v, k + 1, ws, err, visits))
    for n in range(n_min, N + 1):
        if n == refused:
            raise EnumerationRefusal(f"brute-force cylinder count hit its limit "
                                     f"of {limit} words at n={n}")
        if n in failed:
            raise failed[n]
    return {M: [infinity.CountB(c, math.log(c) if c else LOG_ZERO, z if with_phi else None)
                for c, z in zip(counts[M][n_min:], bests[M][n_min:])]
            for M in M_list}


# -- oracle comparison ----------------------------------------------------------------------

_ORACLE_TRUNCATE_CAP = 6
_ORACLE_HORIZON_CAP = 12


def compare_oracle(cfg: RunConfig) -> tuple[list[tuple], bool]:
    """Per-quantity agreement table between enumerative and DP paths.

    Compares brute-force Z_n, Z*_n against the DP side, and brute-force
    boundary-cylinder counts against the composition/state DP, for n up to
    min(horizon, 12).  The DP side of a preset, or of a spec with loop
    totals, is the renewal DP over its truncated return weights; of any
    other spec, the run's own sums (the transfer DP).  A preset's truncation is
    --truncate, a spec's its truncate_len.  Counts must agree exactly;
    weighted sums to 1e-12 relative in log space.
    """
    cfg.validate()
    cap = _ORACLE_TRUNCATE_CAP
    if cfg.preset is not None and (cfg.truncate is None or cfg.truncate > cap):
        raise EnumerationRefusal(
            f"oracle comparisons need --truncate <= {cap} (brute force is exponential)")
    N = min(cfg.horizon, _ORACLE_HORIZON_CAP)
    run = _Run(replace(cfg, horizon=N))
    T, phi = run.system, run.potential
    if not isinstance(T, BouquetShift):
        raise ConfigError("oracle comparisons run on bouquet presets/specs")
    if T.truncate_len > cap:  # a spec's own truncation
        raise EnumerationRefusal(
            f"oracle comparisons need a truncate_len <= _ORACLE_TRUNCATE_CAP = {cap} "
            f"(brute force is exponential); the spec has {T.truncate_len}")
    rows: list[tuple] = []
    ok = True
    try:
        brute = partition_sums_bruteforce(T, phi, ROOT, N)
    except ValueError as exc:  # a periodic word weighing +inf and -inf
        raise EnumerationRefusal(f"brute-force sums: {exc}") from exc
    if run.truncated_weights is None:
        dp = run.sums
    else:
        logw = families.log_weight_sequence(run.truncated_weights, N)
        dp = thermo.partition_sums_renewal(log_wstar=logw, N=N)
    for n in range(1, N + 1):
        for name, b, d in (("logZ", brute.logz(n), dp.logz(n)),
                           ("logZstar", brute.logzstar(n), dp.logzstar(n))):
            err = _rel_err(b, d)
            passed = err <= 1e-12
            ok &= passed
            rows.append((name, n, b, d, err, "pass" if passed else "FAIL"))
    for q in cfg.q:
        brute_cells = _bruteforce_cells(T, phi, q, cfg.M, N)
        fast_cells = infinity._grid_cells(T, phi, q, cfg.M, N)
        for M in cfg.M:
            for n, bf, count, z_phi in zip(range(1, N + 1), brute_cells[M], *fast_cells[M]):
                passed = bf.count == count
                zerr = _rel_err(bf.z_phi, z_phi)
                passed = passed and zerr <= 1e-12
                ok &= passed
                rows.append((f"z_n(M={M},q={q})", n, bf.count, count,
                             zerr, "pass" if passed else "FAIL"))
    return rows, ok


def _rel_err(a, b) -> float:
    if a is None and b is None:
        return 0.0
    if a is None or b is None:
        return math.inf
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return 0.0 if a == b else math.inf
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) / scale
