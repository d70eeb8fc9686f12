"""Enumerative oracles of the DPs: walks over the words themselves, each word
scored on its own by this module's window rule, with no DP helper.  Only
`cmshift oracle` and the tests import it.  Word limits: 2,000,000 (brute
force), 1,000,000 (periodic_points), 100,000 (enumerate_words); `cmshift
oracle` needs a truncation <= 6 (--truncate for a preset, truncate_len for a
spec) and compares n <= 12.

The two brute-force walks (partition_sums_bruteforce, and _bruteforce_cells
behind count_B_bruteforce) label the states they meet with small ints, once
per call in order of discovery, and walk the words depth first over one
list of labels and one of window weights, appending and popping at the end.
Each distinct window (each edge, in the cells walk) is weighed once per
call.  Against the walks with a tuple per prefix that they replaced, on
`cmshift oracle --preset sec52-mid --truncate 5 --horizon 12 --M 2,3 --q 1`
(Python 3.11, a shared 2-core Xeon host, least of 25 in-process calls) the
sums walk went from 21.4 to 5.4 ms and the cells walk from 12.0 to 7.5 ms.

The reference sums round once: each period's log Z_n and log Z*_n is
m + log(fsum(exp(t - m))) over its word totals t (_logsum), not
numerics.logsumexp, whose second rounding drifted past the 1e-12 bound on
sec53(beta=3,C=auto,a1=1) at truncation 3 (relative errors 1.5e-12 and
1.0e-12 at n = 11 and 12, over 136,305 and 423,757 words).  The DP side
of the cells reads the run's block graphs, so a table over several q lists
and weighs its graph once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from . import families, infinity, thermo
from .cli import RunConfig, _Run
from .numerics import LOG_ZERO
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


def _attempt(f, *args) -> tuple:
    """f(*args) and None, or None and the exception it raised: a walk keeps
    a weight's error to raise in period or cell order."""
    try:
        return f(*args), None
    except Exception as exc:
        return None, exc


class _Labels:
    """The states one walk meets, labelled 0, 1, ... in order of discovery,
    and what the walk read from each (None until it steps from there)."""

    def __init__(self) -> None:
        self.states: list[State] = []
        self.steps: list = []
        self._ids: dict[State, int] = {}

    def __call__(self, s: State) -> int:
        v = self._ids.get(s)
        if v is None:
            v = self._ids[s] = len(self.states)
            self.states.append(s)
            self.steps.append(None)
        return v


# -- partition sums -------------------------------------------------------------

def partition_sums_bruteforce(T: TransitionSystem, phi: Potential, a: State,
                              N: int, max_count: int = 2_000_000) -> thermo.PartitionSums:
    """Exact sums over enumerated periodic words through a, up to horizon N.

    One depth-first walk visits the admissible words w that start at a, in
    state order, over one list of the word's state labels and one of its
    in-word window weights, each grown and cut at the end.  The states are
    labelled in order of discovery, and each distinct window is weighed once
    per call; at memory <= 2 a window is a state or an edge, and its weight
    is kept with the step from the state before it.  A word of length n
    whose wrap edge leads back to a is a period-n point: its Birkhoff sum is
    one math.fsum over those weights and the wrap windows, in the window
    order of birkhoff_sum(..., "periodic"), so it equals that sum bit for
    bit.  Errors come as a period-by-period enumeration raises them: the
    smallest period that fails, a refusal (more than max_count words) before
    the first failing sum of that period.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    T.require(a)
    m = phi.memory
    label = _Labels()
    label(a)  # a is 0
    states, steps = label.states, label.steps
    windows: dict[tuple[int, ...], tuple] = {}

    def window(key):
        # the weight of a window of labels, or the error it raises
        out = windows.get(key)
        if out is None:
            out = windows[key] = _attempt(phi.weight, tuple(states[i] for i in key))
        return out

    def step(u):
        # whether u -> a closes a word; u's successors v in state order, each
        # with the weight or error of the window ending at v: (v,) at memory
        # 1, (u, v) at memory 2, else None, None for the walk to weigh; and
        # at memory 2 the wrap window (u, a) of a word ending at u
        s = states[u]
        closes = T.has_edge(s, a)
        kids = [label(t) for t in T.successors(s)]
        if m <= 2:
            kids = [(v, *window((v,) if m == 1 else (u, v))) for v in kids]
        else:
            kids = [(v, None, None) for v in kids]
        wraps = [window((u, 0))] if closes and m == 2 else []
        steps[u] = out = closes, kids, wraps
        return out

    counts = [0] * (N + 1)
    terms: list[list[float]] = [[] for _ in range(N + 1)]
    star_terms: list[list[float]] = [[] for _ in range(N + 1)]
    failed: dict[int, Exception] = {}
    top, refused = N, None  # a refusal at period n stops the walk below n
    # the prefix: its length d, its labels, its in-word window weights, its
    # first failing window and the length it failed at, its returns to a
    # after the first letter; a word is the prefix and one successor
    d, path, ws, err, err_d, returns = 0, [], [], None, 0, 0
    stack = [iter([(0, *window((0,))) if m == 1 else (0, None, None)])]  # successors to visit
    while stack:
        nxt = next(stack[-1], None) if d < top else None
        if nxt is None:  # the prefix is done: cut its last letter
            stack.pop()
            if d:
                if path.pop() == 0 and d > 1:
                    returns -= 1
                if d >= m:
                    ws.pop()
                if d == err_d:
                    err = None
                d -= 1
            continue
        u, wt, werr = nxt
        n, back = d + 1, u == 0 and d > 0  # back: the word returns to a at its end
        if m > 2 and n >= m and err is None:
            wt, werr = window((*path[n - m:], u))
        closes, kids, wraps = steps[u] or step(u)
        if closes:
            counts[n] += 1
            if counts[n] > max_count:
                top, refused = n - 1, n
                continue
            if err is not None or werr is not None:
                failed.setdefault(n, werr if err is None else err)
            elif n not in failed:
                if m > 2:
                    around = (path + [u]) * (1 + (m + n - 2) // n)  # the word read past its end
                    wraps = [window(tuple(around[i:i + m]))
                             for i in range(max(n - m + 1, 0), n)]
                weights = ws + [wt] if n >= m else []
                for wt_i, exc in wraps:
                    if exc is not None:  # raised below, in period order
                        failed[n] = exc
                        break
                    weights.append(wt_i)
                else:
                    try:
                        total = math.fsum(weights)
                    except ValueError:  # fsum of +inf and -inf
                        failed[n] = ValueError(
                            f"the weight of a period-{n} word through {a!r} is "
                            "undefined: its windows weigh +inf and -inf")
                    else:
                        terms[n].append(total)
                        if not (returns or back):
                            star_terms[n].append(total)
        if n < top:  # the word is a prefix of longer ones
            path.append(u)
            if n >= m:
                ws.append(wt)
                if err is None and werr is not None:
                    err, err_d = werr, n
            returns += back
            d = n
            stack.append(iter(kids))
    for n in range(1, N + 1):
        if n == refused:
            raise EnumerationRefusal(f"more than {max_count} periodic words of period {n}")
        if n in failed:
            raise failed[n]
    return thermo.PartitionSums(a, N, [_logsum(t) for t in terms[1:]],
                         [_logsum(t) for t in star_terms[1:]], "brute-force",
                         counts[1:], [len(t) for t in star_terms[1:]])


def _logsum(terms: Sequence[float]) -> float:
    """log sum exp(terms), rounded once: m + log(fsum(exp(t - m))) for the
    largest term m.  numerics.logsumexp adds its expm1 terms near -1 and
    then k - 1 back, which rounds twice and loses about log2(k) bits when
    most of the k terms lie far below m; a period of the oracle's sizes has
    up to half a million terms.  Its special cases hold here too: no terms
    (or only -inf ones) give LOG_ZERO, a +inf maximum gives +inf, and a NaN
    propagates."""
    xs = [t for t in terms if t != LOG_ZERO]
    if not xs:
        return LOG_ZERO
    m = max(xs)
    if math.isinf(m):
        return m
    return m + math.log(math.fsum([math.exp(t - m) for t in xs]))


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
    admissible word of length <= N + 1, over one list of the word's edge
    weights grown and cut at the end.  The states it meets are labelled in
    order of discovery, and each labelled edge is weighed once per call (each
    state once, at memory 1).  A word of length n + 1 with a low endpoint
    counts in every cell (n, M) with visits * M <= n + 1, its visits being
    the low states at every coordinate but the last, and its Birkhoff sum is
    one math.fsum over its n edge weights, taken in word order.  Errors come
    as the cells raise them one n after the other: a refusal when a word of
    length n + 1 follows the `limit`-th one that ends low (where an ordered
    enumeration capped at `limit` stops short), else the first failing sum
    of that length.
    """
    lows = T.states_up_to(q)
    lowset = set(lows)
    with_phi = phi is not None
    label = _Labels()
    states, steps = label.states, label.steps

    def step(u):
        # whether u is low, and its successors in state order, each with the
        # weight of its edge from u or the error that weight raises
        s = states[u]
        succ = T.successors(s)
        if not with_phi:
            weights = [(None, None)] * len(succ)
        elif phi.memory == 1 and succ:  # every edge out of s has the window (s,)
            weights = [_attempt(_edge_weight, phi, s, None)] * len(succ)
        else:
            weights = [_attempt(_edge_weight, phi, s, t) for t in succ]
        steps[u] = out = s in lowset, [(label(t), *w) for t, w in zip(succ, weights)]
        return out

    M_low = min(M_list)
    counts = {M: [0] * (N + 1) for M in M_list}
    bests = {M: [LOG_ZERO] * (N + 1) for M in M_list}
    ends = [0] * (N + 2)  # words with a low endpoint, per length
    failed: dict[int, Exception] = {}
    top, refused = N + 1, None  # a refusal at length k stops the walk below k
    # the prefix: its length d, whether each coordinate is low, its edge
    # weights, its first failing edge and the length it failed at, its low
    # visits; a word is the prefix and one successor, of length d + 1
    d, marks, ws, err, err_d, visits = 0, [], [], None, 0, 0
    stack = [iter([(label(s), None, None) for s in lows])]  # successors to visit
    while stack:
        nxt = next(stack[-1], None) if d < top else None
        if nxt is None:  # the prefix is done: cut its last coordinate
            stack.pop()
            if d:
                visits -= marks.pop()
                if d > 1:
                    ws.pop()
                if d == err_d:
                    err = None
                d -= 1
            continue
        u, wt, werr = nxt
        low, kids = steps[u] or step(u)
        if d >= n_min:  # the word fills the cells n = d
            if ends[d + 1] >= limit:
                top, refused = d, d
                if d <= n_min:
                    break
                continue
            if low:
                ends[d + 1] += 1
                if visits * M_low <= d + 1:
                    total = None
                    if err is not None or werr is not None:
                        failed.setdefault(d, werr if err is None else err)
                    elif with_phi and d not in failed:
                        ws.append(wt)
                        try:
                            total = math.fsum(ws)
                        except Exception as exc:  # raised below, in cell order
                            failed[d] = exc
                        ws.pop()
                    for M in counts:
                        if visits * M <= d + 1:
                            counts[M][d] += 1
                            if total is not None:
                                bests[M][d] = max(bests[M][d], total / d)
        if d + 1 < top:  # the word is a prefix of longer ones
            if d:
                ws.append(wt)
                if err is None and werr is not None:
                    err, err_d = werr, d + 1
            d += 1
            marks.append(low)
            visits += low
            stack.append(iter(kids))
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
    if T is None:  # a bouquet preset with parallel self-loops
        a = run.spec.a
        hint = "; try a1=1, as in sec53(beta=3,C=auto,a1=1)" if a.form == "geometric" else ""
        raise ConfigError(f"oracle comparisons run on a bouquet graph, and {cfg.preset} has "
                          f"none: a graph needs a(1) <= 1, and it has a(1) = {a.count(1)}{hint}")
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
        fast_cells = infinity._grid_cells(T, phi, q, cfg.M, N, graphs=run.graphs)
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
