"""Boundary-cylinder counting and entropy/contraction-at-infinity profiles."""

import math
import random
from dataclasses import astuple
from itertools import accumulate
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmshift import (BouquetShift, BouquetSpec, EnumerationRefusal, FiniteShift,
                     LoopCountFamily, Plain, Potential, TauSpec, build_bouquet,
                     build_preset, count_B, delta_profile, hinf_profile,
                     profile_pair)
from cmshift.infinity import (Column, CountB, _composition_fill,
                              _contraction_fit, _count_B_sweep, _count_diagnostics,
                              _grid_cells, _loop_runs, _profile_window, _slot, _sweep_width)
from cmshift.numerics import LOG_ZERO, count_push, linear_fit, maxplus_push
from cmshift.oracle import (_bruteforce_cells, _edge_weight, count_B_bruteforce,
                            enumerate_words)
from cmshift.shift import ROOT, SWEEP_STATE_CAP, BlockGraphs, IndexedGraph, index_graph
from conftest import ORACLE_INPUTS

LOG2 = math.log(2.0)


def _cells(columns):
    # the CountB cells of the per-M count and z_phi columns of a fill or a
    # sweep, one cell at a time
    return {M: [CountB.of(count, z_phi) for count, z_phi in zip(*col)]
            for M, col in columns.items()}


def _columns(cells):
    # the profile Column of each list of CountB cells
    return {key: Column([cb.count for cb in col], [cb.log_count for cb in col],
                        [cb.z_phi for cb in col]) for key, col in cells.items()}


def _sweep(T, phi, q, M_list, N):
    # a lone state sweep, on block graphs of its own and the slot width of
    # this q and N, as cells
    graphs = BlockGraphs(T, phi)
    return _cells(_count_B_sweep(graphs, phi, q, M_list, N, _sweep_width(graphs, phi, q, N)))


@pytest.fixture
def full3():
    return FiniteShift([[1, 1, 1]] * 3)


@pytest.fixture
def sec52():
    return build_preset("sec52-entry", truncate_len=5)


# -- counting: DP vs brute force -----------------------------------------------------

def test_count_B_full3_brute_matches_dp(full3):
    # q = 1 forces both endpoints to state 1; the low-visit window covers the
    # first n coordinates (the same window the Birkhoff sum uses)
    for n in range(1, 7):
        for M in (1, 2, 3, 4):
            bf = count_B_bruteforce(full3, None, n, M, 1)
            dp = count_B(full3, None, n, M, 1)
            assert bf.count == dp.count


def test_count_B_full3_reference_value(full3):
    # brute-force frozen value at (n=5, M=3, q=1) under the first-n counting
    # window: the literal (n+1)-coordinate reading would give 16
    assert count_B(full3, None, 5, 3, 1).count == 48


def test_count_B_bouquet_all_grids_match_bruteforce(sec52):
    T, phi = sec52.system, sec52.potential
    for q in (1, 2, 3):
        for M in (1, 2, 3):
            for n in range(1, 11):
                bf = count_B_bruteforce(T, phi, n, M, q)
                dp = count_B(T, phi, n, M, q)
                assert bf.count == dp.count, (n, M, q)
                if bf.z_phi == LOG_ZERO:
                    assert dp.z_phi == LOG_ZERO
                else:
                    assert dp.z_phi == pytest.approx(bf.z_phi, abs=1e-12)


def test_count_B_multi_loop_family_matches_bruteforce():
    # two loops per length exercise loop indices > 1 and q reaching into
    # loop-vertex states in the generic DP
    fam = LoopCountFamily("list", values=(1, 2, 2))
    T = BouquetShift(fam, truncate_len=3)
    phi = Potential(2, {}, -0.25)
    for q in (1, 2, 4):
        for M in (1, 2, 3):
            for n in range(1, 9):
                bf = count_B_bruteforce(T, phi, n, M, q)
                dp = count_B(T, phi, n, M, q)
                assert bf.count == dp.count, (n, M, q)
                if bf.count:
                    assert dp.z_phi == pytest.approx(bf.z_phi, abs=1e-12)


def test_count_B_composition_route_handles_multiplicities():
    # same multi-index family through the composition DP (scheme potential
    # carries per-loop totals), against enumeration
    from cmshift import BouquetSpec, TauSpec, build_bouquet

    fam = LoopCountFamily("list", values=(1, 2, 2))
    spec = BouquetSpec(fam, "entry", TauSpec("table", table=(-0.5, -1.0, -2.3)),
                       truncate_len=3)
    b = build_bouquet(spec)
    for M in (1, 2, 3):
        for n in range(1, 10):
            bf = count_B_bruteforce(b.system, b.potential, n, M, 1)
            dp = count_B(b.system, b.potential, n, M, 1)
            assert bf.count == dp.count, (n, M)
            if bf.count:
                assert dp.z_phi == pytest.approx(bf.z_phi, abs=1e-12)


def test_count_B_empty_when_cap_below_one(sec52):
    # a single low visit is unavoidable, so M > n + 1 empties the set
    res = count_B(sec52.system, sec52.potential, 3, 5, 1)
    assert res.count == 0 and res.log_count == LOG_ZERO and res.z_phi == LOG_ZERO


def test_count_B_zero_q_is_empty(full3):
    assert count_B(full3, None, 4, 2, 0).count == 0


def test_count_B_zero_potential_gives_zero_values(full3):
    phi = Potential(1, {}, 0.0)
    res = count_B(full3, phi, 4, 2, 1)
    assert res.count > 0
    assert res.z_phi == pytest.approx(0.0)


def test_count_B_monotone_in_M(sec52):
    T, phi = sec52.system, sec52.potential
    for q in (1, 2):
        for n in range(1, 11):
            prev = None
            for M in (1, 2, 3, 4, 6):
                c = count_B(T, phi, n, M, q).count
                if prev is not None:
                    assert c <= prev
                prev = c


def test_exact_rational_cardinality_comparison(sec52):
    # visits * M <= n + 1 exactly: at n = 29, M = 2 a composition with 15
    # parts is admitted (15 * 2 = 30 <= 30) while 16 parts are not
    T = BouquetShift(LoopCountFamily("ones"), truncate_len=29)
    phi = build_preset("sec52-entry", truncate_len=29).potential
    n = 29
    counts = {j: 0 for j in (15, 16)}
    total = count_B(T, None, n, 2, 1).count
    # compositions of 29 into at most 15 parts
    comp = [[0] * (n + 1) for _ in range(n + 2)]
    comp[0][0] = 1
    for j in range(1, n + 2):
        for m in range(1, n + 1):
            comp[j][m] = sum(comp[j - 1][m - k] for k in range(1, m + 1))
    want = sum(comp[j][n] for j in range(1, 16))
    assert total == want


# -- cell read-off ------------------------------------------------------------------------

def _read_off_accumulate(cells, n, counts, bests, with_phi):
    # the oracles' read-off, by its definition: the running total and the
    # running maximum max(acc, x) over every visit index, read at each cap
    totals = list(accumulate(counts))
    tops = list(accumulate(bests, max))
    for M, col in cells.items():
        total, zbest = totals[(n + 1) // M], tops[(n + 1) // M]
        zphi = None
        if with_phi:
            zphi = zbest / n if (zbest != LOG_ZERO and total) else LOG_ZERO
        col.append(CountB(total, math.log(total) if total else LOG_ZERO, zphi))


def _packed_prefix(counts):
    # the prefix sums of counts, packed at exactly the bit width of the
    # largest (the last); all-zero counts pack at width 0
    sums = list(accumulate(counts))
    width = sums[-1].bit_length()
    return sum(total << v * width for v, total in enumerate(sums)), width


def _same_slot_read(n, M_list, counts):
    row, width = _packed_prefix(counts)
    sums = list(accumulate(counts))
    for M in M_list:
        assert _slot(row, (n + 1) // M, width) == sums[(n + 1) // M]


@pytest.mark.parametrize("n, M_list, counts", [
    # caps 1 and 3, with an empty visit number between them
    (5, [6, 2], [3 ** 70, 0, 3 ** 71, 3 ** 72]),
    # a total of 2**64 - 1 fills every bit of its slot
    (5, [2, 6, 3], [2 ** 63, 2 ** 62, 2 ** 62 - 1, 0]),
    # M = 4 and M = 5 share the cap 2; M = 1 reads the last slot
    (9, [4, 1, 5], [0, 1, 0, 2 ** 80, 0, 7, 2 ** 79, 3, 0, 1, 2 ** 80]),
    # all counts 0: slots of width 0 read 0
    (1, [1], [0, 0, 0]),
])
def test_slot_read_equals_the_accumulate_definition(n, M_list, counts):
    _same_slot_read(n, M_list, counts)


@settings(max_examples=200)
@given(data=st.data())
def test_slot_read_equals_the_accumulate_definition_on_draws(data):
    # caps in any order, shared or not, rows wider than the largest cap
    n = data.draw(st.integers(min_value=1, max_value=30))
    M_list = data.draw(st.lists(st.integers(min_value=1, max_value=n + 2), min_size=1,
                                max_size=5, unique=True))
    width = (n + 1) // min(M_list) + 1 + data.draw(st.integers(min_value=0, max_value=2))
    counts = data.draw(st.lists(st.integers(min_value=0, max_value=2 ** 80),
                                min_size=width, max_size=width))
    _same_slot_read(n, M_list, counts)


# -- domination bound (decomposition into prefix/loops/suffix) --------------------------

def test_composition_bound_dominates_enumerated_count(sec52):
    T, phi = sec52.system, sec52.potential
    for q in (1, 2, 3):
        n_low = len(T.states_up_to(q))
        for M in (2, 3):
            for n in range(2, 10):
                z = count_B_bruteforce(T, None, n, M, q).count
                cap = (n + 1) // M
                comp = [[0] * (n + 1) for _ in range(cap + 1)]
                comp[0][0] = 1
                for j in range(1, cap + 1):
                    for m in range(1, n + 1):
                        comp[j][m] = sum(
                            T.a.count(k) * comp[j - 1][m - k]
                            for k in T.loop_lengths() if k <= m)
                dominating = n_low * n_low * sum(
                    comp[j][m] for j in range(cap + 1) for m in range(n + 1))
                assert z <= dominating


# -- profiles --------------------------------------------------------------------------

@settings(max_examples=25)
@given(data=st.data())
def test_profile_rows_match_bruteforce_on_random_shifts(data):
    # random transitive shifts (a cycle through every state plus random edges)
    # with random memory-2 weights: every profile cell the one-sweep state DP
    # fills must equal the enumerated count, and its z_phi the enumerated max
    S = data.draw(st.integers(min_value=2, max_value=5))
    matrix = [[int(j == (i + 1) % S or data.draw(st.booleans()))
               for j in range(S)] for i in range(S)]
    T = FiniteShift(matrix)
    phi = Potential(2, {
        (Plain(i + 1), Plain(j + 1)): data.draw(
            st.floats(min_value=-3, max_value=2, allow_nan=False))
        for i in range(S) for j in range(S) if matrix[i][j]})
    q_list = sorted(data.draw(st.sets(st.integers(1, S), min_size=1, max_size=3)))
    M_list = sorted(data.draw(st.sets(st.integers(1, 5), min_size=1, max_size=3)))
    N = 6
    hp = hinf_profile(T, q_list, M_list, N)
    dp = delta_profile(T, phi, q_list, M_list, N)
    for hrow, drow in zip(hp.rows, dp.rows):
        n, M, q = hrow[:3]
        assert drow[:3] == (n, M, q)
        bf = count_B_bruteforce(T, phi, n, M, q)
        assert hrow[3] == drow[3] == bf.count, (n, M, q)
        assert hrow[5] is None
        if bf.count:
            assert drow[5] == pytest.approx(bf.z_phi, abs=1e-12)
        else:
            assert drow[5] == LOG_ZERO



@settings(max_examples=30)
@given(data=st.data())
def test_composition_fill_matches_bruteforce_on_random_bouquets(data):
    # up to 3 loops per length (at most one self-loop), per-loop totals from
    # a table, any weight scheme: every q = 1 cell against enumeration
    L = data.draw(st.integers(min_value=1, max_value=5))
    counts = [data.draw(st.integers(min_value=0, max_value=1))] + [
        data.draw(st.integers(min_value=0, max_value=3)) for _ in range(L - 1)]
    if not any(counts):
        counts[-1] = 1
    table = tuple(data.draw(st.integers(min_value=-16, max_value=4)) / 8
                  for _ in range(L))
    scheme = data.draw(st.sampled_from(["entry", "exit", "midpoint", "spread"]))
    build = build_bouquet(BouquetSpec(LoopCountFamily("list", values=tuple(counts)),
                                      scheme, TauSpec("table", table=table), L))
    T, phi = build.system, build.potential
    M_list = sorted(data.draw(st.sets(st.sampled_from([1, 2, 3, 5]),
                                      min_size=1, max_size=3)))
    N = 6
    hp = hinf_profile(T, [1], M_list, N)
    dp = delta_profile(T, phi, [1], M_list, N)
    for hrow, drow in zip(hp.rows, dp.rows):
        n, M, q = hrow[:3]
        bf = count_B_bruteforce(T, phi, n, M, q)
        assert hrow[3] == drow[3] == bf.count, (n, M)
        if bf.count:
            assert drow[5] == pytest.approx(bf.z_phi, abs=1e-12)
        else:
            assert drow[5] == LOG_ZERO
        one = count_B(T, phi, n, M, q)
        assert (one.count, one.z_phi) == (drow[3], drow[5])


@settings(max_examples=20)
@given(data=st.data())
def test_composition_fill_matches_state_sweep_at_long_horizons(data):
    # beyond brute-force range: the q = 1 composition route and the state
    # sweep fill every cell of the same bouquet graph at N = 30..40
    L = data.draw(st.integers(min_value=1, max_value=6))
    counts = [data.draw(st.integers(min_value=0, max_value=1))] + [
        data.draw(st.integers(min_value=0, max_value=3)) for _ in range(L - 1)]
    if not any(counts):
        counts[-1] = 1
    table = tuple(data.draw(st.integers(min_value=-16, max_value=4)) / 8
                  for _ in range(L))
    scheme = data.draw(st.sampled_from(["entry", "exit", "midpoint", "spread"]))
    build = build_bouquet(BouquetSpec(LoopCountFamily("list", values=tuple(counts)),
                                      scheme, TauSpec("table", table=table), L))
    T, phi = build.system, build.potential
    M_list = sorted(data.draw(st.sets(st.sampled_from([1, 2, 3, 5, 8]),
                                      min_size=1, max_size=3)))
    N = data.draw(st.integers(min_value=30, max_value=40))
    fast = _cells(_composition_fill(T, phi, M_list, N))
    sweep = _sweep(T, phi, 1, M_list, N)
    assert fast.keys() == sweep.keys()
    for M in M_list:
        for n, (a, b) in enumerate(zip(fast[M], sweep[M]), start=1):
            assert a.count == b.count, (n, M)
            if b.z_phi == LOG_ZERO:
                assert a.z_phi == LOG_ZERO, (n, M)
            else:
                assert a.z_phi == pytest.approx(b.z_phi, abs=1e-12), (n, M)


def _composition_fill_loops(T, phi, M_list, N):
    # the per-entry Python loops the vectorised fill replaced, kept as an
    # oracle for its float rules (LOG_ZERO skipped, strict > wins)
    with_phi = phi is not None
    jmax = (N + 1) // min(M_list)
    loops = [(k, T.a.count(k), phi.loop_total(k) if with_phi else 0.0)
             for k in T.loop_lengths() if k <= N]
    cnt = [[1] + [0] * jmax]
    best = [[0.0 if with_phi else LOG_ZERO] + [LOG_ZERO] * jmax]
    cells = {M: [] for M in M_list}
    for n in range(1, N + 1):
        c, b = [0] * (jmax + 1), [LOG_ZERO] * (jmax + 1)
        for k, a, tau in loops:
            if k > n:
                break
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
        _read_off_accumulate(cells, n, c, b, with_phi)
    return cells


_INF, _NAN = math.inf, math.nan


# (family, truncation, grids (M_list, N)) of the float-rule oracle: the
# packed prefix rows' edge cases and the object rows of wide counts
_FILL_CASES = [
    # loops of lengths 1, 2, 4, 5; M = 1 (N + 2 slots), a cap of 0 and a
    # loop beyond N
    (LoopCountFamily("list", values=(1, 2, 0, 3, 1)), 5,
     [([1, 2, 3], 14), ([2, 5], 9), ([20], 4)]),
    # a(k) = 1 for every k <= N: the largest total, 2**(N - 1), sets the top
    # bit of an 8-bit slot at N = 8 and needs a 9-bit slot at N = 9
    (LoopCountFamily("ones"), 9, [([1, 2], 8), ([1, 3], 9)]),
    # N = 1: one loop fits and the rest lie beyond N; caps 2, 1 and 0
    (LoopCountFamily("ones"), 9, [([1, 2], 1), ([3], 1)]),
    # totals past 64 bits (3**40 > 2**63) in a run of ratio 3
    (LoopCountFamily("geometric", ratio=3, a1=1), 12, [([1, 2, 5], 40)]),
    # sec54's a(1) = 1 family: slots wider than _PACKED_SLOT_BITS, so the
    # object rows
    (LoopCountFamily("double_exponential", a1=1), 8, [([2, 4, 8], 24), ([1, 30], 12)]),
    # a(1) = 1 and one run of ratio 2**40 over lengths 2..12, whose totals
    # pass _PACKED_SLOT_BITS at n = 16: a chain's windows on the object rows
    # at N = 60 and on packed rows at N = 15
    (LoopCountFamily("geometric", ratio=2**40, a1=1), 12, [([2, 4, 8], 60), ([1, 3], 15)]),
    # no loop length <= N: the shortest loop is 5
    (LoopCountFamily("list", values=(0, 0, 0, 0, 1, 2)), 6, [([1, 2], 4), ([2, 3], 1)]),
    # lengths 1, 2, 19, 36: gaps of 16 between them, wider than the rows a
    # column changes while only the short loops reach
    (LoopCountFamily("list", values=(1, 1) + (0,) * 16 + (2,) + (0,) * 16 + (1,)), 36,
     [([1, 2, 3], 60), ([4], 40)]),
]


@pytest.mark.parametrize("totals", [
    (-0.5, _INF, 0.0, 0.25, -1.0),
    (-0.5, _NAN, 0.0, 0.25, _NAN),
    (-_INF, -0.5, 0.0, -_INF, 0.25),
    (-0.0, -0.0, -0.0, -0.0, -0.0),
    (_NAN, _INF, 0.5, -_INF, -0.0),
    # +inf on every length, or on length 1 beside loops that never win:
    # each column changes only the rows it newly reaches, so the best sums
    # freeze early
    (_INF, _INF, _INF, _INF, _INF),
    (_INF, _NAN, -_INF, _NAN, -_INF),
    # a zero potential: the best sums stop changing after a few columns
    (0.0, 0.0, 0.0, 0.0, 0.0),
    None,
])
def test_composition_fill_keeps_the_float_rules_of_the_loops(totals):
    # totals[(k - 1) % 5] is the total of loop length k
    phi = None
    if totals is not None:
        phi = Potential(2, {}, 0.0)
        phi.loop_total = lambda k: totals[(k - 1) % 5]
    for family, L, grids in _FILL_CASES:
        T = BouquetShift(family, truncate_len=L)
        for M_list, N in grids:
            fast = _cells(_composition_fill(T, phi, M_list, N))
            assert repr(fast) == repr(_composition_fill_loops(T, phi, M_list, N)), (L, N)
            for col in fast.values():
                for cell in col:
                    assert type(cell) is CountB and type(cell.count) is int
                    assert cell.z_phi is None or type(cell.z_phi) is float


@pytest.mark.parametrize("family, L, N, route", [
    (LoopCountFamily("ones"), 40, 240, "packed"),
    (LoopCountFamily("geometric", ratio=2, a1=1), 25, 200, "packed"),
    (LoopCountFamily("double_exponential", a1=1), 8, 60, "object"),
])
def test_composition_fill_packs_only_narrow_counts(monkeypatch, family, L, N, route):
    # the totals pass, then the packed prefix rows (one int per row) while
    # the largest total fits _PACKED_SLOT_BITS (renewal-ones, sec53's
    # a(1) = 1 family) and the object rows (one object array per row)
    # beyond it (sec54's a(1) = 1 family), at the presets' L
    import numpy as np

    import cmshift.infinity

    calls = []
    run_rows = cmshift.infinity._run_rows
    monkeypatch.setattr(cmshift.infinity, "_run_rows",
                        lambda *a: calls.append(run_rows(*a)) or calls[-1])
    _composition_fill(BouquetShift(family, L), None, [2, 4, 8], N)
    assert len(calls) == 2
    totals, rows = calls
    assert {type(row) for row in totals} == {int}
    if route == "packed":
        assert {type(row) for row in rows} == {int}
    else:
        assert {(type(row), row.dtype) for row in rows} == {(np.ndarray, np.dtype(object))}
    assert len(rows) == N + 1
    width = max(totals).bit_length()
    assert (width > cmshift.infinity._PACKED_SLOT_BITS) == (route == "object")
    # the totals pass runs to N on narrow counts and stops at the first wide total
    assert max(totals[:-1]).bit_length() <= cmshift.infinity._PACKED_SLOT_BITS
    assert (len(totals) < N + 1) == (route == "object")


def test_composition_fill_stops_at_the_first_unchanged_column(monkeypatch):
    # renewal-ones (zero potential, L = 40) at N = 240: column c of the best
    # sums reaches the rows n <= 40 c, so columns 1..6 change rows and
    # column 7 changes none; the fill computes those 7 of its jmax = 120
    # columns and keeps columns 0..6
    import cmshift.infinity

    kept = []
    best_sums = cmshift.infinity._best_sums
    monkeypatch.setattr(cmshift.infinity, "_best_sums",
                        lambda *a: kept.append(best_sums(*a)) or kept[-1])
    build = build_preset("renewal-ones", truncate_len=40)
    fill = _cells(_composition_fill(build.system, build.potential, [2, 4, 8], 240))
    assert len(kept) == 1 and len(kept[0]) == 7
    assert {cell.z_phi for col in fill.values() for cell in col} == {0.0, LOG_ZERO}


def _runs_of(fam, L):
    lengths = fam.support(L)
    return _loop_runs(lengths, [fam.count(k) for k in lengths])


def test_loop_runs_of_named_families():
    # renewal-ones and sec52: one run of ratio 1
    assert _runs_of(LoopCountFamily("ones"), 6) == [(1, 6, 1, 1)]
    # sec53's a(1)=1 profile family 1, 4, 8, 16, ...: a(1) stands alone
    assert _runs_of(LoopCountFamily("geometric", ratio=2, a1=1), 6) == [
        (1, 1, 1, 0), (2, 6, 4, 2)]
    # a stretch of two lengths stays two single ones
    assert _runs_of(LoopCountFamily("geometric", ratio=3, a1=1), 3) == [
        (1, 1, 1, 0), (2, 2, 9, 0), (3, 3, 27, 0)]
    # sec54's a(1)=1 family 1, 2^4, 2^8, 2^16, 2^32: one run, then singles
    assert _runs_of(LoopCountFamily("double_exponential", a1=1), 5) == [
        (1, 3, 1, 16), (4, 4, 2**16, 0), (5, 5, 2**32, 0)]
    assert _runs_of(LoopCountFamily("double_exponential", a1=0), 5) == [
        (k, k, 2**2**k, 0) for k in range(2, 6)]
    # gaps end runs; a pair that stops gives up its first length; 4, 6, 9 has
    # the ratio 3/2, so no run
    assert _runs_of(LoopCountFamily("list", values=(1, 2, 2, 2, 0, 4, 6, 9, 3, 1)), 10) == [
        (1, 1, 1, 0), (2, 4, 2, 1), (6, 6, 4, 0), (7, 7, 6, 0), (8, 8, 9, 0),
        (9, 9, 3, 0), (10, 10, 1, 0)]


@st.composite
def _run_heavy_family(draw):
    kind = draw(st.sampled_from(["ones", "geometric", "stretches", "double", "gaps"]))
    if kind == "ones":
        return LoopCountFamily("ones"), draw(st.integers(min_value=1, max_value=60))
    if kind == "geometric":
        r = draw(st.integers(min_value=1, max_value=3))
        a1 = draw(st.sampled_from([1, 0] if r > 1 else [None, 1, 0]))
        return (LoopCountFamily("geometric", ratio=r, a1=a1),
                draw(st.integers(min_value=2, max_value=60)))
    if kind == "double":
        # from L = 6 on, the counts are wider than _PACKED_SLOT_BITS at N = 60
        return (LoopCountFamily("double_exponential", a1=draw(st.sampled_from([1, 0]))),
                draw(st.integers(min_value=2, max_value=8)))
    if kind == "gaps":
        # a few lengths up to 30 apart, the first possibly beyond N: gaps
        # wider than a column's changed rows, or no loop length <= N
        values = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            values += [0] * draw(st.integers(min_value=0, max_value=30))
            values.append(draw(st.integers(min_value=1, max_value=3)) if values else 1)
        return LoopCountFamily("list", values=tuple(values)), len(values)
    # geometric stretches a0 * rho**i separated by runs of zero counts
    values = [draw(st.integers(min_value=0, max_value=1))]
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        values += [0] * draw(st.integers(min_value=0, max_value=2))
        a0 = draw(st.integers(min_value=1, max_value=4))
        rho = draw(st.integers(min_value=1, max_value=3))
        values += [a0 * rho**i for i in range(draw(st.integers(min_value=1, max_value=8)))]
    return LoopCountFamily("list", values=tuple(values)), len(values)


@settings(max_examples=60)
@given(data=st.data())
def test_composition_fill_equals_the_loops_on_run_heavy_families(data):
    # the run recurrence against the per-entry loops: counts equal as ints,
    # log counts and best sums equal in repr
    import cmshift.infinity

    fam, L = data.draw(_run_heavy_family())
    T = BouquetShift(fam, L)
    phi = None
    kind = data.draw(st.sampled_from([None, "drawn", "inf on length 1", "zero"]))
    if kind is not None:
        # drawn totals, the same with +inf on length 1, or a zero potential,
        # whose best sums stop changing after a few columns
        weights = st.integers(min_value=-24, max_value=8).map(lambda k: k / 8)
        totals = ([0.0] * L if kind == "zero" else
                  data.draw(st.lists(weights, min_size=L, max_size=L)))
        if kind == "inf on length 1":
            totals[0] = _INF
        phi = Potential(2, {}, 0.0)
        phi.loop_total = lambda k: totals[k - 1]
    # M = 64 > N + 1 has cap 0 at every n; L and N are drawn apart, so loops
    # reach beyond N
    M_list = sorted(data.draw(st.sets(st.sampled_from([1, 2, 3, 5, 8, 64]),
                                      min_size=1, max_size=3)))
    N = data.draw(st.integers(min_value=1, max_value=60))
    # every family on both count layouts: object rows at 0, packed rows at
    # 10**9, and the rule's own choice at 640
    bits = data.draw(st.sampled_from([0, 640, 10**9]))
    with patch.object(cmshift.infinity, "_PACKED_SLOT_BITS", bits):
        fast = _cells(_composition_fill(T, phi, M_list, N))
    assert repr(fast) == repr(_composition_fill_loops(T, phi, M_list, N))
    for col in fast.values():
        assert all(type(cell.count) is int for cell in col)


def _count_B_sweep_loops(T, phi, q, M_list, N):
    # the hand-written edge loop the kernel sweep replaced, kept as an oracle
    # for its float rules (LOG_ZERO skipped, strict > wins, sources in layer
    # then state order)
    graph = index_graph(T, SWEEP_STATE_CAP, "profile state sweep")
    succ = graph.weighted(phi) if phi is not None else \
        [[(j, 0.0) for j in js] for js in graph.succ]
    S = len(graph.states)
    low = [int(i < q) for i in range(S)]
    lows = range(min(q, S))
    vcap = (N + 1) // min(M_list)
    cnt = [[0] * S for _ in range(vcap + 1)]
    best = [[LOG_ZERO] * S for _ in range(vcap + 1)]
    for i in lows:
        cnt[0][i] = 1
        if phi is not None:
            best[0][i] = 0.0
    cells = {M: [] for M in M_list}
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
        _read_off_accumulate(cells, n, [sum(row[i] for i in lows) for row in cnt],
                             [max((row[i] for i in lows), default=LOG_ZERO)
                              for row in best], phi is not None)
    return cells


@settings(max_examples=60)
@given(data=st.data())
def test_count_B_sweep_equals_the_edge_loop(data):
    # random transitive 1-8-state shifts, memory-1/2 weights drawn partly
    # from the float specials, with and without a potential, M lists with and
    # without 1: every cell of the kernel sweep equals the loop's in repr
    S = data.draw(st.integers(min_value=1, max_value=8))
    matrix = [[int(j == (i + 1) % S or data.draw(st.booleans()))
               for j in range(S)] for i in range(S)]
    T = FiniteShift(matrix)
    phi = None
    if data.draw(st.booleans()):
        weights = st.one_of(st.sampled_from([_INF, -_INF, _NAN, -0.0]),
                            st.integers(min_value=-16, max_value=8).map(lambda k: k / 8))
        memory = data.draw(st.sampled_from([1, 2]))
        words = [(Plain(i + 1),) for i in range(S)] if memory == 1 else \
            [(Plain(i + 1), Plain(j + 1)) for i in range(S) for j in range(S)
             if matrix[i][j]]
        phi = Potential(memory, {w: data.draw(weights) for w in words},
                        data.draw(weights))
    q = data.draw(st.integers(min_value=1, max_value=S + 1))
    M_list = sorted(data.draw(st.sets(st.integers(1, 6), min_size=1, max_size=3)))
    N = data.draw(st.integers(min_value=1, max_value=9))
    assert repr(_sweep(T, phi, q, M_list, N)) \
        == repr(_count_B_sweep_loops(T, phi, q, M_list, N))


def _climb(layers, lo, empty):
    # move the entries of the low states 0..lo-1 up one visit layer; layer 0
    # gets empty ones, and those of the top layer drop out
    below = [[empty] * lo] + layers[:-1]
    return [under[:lo] + row[lo:] for under, row in zip(below, layers)]


def _per_layer_sweep(T, phi, q, M_list, N):
    # the sweep before the dominance skip, kept as the oracle of the sparse
    # layers: each dense visit layer of the counts and of the best sums
    # pushed on its own, with no floor
    blocks = graph = index_graph(T, SWEEP_STATE_CAP, "profile state sweep", phi.memory)
    if blocks.block > 1:
        graph = index_graph(T, SWEEP_STATE_CAP, "profile state sweep")
    S, lo, B, blo = len(graph.states), graph.low(q), len(blocks.states), blocks.low(q)
    vcap = (N + 1) // min(M_list)
    cnt = [[1] * lo + [0] * (S - lo)] + [[0] * S for _ in range(vcap)]
    best = [[0.0] * blo + [LOG_ZERO] * (B - blo)] + [[LOG_ZERO] * B for _ in range(vcap)]
    wsucc = blocks.weighted(phi)
    cells = {M: [] for M in M_list}
    for n in range(1, N + 1):
        cnt = [count_push(graph.succ, row) for row in _climb(cnt, lo, 0)]
        best = [maxplus_push(wsucc, row) for row in _climb(best, blo, LOG_ZERO)]
        _read_off_accumulate(cells, n, [sum(row[:lo]) for row in cnt],
                             [max(row[:blo], default=LOG_ZERO) for row in best], True)
    return cells


_SPECIALS = [_INF, -_INF, _NAN, 0.0, -0.0, 1e308, -1e308]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_layered_push_equals_the_per_layer_sweep(data):
    # random transitive 1-5-state shifts, memory 1-3, weights from the float
    # specials and k/8, several q and M: the delta profile of the layered
    # push equals the one filled from the per-layer sweep in repr, rows,
    # estimate, band and verdict
    S = data.draw(st.integers(min_value=1, max_value=5))
    matrix = [[int(j == (i + 1) % S or data.draw(st.booleans()))
               for j in range(S)] for i in range(S)]
    T = FiniteShift(matrix)
    weights = st.one_of(st.sampled_from(_SPECIALS),
                        st.integers(min_value=-16, max_value=8).map(lambda k: k / 8))
    memory = data.draw(st.integers(min_value=1, max_value=3))
    phi = Potential(memory, {w: data.draw(weights) for w in enumerate_words(T, memory)},
                    data.draw(weights))
    q_list = data.draw(st.lists(st.integers(1, S + 1), min_size=1, max_size=3, unique=True))
    M_list = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    N = data.draw(st.integers(min_value=4, max_value=10))
    P = data.draw(st.sampled_from([0.0, -0.5, 1.0, _INF]))
    got = delta_profile(T, phi, q_list, M_list, N, P)
    columns = _columns({(M, q): col for q in q_list
                        for M, col in _per_layer_sweep(T, phi, q, M_list, N).items()})
    want = _contraction_fit(columns, _count_diagnostics(columns, q_list, M_list, N),
                            q_list, M_list, N, P)
    assert repr(got.rows) == repr(want.rows)
    assert repr((got.estimate, got.band, got.ci_verdict)) \
        == repr((want.estimate, want.band, want.ci_verdict))


@pytest.mark.parametrize("q", [2, 3])
def test_sparse_layers_equal_the_per_layer_sweep_on_sec52(q):
    # the bouquet graph of the graph-dp benchmark's sec52-entry delta grid,
    # where most entries of the dense layers are dominated
    build = build_preset("sec52-entry", truncate_len=16)
    T, phi = build.system, build.potential
    assert repr(_sweep(T, phi, q, [2, 4, 8], 32)) \
        == repr(_per_layer_sweep(T, phi, q, [2, 4, 8], 32))


def _random_graph_potential(S, degree, seed, weight):
    # a transitive S-state shift, i -> i + 1 and degree - 1 more random
    # successors per state, with a memory-2 potential of weight(rng) per edge
    rng = random.Random(seed)
    matrix = [[0] * S for _ in range(S)]
    for i in range(S):
        matrix[i][(i + 1) % S] = 1
        for j in rng.sample([j for j in range(S) if not matrix[i][j]], degree - 1):
            matrix[i][j] = 1
    T = FiniteShift(matrix)
    phi = Potential(2, {(Plain(i + 1), Plain(j + 1)): weight(rng)
                        for i in range(S) for j in range(S) if matrix[i][j]}, 0.0)
    return T, phi


@pytest.mark.parametrize("M_list", [[2], [4], [8], [2, 4, 8]])
@pytest.mark.parametrize("q", [1, 2, 4])
def test_sparse_layers_equal_the_per_layer_sweep_on_a_32_state_graph(q, M_list):
    # out-degree 3 and weights uniform in [-2, 0], as on the graph-dp
    # benchmark: values are compared bit for bit, not just close
    T, phi = _random_graph_potential(32, 3, 900, lambda rng: rng.uniform(-2.0, 0.0))
    assert repr(_sweep(T, phi, q, M_list, 32)) \
        == repr(_per_layer_sweep(T, phi, q, M_list, 32))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_layers_equal_the_per_layer_sweep_with_float_specials(seed):
    # +-inf, NaN, -0.0 and +-1e308 among the edge weights at N = 24: +inf
    # sums win, NaN and -inf ones never do, and sums past the float range
    # round to +-inf as in the dense push
    T, phi = _random_graph_potential(
        8, 3, seed, lambda rng: rng.choice(_SPECIALS) if rng.random() < 0.25
        else rng.randint(-16, 8) / 8)
    for q in (1, 2, 3):
        assert repr(_sweep(T, phi, q, [2, 3, 5], 24)) \
            == repr(_per_layer_sweep(T, phi, q, [2, 3, 5], 24))


@pytest.mark.parametrize("memory, want", [
    (None, [("index_graph", 1)]),
    (2, [("index_graph", 2), ("weighted", 1)]),
    (3, [("index_graph", 3), ("index_graph", 1), ("weighted", 2)]),
])
def test_profile_grid_compiles_its_graph_once(monkeypatch, memory, want):
    # one index_graph per block length (recorded by memory) and one weighted
    # per grid (recorded by block length), for every q; BlockGraphs lists
    # through shift.index_graph, so a spy bound there sees every listing
    import cmshift.shift

    calls = []
    index, weighted = cmshift.shift.index_graph, IndexedGraph.weighted
    monkeypatch.setattr(cmshift.shift, "index_graph",
                        lambda T, cap, dp, memory=1:
                        calls.append(("index_graph", memory)) or index(T, cap, dp, memory))
    monkeypatch.setattr(IndexedGraph, "weighted",
                        lambda graph, phi:
                        calls.append(("weighted", graph.block)) or weighted(graph, phi))
    T = FiniteShift([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 1, 1]])
    if memory is None:
        hinf_profile(T, [1, 2, 4], [2, 4, 8], 12)
    else:
        delta_profile(T, _dyadic_potential(T, memory, 1), [1, 2, 4], [2, 4, 8], 12)
    assert calls == want
    calls.clear()
    count_B(T, None if memory is None else _dyadic_potential(T, memory, 1), 6, 2, 2)
    assert calls == want  # a lone call compiles its own


def test_profile_grid_refuses_past_the_sweep_cap_before_listing(monkeypatch):
    # whichever q sweeps first refuses with the cap's text before any state
    # is listed (for hinf on [1, 2, 4], after the composition fill of q = 1)
    T = BouquetShift(LoopCountFamily("ones"), 91)
    assert T.state_count() == 4096 > SWEEP_STATE_CAP

    def never(*args):
        raise AssertionError("states were listed")

    monkeypatch.setattr(T, "states", never)
    text = r"^profile state sweep runs on at most 4000 states \(this system has 4096\)$"
    for q_list in ([1, 2, 4], [4, 2, 1]):
        with pytest.raises(EnumerationRefusal, match=text):
            hinf_profile(T, q_list, [2, 4], 8)
        with pytest.raises(EnumerationRefusal, match=text):
            delta_profile(T, Potential(2, {}, -0.5), q_list, [2, 4], 8)


def _same_as_the_edge_loop(T, phi, q, M_list, N):
    cells = _sweep(T, phi, q, M_list, N)
    assert repr(cells) == repr(_count_B_sweep_loops(T, phi, q, M_list, N))
    for col in cells.values():
        assert all(type(cell.count) is int for cell in col)
    return cells


def _dyadic_potential(T, memory, seed):
    # weights k/8 whose sums are exact in any order, so the sweep's and the
    # oracle's best sums are equal and not just close
    words = enumerate_words(T, memory)
    return Potential(memory, {w: ((7 * i + seed) % 13 - 9) / 8 for i, w in enumerate(words)},
                     0.0)


@pytest.mark.parametrize("S, N", [(2, 6), (2, 7), (2, 16), (3, 10)])
def test_packed_sweep_top_slot_reaches_the_bound(S, N):
    # every state low: each (n+1)-word has n visits, so with M = 1 the top
    # live slot holds all S**(n+1) words, the largest value the slot width
    # is chosen for (at S = 2 the value 2**7 of N = 6 sets the top bit of a
    # one-byte slot, and N = 7 needs a second byte)
    T = FiniteShift([[1] * S] * S)
    cells = _same_as_the_edge_loop(T, None, S, [1, 2], N)
    assert [cell.count for cell in cells[1]] == [S ** (n + 1) for n in range(1, N + 1)]


@pytest.mark.parametrize("q", [1, 2])
def test_packed_sweep_counts_past_64_bits(q):
    # the full 3-shift at N = 48: 3**48 paths, multi-limb slots
    T = FiniteShift([[1] * 3] * 3)
    phi = _dyadic_potential(T, 2, q)
    cells = _same_as_the_edge_loop(T, phi, q, [2, 3, 7], 48)
    assert max(cell.count for col in cells.values() for cell in col).bit_length() > 64
    counts = _same_as_the_edge_loop(T, None, q, [2, 3, 7], 48)
    assert [[c.count for c in col] for col in counts.values()] \
        == [[c.count for c in col] for col in cells.values()]


def test_packed_sweep_with_M_one():
    # M = [1] gives the largest visit cap, N + 1
    T = FiniteShift([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    for q in (1, 2, 3):
        _same_as_the_edge_loop(T, None, q, [1], 12)
        _same_as_the_edge_loop(T, _dyadic_potential(T, 2, q), q, [1], 12)


@pytest.mark.parametrize("with_phi", [False, True])
def test_packed_sweep_on_one_state(with_phi):
    T = FiniteShift([[1]])
    phi = Potential(1, {(Plain(1),): -0.25}, 0.0) if with_phi else None
    cells = _same_as_the_edge_loop(T, phi, 1, [1, 2, 3], 10)
    # the one (n+1)-word has n visits: 2n <= n + 1 only at n = 1
    assert [[cell.count for cell in cells[M]] for M in (1, 2, 3)] \
        == [[1] * 10, [1] + [0] * 9, [0] * 10]


def _memory_3_cells(T, phi, q, M_list, N):
    # per-word cells of a memory-3 potential: each counted (n+1)-word scored
    # by the best fsum over its (n+2)-word extensions, the words S_n reads
    low = set(T.states_up_to(q))
    cells = {M: [] for M in M_list}
    for n in range(1, N + 1):
        scored = {}
        for w in enumerate_words(T, n + 2, start=low):
            if w[n] in low:
                s = math.fsum(phi.weight(w[i:i + 3]) for i in range(n))
                scored[w[:n + 1]] = max(scored.get(w[:n + 1], LOG_ZERO), s)
        for M in M_list:
            sums = [s for w, s in scored.items() if sum(x in low for x in w[:n]) * M <= n + 1]
            zbest = max(sums, default=LOG_ZERO)
            cells[M].append(CountB(len(sums), math.log(len(sums)) if sums else LOG_ZERO,
                                   zbest / n if sums else LOG_ZERO))
    return cells


@pytest.mark.parametrize("q", [1, 2, 3])
def test_packed_sweep_memory_3_equals_the_per_word_cells(q):
    # counts run on the states, best sums on the 2-block graph
    T = FiniteShift([[1, 1, 0], [1, 0, 1], [1, 1, 1]])
    phi = _dyadic_potential(T, 3, q)
    cells = _sweep(T, phi, q, [1, 2, 3], 8)
    assert repr(cells) == repr(_memory_3_cells(T, phi, q, [1, 2, 3], 8))
    for col in cells.values():
        assert all(type(cell.count) is int for cell in col)


def _cells_per_word(T, phi, q, M_list, n, limit=2_000_000):
    # the per-word route the prefix walk replaced, kept as its oracle: the
    # (n+1)-words with low ends enumerated for this n alone, and each word
    # some cell counts scored on its own by an fsum of its edge weights
    low = set(T.states_up_to(q))
    words = enumerate_words(T, n + 1, start=low, end=low, limit=limit)
    if not words.exhaustive:
        raise EnumerationRefusal(f"brute-force cylinder count hit its limit "
                                 f"of {limit} words at n={n}")
    scored = []
    for w in words:
        visits = sum(1 for s in w[:n] if s in low)
        if visits * min(M_list) <= n + 1:
            s = None if phi is None else \
                math.fsum(_edge_weight(phi, w[i], w[i + 1]) for i in range(n))
            scored.append((visits, s))
    cells = {}
    for M in M_list:
        total, zbest = 0, LOG_ZERO
        for visits, s in scored:
            if visits * M <= n + 1:
                total += 1
                if s is not None:
                    zbest = max(zbest, s / n)
        cells[M] = CountB(total, math.log(total) if total else LOG_ZERO,
                          None if phi is None else zbest)
    return cells


def _grid_per_word(T, phi, q, M_list, N, limit=2_000_000):
    rows = [_cells_per_word(T, phi, q, M_list, n, limit) for n in range(1, N + 1)]
    return {M: [row[M] for row in rows] for M in M_list}


def _outcome(f, *args):
    # repr of the result, or the type and text of the exception raised
    try:
        return repr(f(*args))
    except Exception as exc:
        return type(exc), str(exc) if isinstance(exc, EnumerationRefusal) else None


# (n+1)-words from the low states stay in the low thousands at these horizons
_WALK_HORIZON = {1: 10, 2: 9, 3: 7, 4: 6, 5: 5, 6: 4}


@settings(max_examples=80)
@given(data=st.data())
def test_bruteforce_cells_equal_the_per_word_route(data):
    # random transitive 1-6 state shifts and list bouquets, memory 1-3
    # potentials (or none) with weights partly from the float specials, any
    # q, M lists from {1, 2, 3, 5} in any order and with repeats, small and
    # default limits: the prefix walk's grid and each one-cell count equal
    # the per-word route in repr, or raise what it raises (refusals with the
    # same text)
    if data.draw(st.booleans()):
        S = data.draw(st.integers(min_value=1, max_value=6))
        T = FiniteShift([[int(j == (i + 1) % S or data.draw(st.booleans()))
                          for j in range(S)] for i in range(S)])
        N = data.draw(st.integers(min_value=1, max_value=_WALK_HORIZON[S]))
    else:
        values = [data.draw(st.integers(min_value=0, max_value=1))] + [
            data.draw(st.integers(min_value=0, max_value=2)) for _ in range(4)]
        values[data.draw(st.integers(min_value=1, max_value=4))] += 1
        T = BouquetShift(LoopCountFamily("list", values=tuple(values)), 5)
        N = data.draw(st.integers(min_value=1, max_value=10))
    phi = None
    if data.draw(st.booleans()):
        weights = st.one_of(st.sampled_from([_INF, -_INF, -0.0]),
                            st.integers(min_value=-16, max_value=8).map(lambda k: k / 8))
        memory = data.draw(st.integers(min_value=1, max_value=3))
        phi = Potential(memory, {w: data.draw(weights) for w in enumerate_words(T, memory)
                                 if data.draw(st.booleans())}, data.draw(weights))
    q = data.draw(st.integers(min_value=1, max_value=T.state_count() + 1))
    M_list = data.draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=1, max_size=4))
    limit = data.draw(st.sampled_from([1, 4])) if data.draw(st.booleans()) else 2_000_000
    assert _outcome(_bruteforce_cells, T, phi, q, M_list, N, limit) \
        == _outcome(_grid_per_word, T, phi, q, M_list, N, limit)
    n, M = data.draw(st.integers(min_value=1, max_value=N)), M_list[0]
    assert _outcome(count_B_bruteforce, T, phi, n, M, q, limit) \
        == _outcome(lambda: _cells_per_word(T, phi, q, [M], n, limit)[M])


@pytest.mark.parametrize("M_list", [[2, 3], [1, 2, 3, 5]])
@pytest.mark.parametrize("name, L", ORACLE_INPUTS)
def test_bruteforce_cells_at_the_oracle_size(oracle_input, name, L, M_list):
    # the cells of `cmshift oracle` itself, q = 1 and n <= 12, equal the
    # per-word route
    T, phi = oracle_input(name, L)
    assert repr(_bruteforce_cells(T, phi, 1, M_list, 12)) \
        == repr(_grid_per_word(T, phi, 1, M_list, 12))


def test_count_B_bruteforce_refuses_at_its_limit(full3):
    # the limit caps the low-ended words of the cell asked for, and is hit
    # only when a word of that length comes after the limit-th one: with all
    # three states low, the 9 words of length 2 fit a limit of 9, not of 8
    assert count_B_bruteforce(full3, None, 1, 1, 3, limit=9).count == 9
    assert count_B_bruteforce(full3, None, 1, 2, 2, limit=5).count == 4
    for n, M, q, limit in ((1, 1, 3, 8), (2, 2, 2, 5), (1, 2, 1, 1)):
        refusal = f"^brute-force cylinder count hit its limit of {limit} words at n={n}$"
        with pytest.raises(EnumerationRefusal, match=refusal):
            count_B_bruteforce(full3, None, n, M, q, limit=limit)
        with pytest.raises(EnumerationRefusal, match=refusal):
            _cells_per_word(full3, None, q, [M], n, limit)
    # cells of shorter words refuse too when the grid holds them
    with pytest.raises(EnumerationRefusal,
                       match="^brute-force cylinder count hit its limit of 5 words at n=2$"):
        _bruteforce_cells(full3, None, 2, [2], 3, limit=5)
    with pytest.raises(ValueError, match="n must be >= 1"):
        count_B_bruteforce(full3, None, 0, 2, 1)


def test_bruteforce_cells_fail_in_cell_order():
    # on the full 2-shift with both states low, the weight of the edge 2 -> 2
    # raises: the cell n = 1 fails at the word (2, 2), which the walk meets
    # after the 8 words of length 3 have hit a limit of 4 at (2, 1, 1); the
    # shorter cell still fails first, as cells filled one n after the other do
    def fallback(window):
        if window == (Plain(2), Plain(2)):
            raise KeyError(window)

    T = FiniteShift([[1, 1], [1, 1]])
    phi = Potential(2, {}, -0.5, fallback=fallback)
    for N, limit in ((1, 4), (2, 4), (2, 8), (3, 16)):
        assert _outcome(_bruteforce_cells, T, phi, 2, [1, 2], N, limit) \
            == _outcome(_grid_per_word, T, phi, 2, [1, 2], N, limit) == (KeyError, None)
    assert _outcome(count_B_bruteforce, T, phi, 2, 1, 2, 4) \
        == (EnumerationRefusal, "brute-force cylinder count hit its limit of 4 words at n=2")
    # with M = 3 the word (2, 2) passes no cell, so its weight is never read
    assert _bruteforce_cells(T, phi, 2, [3], 1)[3][0].count == 0


def test_hinf_profile_finite_shift_all_low_is_empty(full3):
    # with every state low, a word of n >= 2 coordinates makes at least two
    # low visits inside the counting window, violating 2 * M <= n + 1 for
    # M >= 2 beyond tiny n; the profile sees nothing at infinity
    prof = hinf_profile(full3, [3], [2, 4], 12)
    assert all(r[3] == 0 for r in prof.rows if r[0] >= 2)
    assert prof.estimate == LOG_ZERO


def test_hinf_profile_monotonicity_diagnostics(sec52):
    prof = hinf_profile(sec52.system, [1], [2, 4, 8], 12)
    assert prof.monotone_M_violations == []


def test_hinf_profile_ones_family_slope_near_zero():
    # horizon 30 keeps the fit window inside a single count-cap regime at
    # M = 8, where restricted compositions grow polynomially
    T = BouquetShift(LoopCountFamily("ones"), truncate_len=30)
    prof = hinf_profile(T, [1], [4, 8], 30)
    assert prof.estimate < 0.2
    assert T.a.growth_rate() == 0.0


def test_hinf_profile_geometric_family_estimates_log2():
    fam = LoopCountFamily("geometric", ratio=2, a1=1)
    T = BouquetShift(fam, truncate_len=20)
    prof = hinf_profile(T, [1], [4, 8], 30)
    oracle = fam.growth_rate()
    assert oracle == pytest.approx(LOG2)
    assert abs(prof.estimate - oracle) <= prof.uncertainty


def test_delta_profile_sec52_exactly_minus_log2():
    build = build_preset("sec52-entry", truncate_len=24)
    prof = delta_profile(build.system, build.potential, [1], [2, 4], 24, P=0.0)
    for r in prof.rows:
        if r[3] > 0:
            assert r[5] == pytest.approx(-LOG2, abs=1e-12)
    assert prof.estimate == pytest.approx(-LOG2, abs=1e-12)
    assert prof.ci_verdict == "holds"


def test_delta_profile_no_evidence_on_empty_grid(full3):
    phi = Potential(1, {}, 0.0)
    prof = delta_profile(full3, phi, [3], [2], 10, P=0.0)
    assert prof.ci_verdict == "no-evidence"


@pytest.mark.parametrize("P, verdict", [(math.inf, "inconclusive"), (0.0, "fails"),
                                        (1e308, "fails")])
def test_delta_profile_counts_plus_inf_cells(P, verdict):
    # windows of the full 2-shift weighing 1e308: every counted sum of the
    # fit window leaves the float range, and a +inf cell is evidence, not an
    # empty grid
    T = FiniteShift([[1, 1], [1, 1]])
    phi = Potential(2, {(Plain(i), Plain(j)): 1e308 for i, j in ((1, 1), (1, 2), (2, 1))},
                    0.0)
    prof = delta_profile(T, phi, [1], [2, 4, 8], 8, P=P)
    assert prof.columns[8, 1].z_phi[4:] == [LOG_ZERO, LOG_ZERO, _INF, _INF]
    assert (prof.estimate, prof.band, prof.uncertainty, prof.ci_verdict) \
        == (_INF, 0.0, 0.0, verdict)
    assert prof.fits[2, 1] == (_INF, 0.0)


def test_delta_profile_window_of_finite_and_plus_inf_cells():
    # a +inf cell tops the estimate, the band is the spread of the finite
    # cells, and a NaN cell is no evidence; the window of N = 8 is n = 5..8
    zs = (9.0, 9.0, 9.0, 9.0, 0.5, _NAN, _INF, -1.0)
    cols = _columns({(2, 1): [CountB(1, 0.0, z) for z in zs]})
    prof = _contraction_fit(cols, ([], []), [1], [2], 8, 0.0)
    assert (prof.estimate, prof.band, prof.ci_verdict) == (_INF, 1.5, "fails")


@pytest.mark.parametrize("q_list, M_list, text", [
    ([1], [0], "M and q values must be >= 1"),
    ([1], [-2], "M and q values must be >= 1"),
    ([0, 1], [2], "M and q values must be >= 1"),
    ([1], [2, 4, 8, 8], "must be distinct"),
    ([1, 1], [2, 4], "must be distinct"),
])
def test_profiles_refuse_repeated_or_non_positive_grid_values(sec52, q_list, M_list, text):
    # a repeated M would be its own neighbouring M (and its rows written
    # twice); M <= 0 has no visit cap
    T, phi = sec52.system, sec52.potential
    for call in (lambda: hinf_profile(T, q_list, M_list, 12),
                 lambda: delta_profile(T, phi, q_list, M_list, 12),
                 lambda: profile_pair(T, phi, q_list, M_list, 12)):
        with pytest.raises(ValueError, match=text):
            call()


def _fields(p):
    return repr((p.rows, p.fits, p.estimate, p.uncertainty, p.window,
                 p.monotone_M_violations, p.band, p.ci_verdict))


def _same_profile(a, b):
    assert _fields(a) == _fields(b)


@settings(max_examples=15)
@given(data=st.data())
def test_profile_pair_equals_separate_profiles_on_random_shifts(data):
    # one weighted grid yields both profiles, bit for bit
    S = data.draw(st.integers(min_value=2, max_value=5))
    matrix = [[int(j == (i + 1) % S or data.draw(st.booleans()))
               for j in range(S)] for i in range(S)]
    T = FiniteShift(matrix)
    phi = Potential(2, {
        (Plain(i + 1), Plain(j + 1)): data.draw(
            st.floats(min_value=-3, max_value=1, allow_nan=False))
        for i in range(S) for j in range(S) if matrix[i][j]})
    q_list, M_list, N = [1, 2], [2, 3], 9
    hp, dp = profile_pair(T, phi, q_list, M_list, N, P=-0.5)
    _same_profile(hp, hinf_profile(T, q_list, M_list, N))
    _same_profile(dp, delta_profile(T, phi, q_list, M_list, N, P=-0.5))


@pytest.mark.parametrize("loop_totals", [True, False])
def test_profile_pair_equals_separate_profiles_on_a_bouquet(loop_totals):
    # with loop totals both grids take the composition route at q = 1;
    # without them the weighted grid runs the state sweep, and its exact
    # counts still give the entropy profile of the composition route
    build = build_preset("sec52-entry", truncate_len=8)
    T, phi = build.system, build.potential
    if not loop_totals:
        phi = Potential(2, {}, 0.0, fallback=phi.fallback)
    hp, dp = profile_pair(T, phi, [1, 2], [2, 4], 12)
    _same_profile(hp, hinf_profile(T, [1, 2], [2, 4], 12))
    _same_profile(dp, delta_profile(T, phi, [1, 2], [2, 4], 12))


# -- reference: the profiles fitted by scanning flat rows ---------------------------------
# rows (n, M, q, count, log_count, z_phi) in (q, M, n) grid order; every fit
# and diagnostic rescans them, which the column reads must reproduce exactly

def _reference_rows(T, phi, q_list, M_list, N):
    rows = []
    for q in q_list:
        cells = _cells(_grid_cells(T, phi, q, M_list, N))
        for M in M_list:
            for n, cb in enumerate(cells[M], start=1):
                rows.append((n, M, q, cb.count, cb.log_count, cb.z_phi))
    return rows


def _reference_monotone_M_check(rows, q_list, M_list, N):
    violations = []
    Ms = sorted(M_list)
    table = {(r[0], r[1], r[2]): r[3] for r in rows}
    for q in q_list:
        for n in range(1, N + 1):
            for lo, hi in zip(Ms, Ms[1:]):
                if table[(n, hi, q)] > table[(n, lo, q)]:
                    violations.append((n, lo, hi, q))
    return violations


def _reference_entropy_fit(rows, q_list, M_list, N):
    window = _profile_window(N)
    lo, hi = window[0], window[-1]
    fits = {}
    for q in q_list:
        for M in M_list:
            ys = [r[4] for r in rows if r[1] == M and r[2] == q and lo <= r[0] <= hi]
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
            unc = 0.0
    return repr((rows, fits, estimate, unc, (lo, hi),
                 _reference_monotone_M_check(rows, q_list, M_list, N), None, None))


def _reference_contraction_fit(rows, q_list, M_list, N, P, tol=1e-9):
    window = _profile_window(N)
    lo, hi = window[0], window[-1]
    fits = {}
    for q in q_list:
        for M in M_list:
            zs = [r[5] for r in rows if r[1] == M and r[2] == q and lo <= r[0] <= hi]
            counted = [z for z in zs if z is not None and (math.isfinite(z) or z == math.inf)]
            finite = [z for z in counted if math.isfinite(z)]
            fits[(M, q)] = (max(counted) if counted else LOG_ZERO,
                            (max(finite) - min(finite)) if finite
                            else 0.0 if counted else math.inf)
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
    return repr((rows, fits, estimate, band if math.isfinite(band) else math.inf, (lo, hi),
                 _reference_monotone_M_check(rows, q_list, M_list, N), band, verdict))


def _check_against_reference(T, phi, q_list, M_list, N, P):
    rows = _reference_rows(T, phi, q_list, M_list, N)
    counts = [r[:5] + (None,) for r in rows]
    want_h = _reference_entropy_fit(counts, q_list, M_list, N)
    want_d = _reference_contraction_fit(rows, q_list, M_list, N, P)
    assert _fields(hinf_profile(T, q_list, M_list, N)) == want_h
    assert _fields(delta_profile(T, phi, q_list, M_list, N, P)) == want_d
    hp, dp = profile_pair(T, phi, q_list, M_list, N, P)
    assert (_fields(hp), _fields(dp)) == (want_h, want_d)
    for row, count_row in zip(rows, counts):
        assert repr((hp.cell(*row[:3]), dp.cell(*row[:3]))) == repr((count_row, row))


@settings(max_examples=25)
@given(data=st.data())
def test_profile_columns_equal_the_row_scan_on_random_shifts(data):
    # grids of two or three M and q values in any order, so the violation
    # lists' order is pinned too
    S = data.draw(st.integers(min_value=2, max_value=5))
    matrix = [[int(j == (i + 1) % S or data.draw(st.booleans()))
               for j in range(S)] for i in range(S)]
    T = FiniteShift(matrix)
    phi = Potential(2, {
        (Plain(i + 1), Plain(j + 1)): data.draw(
            st.floats(min_value=-3, max_value=1, allow_nan=False))
        for i in range(S) for j in range(S) if matrix[i][j]})
    q_list = data.draw(st.permutations(sorted(
        data.draw(st.sets(st.integers(1, S), min_size=2, max_size=3)))))
    M_list = data.draw(st.permutations(sorted(
        data.draw(st.sets(st.integers(1, 5), min_size=2, max_size=3)))))
    N = data.draw(st.integers(min_value=4, max_value=8))
    P = data.draw(st.sampled_from([-1.0, -0.5, 0.0]))
    _check_against_reference(T, phi, q_list, M_list, N, P)


def test_profile_columns_equal_the_row_scan_on_a_bouquet():
    # q = 1 takes the composition route, q = 2 the state sweep
    build = build_preset("sec52-entry", truncate_len=8)
    T, phi = build.system, build.potential
    _check_against_reference(T, phi, [2, 1], [4, 2, 3], 12, 0.0)
    prof = hinf_profile(T, [2, 1], [4, 2, 3], 12)
    for key in ((0, 2, 1), (13, 2, 1), (1, 5, 1), (1, 2, 3)):
        with pytest.raises(KeyError):
            prof.cell(*key)


# -- the column layout against single cells -------------------------------------------------

def _count_B_rows(T, phi, q_list, M_list, N):
    # the rows (n, M, q, count, log_count, z_phi) of a grid, one count_B per
    # cell, in (q, M, n) grid order
    return [(n, M, q) + astuple(count_B(T, phi, n, M, q))
            for q in q_list for M in M_list for n in range(1, N + 1)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_profile_rows_and_cells_equal_count_B_cell_by_cell(data):
    # finite shifts and list bouquets (with loop totals, so q = 1 takes the
    # composition fill, or without, so every q sweeps), small N, any grid
    # order: rows and cell() of hinf_profile and profile_pair, and of the
    # pair read from shared block graphs (whose loop table crc may have
    # filled past the grid's cap first), are the count_B cells in repr
    if data.draw(st.booleans()):
        S = data.draw(st.integers(min_value=1, max_value=4))
        T = FiniteShift([[int(j == (i + 1) % S or data.draw(st.booleans()))
                          for j in range(S)] for i in range(S)])
    else:
        L = data.draw(st.integers(min_value=1, max_value=5))
        values = [data.draw(st.integers(0, 1))] + [data.draw(st.integers(0, 2))
                                                   for _ in range(L - 1)]
        values[-1] = values[-1] or 1
        T = BouquetShift(LoopCountFamily("list", values=tuple(values)), L)
    S = T.state_count()
    weights = st.one_of(st.sampled_from(_SPECIALS),
                        st.integers(min_value=-16, max_value=8).map(lambda k: k / 8))
    phi = Potential(2, {w: data.draw(weights) for w in enumerate_words(T, 2)},
                    data.draw(weights))
    if isinstance(T, BouquetShift) and data.draw(st.booleans()):
        # each loop's total on its edge out of the root
        totals = {k: data.draw(weights) for k in T.loop_lengths()}
        phi = Potential(2, {(ROOT, v): totals[1 if v == ROOT else v.loop_len]
                            for v in T.successors(ROOT)}, 0.0)
        phi.loop_total = totals.__getitem__
    q_list = data.draw(st.lists(st.integers(1, S + 1), min_size=1, max_size=2, unique=True))
    M_list = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True))
    N = data.draw(st.integers(min_value=4, max_value=7))
    graphs = BlockGraphs(T, phi)
    if phi.loop_total is not None:
        graphs.loop_sums(N, data.draw(st.sampled_from([(N + 1) // min(M_list), N + 1])))
    counts = [r[:5] + (None,) for r in _count_B_rows(T, None, q_list, M_list, N)]
    rows = _count_B_rows(T, phi, q_list, M_list, N)
    assert [r[:5] for r in rows] == [r[:5] for r in counts]
    for prof in (hinf_profile(T, q_list, M_list, N), *profile_pair(T, phi, q_list, M_list, N),
                 *profile_pair(T, phi, q_list, M_list, N, graphs=graphs)):
        want = rows if prof.kind == "contraction" else counts
        assert repr(prof.rows) == repr(want)
        assert repr([prof.cell(*r[:3]) for r in want]) == repr(want)


def test_block_graphs_keep_one_loop_table_per_horizon(monkeypatch):
    # the loop table that crc and the delta grid share: filled once for both,
    # filled again only when a table that has not settled is asked past its
    # last column, and kept per horizon
    import cmshift.infinity
    from cmshift import crc_profile

    fills, fill = [], cmshift.infinity.best_loop_sums
    monkeypatch.setattr(cmshift.infinity, "best_loop_sums",
                        lambda T, phi, N, jmax: fills.append((N, jmax)) or fill(T, phi, N, jmax))
    T, M_list, N = BouquetShift(LoopCountFamily("ones"), 12), (2, 4), 40
    # tau(k) = log 2 for every k: one part more always pays, so no table
    # settles before column N; with tau(k) = 0, column 2 changes nothing
    for tau, grid_fills in ((math.log(2.0), [(N, 20), (N, 41)]), (0.0, [(N, 20)])):
        phi = Potential(2, {}, 0.0)
        phi.loop_total = lambda k: tau
        plain = (repr(crc_profile(T, phi, 1, N)), repr(delta_profile(T, phi, [1], M_list, N).rows))
        # crc, then the delta grid: one fill, up to column N + 1
        graphs, fills[:] = BlockGraphs(T, phi), []
        shared = (repr(crc_profile(T, phi, 1, N, graphs=graphs)),
                  repr(delta_profile(T, phi, [1], M_list, N, graphs=graphs).rows))
        assert fills == [(N, N + 1)] and shared == plain
        # the grid first: its capped table serves crc only if it settled
        graphs, fills[:] = BlockGraphs(T, phi), []
        shared = (repr(delta_profile(T, phi, [1], M_list, N, graphs=graphs).rows),
                  repr(crc_profile(T, phi, 1, N, graphs=graphs)))
        delta_profile(T, phi, [1], M_list, N, graphs=graphs)
        assert fills == grid_fills and shared == plain[::-1]
        # two horizons keep two tables
        crc_profile(T, phi, 1, N - 10, graphs=graphs)
        crc_profile(T, phi, 1, N, graphs=graphs)
        crc_profile(T, phi, 1, N - 10, graphs=graphs)
        assert fills == grid_fills + [(N - 10, N - 9)]


# -- growth oracle -----------------------------------------------------------------------

def test_oracle_values():
    assert LoopCountFamily("geometric", ratio=2).growth_rate() == pytest.approx(LOG2)
    assert LoopCountFamily("ones").growth_rate() == 0.0
    assert LoopCountFamily("double_exponential").growth_rate() == math.inf
    fam = LoopCountFamily("list", values=(1, 4, 8))
    # max over the support of (1/n) log a(n)
    assert fam.growth_rate() == pytest.approx(
        max(math.log(1), math.log(4) / 2, math.log(8) / 3))
