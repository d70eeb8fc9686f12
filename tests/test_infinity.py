"""Boundary-cylinder counting and entropy/contraction-at-infinity profiles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmshift import (BouquetShift, BouquetSpec, FiniteShift, LoopCountFamily,
                     Plain, Potential, TauSpec, bouquet_hinf_oracle,
                     build_bouquet, build_preset, count_B, count_B_bruteforce,
                     delta_profile, hinf_profile, profile_pair)
from cmshift.numerics import LOG_ZERO

LOG2 = math.log(2.0)


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

@settings(max_examples=25, deadline=None)
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



@settings(max_examples=30, deadline=None)
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
    assert bouquet_hinf_oracle(T.a) == 0.0


def test_hinf_profile_geometric_family_estimates_log2():
    fam = LoopCountFamily("geometric", ratio=2, a1=1)
    T = BouquetShift(fam, truncate_len=20)
    prof = hinf_profile(T, [1], [4, 8], 30)
    oracle = bouquet_hinf_oracle(fam)
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


def _same_profile(a, b):
    assert repr((a.rows, a.fits, a.estimate, a.uncertainty, a.window,
                 a.monotone_M_violations, a.q_diagnostics, a.band, a.ci_verdict)) \
        == repr((b.rows, b.fits, b.estimate, b.uncertainty, b.window,
                 b.monotone_M_violations, b.q_diagnostics, b.band, b.ci_verdict))


@settings(max_examples=15, deadline=None)
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
    # without them the weighted grid runs the state DP and is filled apart
    build = build_preset("sec52-entry", truncate_len=8)
    T, phi = build.system, build.potential
    if not loop_totals:
        phi = Potential(2, {}, 0.0, fallback=phi.fallback)
    hp, dp = profile_pair(T, phi, [1, 2], [2, 4], 12)
    _same_profile(hp, hinf_profile(T, [1, 2], [2, 4], 12))
    _same_profile(dp, delta_profile(T, phi, [1, 2], [2, 4], 12))


# -- growth oracle -----------------------------------------------------------------------

def test_oracle_values():
    assert bouquet_hinf_oracle(LoopCountFamily("geometric", ratio=2)) \
        == pytest.approx(LOG2)
    assert bouquet_hinf_oracle(LoopCountFamily("ones")) == 0.0
    assert bouquet_hinf_oracle(LoopCountFamily("double_exponential")) == math.inf
    fam = LoopCountFamily("list", values=(1, 4, 8))
    # max over the support of (1/n) log a(n)
    assert bouquet_hinf_oracle(fam) == pytest.approx(
        max(math.log(1), math.log(4) / 2, math.log(8) / 3))
