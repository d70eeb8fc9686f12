"""Partition sums, pressure, SPR / UCS / CRC diagnostics, witnesses."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmshift import (ROOT, BouquetShift, EnumerationRefusal, FiniteShift,
                     GeometricTail, LoopCountFamily, LoopVertex, PartitionSums,
                     Plain, Potential, PowerTail, UnknownStateError,
                     RenewalSeries, birkhoff_sum, build_preset, chi_per,
                     condition_witness_search, crc_profile, is_admissible,
                     normalizing_C, partition_sums_renewal,
                     partition_sums_transfer, pressure_estimate, spr_check,
                     ucs_check, zeta)
from cmshift.families import (BouquetSpec, FiniteTail, TauSpec, build_bouquet,
                              log_weight_sequence)
from cmshift import families, numerics, thermo
from cmshift.numerics import LOG_ZERO, SeriesBudgetError, logsumexp, polylog_with_bound
from cmshift.oracle import enumerate_words, partition_sums_bruteforce, periodic_points
from cmshift.thermo import SERIES_BAND, _max_birkhoff_low_to_low

LOG2 = math.log(2.0)


@pytest.fixture
def full2():
    return FiniteShift([[1, 1], [1, 1]])


@pytest.fixture
def sec52():
    return build_preset("sec52-entry", truncate_len=12)


# -- brute force ------------------------------------------------------------------

def test_brute_force_full_shift_counts(full2):
    phi = Potential(1, {}, 0.0)
    ps = partition_sums_bruteforce(full2, phi, Plain(1), 4)
    assert ps.counts == [1, 2, 4, 8]
    assert math.exp(ps.logz(4)) == pytest.approx(8.0)
    # first returns to 1 on the full 2-shift: 1 orbit per period (1, 12, 122, ...)
    assert ps.star_counts == [1, 1, 1, 1]


def test_brute_force_single_self_loop():
    T = FiniteShift([[1]])
    c = 0.3
    phi = Potential(1, {(Plain(1),): c})
    ps = partition_sums_bruteforce(T, phi, Plain(1), 6)
    for n in range(1, 7):
        assert ps.logz(n) == pytest.approx(n * c)
        expected_star = c if n == 1 else LOG_ZERO
        assert ps.logzstar(n) == pytest.approx(expected_star) if n == 1 \
            else ps.logzstar(n) == LOG_ZERO


def test_star_le_z_always(sec52):
    ps = partition_sums_bruteforce(sec52.system, sec52.potential, ROOT, 10)
    assert all(zs <= z for zs, z in zip(ps.log_zstar, ps.log_z))


def _partition_sums_per_word(T, phi, a, N, max_count=2_000_000):
    # the per-word route the prefix walk replaced, kept as its oracle: each
    # period's words built by periodic_points and scored one by one
    if N < 1:
        raise ValueError("horizon must be >= 1")
    log_z, log_zstar, counts, star_counts = [], [], [], []
    for n in range(1, N + 1):
        words = periodic_points(T, n, a, max_count=max_count)
        terms = [birkhoff_sum(T, phi, w, mode="periodic").value for w in words]
        star = [s for w, s in zip(words, terms) if all(x != a for x in w[1:])]
        log_z.append(logsumexp(terms))
        log_zstar.append(logsumexp(star))
        counts.append(len(words))
        star_counts.append(len(star))
    return PartitionSums(a, N, log_z, log_zstar, "brute-force", counts, star_counts)


def _outcome(f, *args, **kwargs):
    # repr of the result, or the type and text of the exception raised
    try:
        return repr(f(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc) if isinstance(exc, EnumerationRefusal) else None


SPECIALS = st.sampled_from([math.inf, -math.inf, -0.0])
# words through a of length <= N stay in the low thousands at these horizons
_WALK_HORIZON = {1: 10, 2: 10, 3: 8, 4: 7, 5: 6, 6: 5}


@settings(max_examples=80)
@given(data=st.data())
def test_bruteforce_walk_equals_the_per_word_route(data):
    # random transitive 1-6 state shifts and list bouquets, memory 1-3
    # potentials with weights partly from the float specials, small and
    # default caps: the prefix walk returns the per-word route's sums in
    # repr, or raises what it raises (refusals with the same text)
    if data.draw(st.booleans()):
        S = data.draw(st.integers(min_value=1, max_value=6))
        T = FiniteShift([[int(j == (i + 1) % S or data.draw(st.booleans()))
                          for j in range(S)] for i in range(S)])
        N = data.draw(st.integers(min_value=1, max_value=_WALK_HORIZON[S]))
    else:
        T = _random_list_bouquet(data)
        N = data.draw(st.integers(min_value=1, max_value=10))
    a = T.state_of_order(data.draw(st.integers(min_value=1, max_value=T.state_count())))
    phi = _random_table_potential(data, T, data.draw(st.integers(min_value=1, max_value=3)),
                                  st.one_of(SPECIALS, EIGHTHS))
    max_count = data.draw(st.sampled_from([1, 3])) if data.draw(st.booleans()) \
        else 2_000_000
    assert _outcome(partition_sums_bruteforce, T, phi, a, N, max_count) \
        == _outcome(_partition_sums_per_word, T, phi, a, N, max_count)


def test_bruteforce_refusals_at_small_caps(full2):
    # 1, 2, 4, 8 periodic words of periods 1..4 through state 1
    phi = Potential(2, {(Plain(1), Plain(2)): 0.5}, -0.25)
    for cap, period in ((1, 2), (3, 3), (7, 4)):
        with pytest.raises(EnumerationRefusal,
                           match=f"^more than {cap} periodic words of period {period}$"):
            partition_sums_bruteforce(full2, phi, Plain(1), 6, max_count=cap)
        with pytest.raises(EnumerationRefusal,
                           match=f"^more than {cap} periodic words of period {period}$"):
            _partition_sums_per_word(full2, phi, Plain(1), 6, max_count=cap)
    assert partition_sums_bruteforce(full2, phi, Plain(1), 4, max_count=8).counts \
        == [1, 2, 4, 8]
    with pytest.raises(UnknownStateError):
        partition_sums_bruteforce(full2, phi, Plain(3), 4)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        partition_sums_bruteforce(full2, phi, Plain(3), 0)


def test_bruteforce_errors_come_in_period_order(full2):
    # the fourth word of period 4, (1, 1, 2, 2), sums +inf and -inf: period 4
    # fails, unless its 8 words are refused first (cap 4), as an enumeration
    # before scoring would; periods 1-3 have 1, 2, 4 words and finite sums
    phi = Potential(2, {(Plain(1), Plain(1)): math.inf,
                        (Plain(2), Plain(2)): -math.inf}, 0.0)
    assert partition_sums_bruteforce(full2, phi, Plain(1), 3, max_count=4).counts \
        == [1, 2, 4]
    with pytest.raises(ValueError):
        partition_sums_bruteforce(full2, phi, Plain(1), 4, max_count=8)
    with pytest.raises(EnumerationRefusal, match="^more than 4 periodic words of period 4$"):
        partition_sums_bruteforce(full2, phi, Plain(1), 4, max_count=4)

    # a weight that raises fails the periods whose words hold its window
    def fallback(window):
        if window == (Plain(2), Plain(2)):
            raise KeyError(window)

    phi = Potential(2, {}, -0.5, fallback=fallback)
    for N, cap in ((2, 2), (3, 2), (3, 3), (3, 4), (5, 8)):
        assert _outcome(partition_sums_bruteforce, full2, phi, Plain(1), N, cap) \
            == _outcome(_partition_sums_per_word, full2, phi, Plain(1), N, cap)
    assert partition_sums_bruteforce(full2, phi, Plain(1), 2).counts == [1, 2]
    with pytest.raises(KeyError):
        partition_sums_bruteforce(full2, phi, Plain(1), 3)


# -- renewal DP ----------------------------------------------------------------------

def test_renewal_halving_weights_give_constant_half():
    ps = partition_sums_renewal(log_wstar=[-n * LOG2 for n in range(1, 41)], N=40)
    for n in range(1, 41):
        assert math.exp(ps.logz(n)) == pytest.approx(0.5, rel=1e-12)


def test_renewal_single_weight_is_constant_one():
    ps = partition_sums_renewal(log_wstar=[0.0, LOG_ZERO, LOG_ZERO, LOG_ZERO], N=4)
    for n in range(1, 5):
        assert ps.logz(n) == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=30)
@given(weights=st.lists(st.fractions(min_value=0, max_value=2), min_size=1,
                        max_size=8))
def test_renewal_matches_exact_fraction_convolution(weights):
    N = len(weights)
    exact = [Fraction(1)]
    for n in range(1, N + 1):
        exact.append(sum(weights[m - 1] * exact[n - m] for m in range(1, n + 1)))
    ps = partition_sums_renewal(
        log_wstar=[math.log(w) if w > 0 else LOG_ZERO for w in map(float, weights)], N=N)
    for n in range(1, N + 1):
        want = float(exact[n])
        got = math.exp(ps.logz(n)) if ps.logz(n) != LOG_ZERO else 0.0
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def _logsumexp_generator(values):
    # the compensated log-sum with its terms in a generator, as defined
    xs = [x for x in values if x != LOG_ZERO]
    if not xs:
        return LOG_ZERO
    m = max(xs)
    if math.isinf(m):
        return m
    total = math.fsum(math.expm1(x - m) for x in xs)
    return m + math.log1p(total + float(len(xs) - 1))


def _renewal_double_sum(log_wstar, N):
    # Z_n = sum over m = 1..n of Z*_m Z_{n-m}, term by term in that order
    w = list(log_wstar) + [LOG_ZERO] * (N - len(log_wstar))
    log_Z = [0.0]
    for n in range(1, N + 1):
        log_Z.append(_logsumexp_generator(w[m - 1] + log_Z[n - m]
                                          for m in range(1, n + 1)))
    return log_Z[1:]


_LOG_TERMS = st.one_of(st.just(LOG_ZERO), st.floats(min_value=-40, max_value=3))


@settings(max_examples=60)
@given(log_wstar=st.lists(_LOG_TERMS, min_size=1, max_size=30),
       extra=st.integers(min_value=0, max_value=5))
def test_renewal_equals_the_direct_double_sum(log_wstar, extra):
    # bit for bit, LOG_ZERO weights and a horizon beyond the weights included
    N = len(log_wstar) + extra
    ps = partition_sums_renewal(log_wstar=log_wstar, N=N)
    assert repr(ps.log_z) == repr(_renewal_double_sum(log_wstar, N))


_SPECIAL_WEIGHTS = [LOG_ZERO, math.inf, math.nan, -0.0, 1e308, -1e308, 3e307, -3e307]


@st.composite
def _long_weight_rows(draw):
    # weight rows long enough for the rows to count their far terms:
    # geometric, power-law, constant and all-LOG_ZERO, with special values
    # inside, trailing LOG_ZERO weights and a horizon past the weights
    N = draw(st.integers(min_value=1, max_value=300))
    shape = draw(st.sampled_from(["geometric", "power", "constant", "zero"]))
    if shape == "geometric":
        a, b = draw(st.floats(0.05, 3)), draw(st.floats(-2, 4))
        w = [b - a * k for k in range(1, N + 1)]
    elif shape == "power":
        c, beta = draw(st.floats(-3, 3)), draw(st.floats(0, 5))
        w = [c - beta * math.log(k) for k in range(1, N + 1)]
    elif shape == "constant":
        w = [draw(st.floats(-3, 3))] * N
    else:
        w = [LOG_ZERO] * N
    for i, x in draw(st.lists(st.tuples(st.integers(0, N - 1),
                                        st.sampled_from(_SPECIAL_WEIGHTS)), max_size=2)):
        w[i] = x
    end = draw(st.one_of(st.just(N), st.integers(0, N)))
    w[end:] = [LOG_ZERO] * (N - end)
    return w, N + draw(st.sampled_from([0, 0, 3]))


@settings(max_examples=60)
@given(case=_long_weight_rows())
def test_long_renewal_rows_equal_the_direct_double_sum(case):
    # bit for bit where rows count their far terms, and where gaps, +-inf,
    # NaN or overflow send a row through logsumexp
    log_wstar, N = case
    ps = partition_sums_renewal(log_wstar=log_wstar, N=N)
    assert repr(ps.log_z) == repr(_renewal_double_sum(log_wstar, N))


@pytest.mark.parametrize("log_wstar, N", [
    ([-1e308], 2), ([-1e308], 130), ([-1e308] * 100, 130),
    # counted rows whose sums grow past the overflow guard
    ([-1e305] * 100, 300), ([1e305] * 100, 300),
])
def test_renewal_rows_near_overflow_equal_the_direct_double_sum(log_wstar, N):
    # log Z_2 = -2e308 overflows to LOG_ZERO, so rows hold LOG_ZERO terms
    ps = partition_sums_renewal(log_wstar=log_wstar, N=N)
    assert repr(ps.log_z) == repr(_renewal_double_sum(log_wstar, N))


def test_expm1_is_minus_one_past_the_counting_cut():
    # the renewal rows count every term whose log ratio to the row's largest
    # is at most numerics._NEGLIGIBLE as an expm1 of exactly -1.0
    cut = numerics._NEGLIGIBLE
    grid = [cut - i / 64 for i in range(int((cut + 745) * 64) + 1)] + [-745.0, -1e308, -math.inf]
    assert all(math.expm1(d) == -1.0 for d in grid)


@pytest.mark.parametrize("preset, N, most, every", [
    ("renewal-ones", 960, 64 * 960, False),  # Δ = log 2: about 56 terms a row
    ("sec53(beta=3,C=auto)", 200, 200 * 201 // 2, True),  # a power tail: every term
])
def test_renewal_rows_exponentiate_only_the_terms_that_count(monkeypatch, preset, N, most,
                                                             every):
    log_wstar = log_weight_sequence(build_preset(preset).weights, N)
    calls, expm1 = 0, math.expm1

    def counting_expm1(x):
        nonlocal calls
        calls += 1
        return expm1(x)

    monkeypatch.setattr(math, "expm1", counting_expm1)
    partition_sums_renewal(log_wstar=log_wstar, N=N)
    assert calls == most if every else calls <= most


@settings(max_examples=100)
@given(xs=st.lists(st.one_of(st.sampled_from([LOG_ZERO, math.inf, math.nan, -0.0]),
                             st.floats(min_value=-800, max_value=800)), max_size=12))
def test_logsumexp_equals_the_generator_definition(xs):
    # every form of iterable: a list (left as it was), a tuple, an
    # iterator, a map and a generator, with LOG_ZERO, NaN and +-inf among
    # the terms
    want, before = repr(_logsumexp_generator(xs)), repr(xs)
    for values in (xs, tuple(xs), iter(xs), map(float, xs), (x for x in xs)):
        assert repr(logsumexp(values)) == want
    assert repr(xs) == before


def test_renewal_identity_against_brute_force(sec52):
    T, phi = sec52.system, sec52.potential
    brute = partition_sums_bruteforce(T, phi, ROOT, 12)
    dp = partition_sums_renewal(
        log_wstar=log_weight_sequence(sec52.truncated_weights, 12), N=12)
    for n in range(1, 13):
        assert brute.logz(n) == pytest.approx(dp.logz(n), abs=1e-12)
        assert brute.logzstar(n) == pytest.approx(dp.logzstar(n), abs=1e-12)


# -- transfer DP ------------------------------------------------------------------------

def test_transfer_matches_brute_force_weighted(full2):
    rng = random.Random(3)
    table = {(Plain(i), Plain(j)): rng.uniform(-2, 0)
             for i in (1, 2) for j in (1, 2)}
    phi = Potential(2, table)
    brute = partition_sums_bruteforce(full2, phi, Plain(2), 9)
    fast = partition_sums_transfer(full2, phi, Plain(2), 9)
    for n in range(1, 10):
        assert fast.logz(n) == pytest.approx(brute.logz(n), abs=1e-10)
        assert fast.logzstar(n) == pytest.approx(brute.logzstar(n), abs=1e-10)


def test_transfer_zero_potential_exact_counts(full2):
    phi = Potential(1, {}, 0.0)
    ps = partition_sums_transfer(full2, phi, Plain(1), 20)
    assert ps.counts == [2 ** (n - 1) for n in range(1, 21)]


@settings(max_examples=25)
@given(data=st.data())
def test_transfer_matches_brute_force_on_random_shifts(data):
    # random transitive shifts (a cycle through every state plus random
    # edges), a random base state, weighted and zero potentials
    S = data.draw(st.integers(min_value=2, max_value=4))
    matrix = [[int(j == (i + 1) % S or data.draw(st.booleans()))
               for j in range(S)] for i in range(S)]
    T = FiniteShift(matrix)
    a = Plain(data.draw(st.integers(min_value=1, max_value=S)))
    N = 8
    phi = Potential(2, {
        (Plain(i + 1), Plain(j + 1)): data.draw(
            st.floats(min_value=-3, max_value=2, allow_nan=False))
        for i in range(S) for j in range(S) if matrix[i][j]})
    brute = partition_sums_bruteforce(T, phi, a, N)
    fast = partition_sums_transfer(T, phi, a, N)
    for n in range(1, N + 1):
        assert fast.logz(n) == pytest.approx(brute.logz(n), abs=1e-10)
        assert fast.logzstar(n) == pytest.approx(brute.logzstar(n), abs=1e-10)
    zero = Potential(1, {}, 0.0)
    brute = partition_sums_bruteforce(T, zero, a, N)
    fast = partition_sums_transfer(T, zero, a, N)
    assert fast.counts == brute.counts
    assert fast.star_counts == brute.star_counts


def _random_list_bouquet(data):
    # a bouquet of loop lengths 1..L (L <= 5) with a(1) <= 1, at most two
    # loops of each longer length, and at least one loop
    L = data.draw(st.integers(min_value=1, max_value=5))
    values = [data.draw(st.integers(min_value=0, max_value=1))] + [
        data.draw(st.integers(min_value=0, max_value=2)) for _ in range(L - 1)]
    if not any(values):
        values[-1] = 1
    return BouquetShift(LoopCountFamily("list", values=tuple(values)), L)


def _random_table_potential(data, T, memory, weights):
    # every admissible window of the memory gets a weight or the default
    windows = enumerate_words(T, memory).words
    table = {w: data.draw(weights) for w in windows if data.draw(st.booleans())}
    return Potential(memory, table, data.draw(weights), system=T)


EIGHTHS = st.integers(min_value=-24, max_value=8).map(lambda k: k / 8)


@settings(max_examples=40)
@given(data=st.data())
def test_transfer_matches_brute_force_on_random_bouquets(data):
    # bouquets without per-loop totals are finite graphs: the transfer DP
    # runs on them at any horizon, from any base state, and on their block
    # graphs for memory 3-4
    T = _random_list_bouquet(data)
    a = T.state_of_order(data.draw(st.integers(min_value=1, max_value=T.state_count())))
    N = data.draw(st.integers(min_value=1, max_value=8))
    phi = _random_table_potential(data, T, data.draw(st.sampled_from([1, 2, 3, 4])),
                                  EIGHTHS)
    brute = partition_sums_bruteforce(T, phi, a, N)
    fast = partition_sums_transfer(T, phi, a, N)
    for n in range(1, N + 1):
        assert fast.logz(n) == pytest.approx(brute.logz(n), abs=1e-12)
        assert fast.logzstar(n) == pytest.approx(brute.logzstar(n), abs=1e-12)
    zero = Potential(1, {}, 0.0)
    brute = partition_sums_bruteforce(T, zero, a, N)
    fast = partition_sums_transfer(T, zero, a, N)
    assert fast.counts == brute.counts
    assert fast.star_counts == brute.star_counts


def test_transfer_names_the_least_undefined_period(full2):
    # 11 weighs +inf, 12 -0.5 and 22 -inf: the first word holding 11 and 22
    # is (1, 1, 2, 2), of period 4, while (1, 1, 2) weighs +inf
    phi = Potential(2, {(Plain(1), Plain(1)): math.inf, (Plain(1), Plain(2)): -0.5,
                        (Plain(2), Plain(2)): -math.inf}, 0.0)
    fast = partition_sums_transfer(full2, phi, Plain(1), 3)
    assert fast.log_z == partition_sums_bruteforce(full2, phi, Plain(1), 3).log_z \
        == [math.inf] * 3
    for sums in (partition_sums_transfer, partition_sums_bruteforce):
        with pytest.raises(ValueError, match="^the weight of a period-4 word through 1 is "
                                             "undefined: its windows weigh"):
            sums(full2, phi, Plain(1), 6)


@settings(max_examples=80)
@given(data=st.data())
def test_transfer_with_infinite_weights_matches_brute_force(data):
    # random transitive 1-4 state shifts and list bouquets, memory 1-3
    # weights partly +inf, -inf or -0.0: the transfer DP returns the brute
    # force's sums (the non-finite ones in repr, the others to 1e-12), or
    # raises the same exception with the same text
    if data.draw(st.booleans()):
        S = data.draw(st.integers(min_value=1, max_value=4))
        T = FiniteShift([[int(j == (i + 1) % S or data.draw(st.booleans()))
                          for j in range(S)] for i in range(S)])
    else:
        T = _random_list_bouquet(data)
    a = T.state_of_order(data.draw(st.integers(min_value=1, max_value=T.state_count())))
    N = data.draw(st.integers(min_value=1, max_value=6))
    phi = _random_table_potential(data, T, data.draw(st.integers(min_value=1, max_value=3)),
                                  st.one_of(SPECIALS, EIGHTHS))

    def outcome(sums):
        try:
            ps = sums(T, phi, a, N)
        except ValueError as exc:
            return type(exc), str(exc)
        return ps.log_z + ps.log_zstar

    fast, brute = outcome(partition_sums_transfer), outcome(partition_sums_bruteforce)
    if isinstance(brute, tuple) or isinstance(fast, tuple):
        assert fast == brute
        return
    for x, y in zip(fast, brute, strict=True):
        assert repr(x) == repr(y) if not math.isfinite(y) else x == pytest.approx(y, abs=1e-12)


@settings(max_examples=60)
@given(data=st.data())
def test_transfer_on_block_graphs_matches_brute_force(data):
    # random transitive 1-4 state shifts, memory 3-4 potentials with k/8 or
    # float weights: the transfer DP on the (m-1)-block graph sums what the
    # enumeration sums, from any base state
    S = data.draw(st.integers(min_value=1, max_value=4))
    T = FiniteShift([[int(j == (i + 1) % S or data.draw(st.booleans()))
                      for j in range(S)] for i in range(S)])
    a = Plain(data.draw(st.integers(min_value=1, max_value=S)))
    N = data.draw(st.integers(min_value=1, max_value=7))
    weights = data.draw(st.sampled_from(
        [EIGHTHS, st.floats(min_value=-3, max_value=2, allow_nan=False)]))
    phi = _random_table_potential(data, T, data.draw(st.sampled_from([3, 4])), weights)
    brute = partition_sums_bruteforce(T, phi, a, N)
    fast = partition_sums_transfer(T, phi, a, N)
    assert fast.method == "transfer-dp"
    for n in range(1, N + 1):
        assert fast.logz(n) == pytest.approx(brute.logz(n), abs=1e-12)
        assert fast.logzstar(n) == pytest.approx(brute.logzstar(n), abs=1e-12)


def test_transfer_skips_empty_sources_of_infinite_edges():
    # the root self-loop weighs +inf and the edge back from v(2,1,1) -inf:
    # the only first return of length 2 weighs -inf, and no -inf + inf
    # (from the emptied root) enters its sum
    T = BouquetShift(LoopCountFamily("list", values=(1, 1)), 2)
    v = LoopVertex(2, 1, 1)
    phi = Potential(2, {(ROOT, ROOT): math.inf, (v, ROOT): -math.inf}, 0.0)
    brute = partition_sums_bruteforce(T, phi, ROOT, 2)
    fast = partition_sums_transfer(T, phi, ROOT, 2)
    assert (fast.log_z, fast.log_zstar) == (brute.log_z, brute.log_zstar) \
        == ([math.inf, math.inf], [math.inf, LOG_ZERO])
    # period 3 holds the word (r, r, v(2,1,1)): its sum is undefined
    with pytest.raises(ValueError, match="period-3 word through r is undefined"):
        partition_sums_bruteforce(T, phi, ROOT, 3)


def test_block_graph_cap_counts_blocks():
    # the full 3-shift has 3^4 = 81 admissible 4-words, the nodes a memory-5
    # potential needs, and 3^10 = 59049 > DP_STATE_CAP 10-words; each cap
    # refuses before a word is listed and names the block length
    from cmshift.shift import index_graph
    T = FiniteShift([[1, 1, 1]] * 3)
    graph = index_graph(T, 81, "transfer DP", 5)
    assert graph.block == 4 and len(graph.states) == 81
    assert graph.states[:2] == [(Plain(1),) * 4, (Plain(1),) * 3 + (Plain(2),)]
    assert graph.succ[1] == [3, 4, 5]  # 1112 -> 1121, 1122, 1123
    with pytest.raises(EnumerationRefusal,
                       match=r"^transfer DP runs on at most 80 states \(the 4-block graph "
                             r"of this system, for a potential of memory 5, has 81\)$"):
        index_graph(T, 80, "transfer DP", 5)
    with pytest.raises(EnumerationRefusal, match="the 10-block graph .* has 59049"):
        partition_sums_transfer(T, Potential(11, {}, -0.5), Plain(1), 4)


# -- pressure estimates --------------------------------------------------------------------

def test_pressure_flat_sequence_is_zero():
    ps = partition_sums_renewal(log_wstar=[-n * LOG2 for n in range(1, 41)], N=40)
    est = pressure_estimate(ps)
    assert abs(est.value) < 1e-12
    assert est.uncertainty < 1e-9


def test_pressure_doubling_sequence():
    est = pressure_estimate([(n - 1) * LOG2 for n in range(1, 21)])
    assert est.value == pytest.approx(LOG2, abs=1e-12)


def test_pressure_decaying_sequence():
    est = pressure_estimate([-float(n) for n in range(1, 11)])
    assert est.value == pytest.approx(-1.0, abs=1e-12)


def test_pressure_all_zero_flag():
    est = pressure_estimate([LOG_ZERO] * 8)
    assert est.all_zero and est.value == LOG_ZERO


@pytest.mark.parametrize("seq", [[math.inf] * 8, [0.0, math.inf, 1.0, math.inf,
                                                 2.0, math.inf, 3.0, math.inf]])
def test_pressure_with_an_infinite_term_is_infinite(seq):
    est = pressure_estimate(seq)
    assert est.value == math.inf and not est.all_zero


def test_pressure_fit_on_periodic_nonmixing_shift():
    # a pure 3-cycle is transitive but not mixing: Z_n is supported on
    # multiples of 3 and the fit uses only the finite entries
    T = FiniteShift([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    phi = Potential(1, {}, 0.0)
    ps = partition_sums_bruteforce(T, phi, Plain(1), 12)
    assert [c for c in ps.counts] == [0, 0, 1] * 4
    est = pressure_estimate(ps)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_pressure_needs_five_terms():
    with pytest.raises(ValueError):
        pressure_estimate([0.0, 0.0])


# -- chi_per ----------------------------------------------------------------------------------

def test_chi_per_sec52_is_minus_log2(sec52):
    res = chi_per(sec52.system, sec52.potential, 12)
    assert res.value == pytest.approx(-LOG2, abs=1e-15)
    # the verdicts a report draws from it at the exact pressure 0
    ps = partition_sums_renewal(log_wstar=log_weight_sequence(sec52.weights, 24), N=24)
    assert spr_check(ps.log_zstar, 0.0, closed_form=True).verdict == "holds"
    assert ucs_check(res.value, 0.0) == "holds"
    assert crc_profile(sec52.system, sec52.potential, 1, 12, P=0.0).verdict is True


def test_chi_per_self_loop_equals_pressure_and_ucs_fails():
    T = FiniteShift([[1]])
    c = 0.4
    phi = Potential(1, {(Plain(1),): c})
    res = chi_per(T, phi, 6)
    assert res.value == pytest.approx(c)
    ps = partition_sums_bruteforce(T, phi, Plain(1), 8)
    P = pressure_estimate(ps).value
    assert P == pytest.approx(c, abs=1e-12)
    assert ucs_check(res.value, P) == "fails"


def test_chi_per_matches_exhaustive_cycles():
    rng = random.Random(5)
    for _ in range(4):
        while True:
            mat = [[rng.randint(0, 1) for _ in range(3)] for _ in range(3)]
            try:
                T = FiniteShift(mat)
                break
            except ValueError:
                continue
        phi = Potential(1, {(Plain(i),): rng.uniform(-2, 0) for i in (1, 2, 3)})
        res = chi_per(T, phi, 8)
        best = -math.inf
        for n in range(1, 9):
            for a in (1, 2, 3):
                for w in periodic_points(T, n, Plain(a)):
                    best = max(best,
                               birkhoff_sum(T, phi, w, "periodic").value / n)
        assert res.value == pytest.approx(best, abs=1e-12)


def _enumerated_chi_per(T, phi, N):
    # every periodic word in (period, anchor, state order) order, keeping
    # strictly greater averages: the enumeration the max-plus route replaces
    best, best_w = -math.inf, None
    for n in range(1, N + 1):
        for a in T.states():
            for w in periodic_points(T, n, a):
                avg = birkhoff_sum(T, phi, w, "periodic").value / n
                if avg > best:
                    best, best_w = avg, w
    return best, len(best_w) if best_w else 0, best_w


def _random_chi_per_case(data, weights):
    # a random shift (a cycle through every state plus random edges) of 1-5
    # states, or 1-4 for memory 3-4, a memory 1-4 potential whose table may
    # leave some windows to the default, and a horizon
    memory = data.draw(st.sampled_from([1, 2, 3, 4]))
    S = data.draw(st.integers(min_value=1, max_value=5 if memory <= 2 else 4))
    matrix = [[int(j == (i + 1) % S or data.draw(st.booleans()))
               for j in range(S)] for i in range(S)]
    T = FiniteShift(matrix)
    table = {k: data.draw(weights) for k in enumerate_words(T, memory)
             if data.draw(st.booleans())}
    phi = Potential(memory, table, data.draw(weights))
    N = data.draw(st.integers(min_value=1, max_value=7 if S <= 3 else 5))
    return T, phi, N


@settings(max_examples=80)
@given(data=st.data())
def test_chi_per_max_plus_equals_enumeration_on_dyadic_weights(data):
    # k/8 weights sum exactly, so the word is the enumeration's word too; a
    # coarse grid of values makes ties between words, broken in state order
    dyadic = st.one_of(st.integers(min_value=-2, max_value=1),
                       st.integers(min_value=-24, max_value=16)).map(lambda k: k / 8)
    T, phi, N = _random_chi_per_case(data, dyadic)
    res = chi_per(T, phi, N)
    value, period, orbit = _enumerated_chi_per(T, phi, N)
    assert (res.value, res.period, res.orbit) == (value, period, orbit)


@settings(max_examples=60)
@given(data=st.data())
def test_chi_per_max_plus_matches_enumeration_on_float_weights(data):
    floats = st.floats(min_value=-3, max_value=2, allow_nan=False)
    T, phi, N = _random_chi_per_case(data, floats)
    res = chi_per(T, phi, N)
    value, period, _ = _enumerated_chi_per(T, phi, N)
    assert res.value == value
    assert res.period == period
    w = res.orbit
    if w is None:
        # no period up to N closes through an anchor
        assert (res.value, res.period) == (-math.inf, 0)
        return
    # the orbit is an admissible periodic word of that period whose
    # periodic average is the value
    assert len(w) == res.period
    assert birkhoff_sum(T, phi, w, "periodic").value / len(w) == res.value


@settings(max_examples=40)
@given(data=st.data())
def test_chi_per_on_bouquets_matches_all_anchor_enumeration(data):
    # without per-loop totals a bouquet runs the max-plus route with the root
    # as its only anchor, on the block graph for memory 3-4
    T = _random_list_bouquet(data)
    memory = data.draw(st.sampled_from([1, 2, 3, 4]))
    phi = _random_table_potential(data, T, memory, EIGHTHS)
    N = data.draw(st.integers(min_value=1, max_value=7))
    res = chi_per(T, phi, N)
    assert (res.value, res.period, res.orbit) == _enumerated_chi_per(T, phi, N)


def test_chi_per_max_plus_builds_no_periodic_words(monkeypatch):
    # a 32-state shift at period 40 has far too many periodic words to list;
    # the max-plus route scores one candidate per (period, anchor), on the
    # block graph for memory 3 too
    import cmshift.oracle

    def never(*args, **kwargs):
        raise AssertionError("periodic words were enumerated")

    monkeypatch.setattr(cmshift.oracle, "periodic_points", never)
    rng = random.Random(11)
    S = 32
    matrix = [[int(j == (i + 1) % S) for j in range(S)] for i in range(S)]
    for i in range(S):
        for j in rng.sample([j for j in range(S) if not matrix[i][j]], 2):
            matrix[i][j] = 1
    T = FiniteShift(matrix)
    phi = Potential(2, {(Plain(i + 1), Plain(j + 1)): rng.uniform(-2, 0)
                        for i in range(S) for j in range(S) if matrix[i][j]})
    for phi in (phi, Potential(3, {w: rng.uniform(-2, 0) for w in enumerate_words(T, 3)})):
        res = chi_per(T, phi, 40)
        assert 1 <= res.period <= 40
        assert birkhoff_sum(T, phi, res.orbit, "periodic").value / res.period \
            == res.value


def test_chi_per_keeps_one_anchor_table_at_a_time():
    # each anchor's (N + 1) x S walk table is scanned as soon as it is
    # filled, and only the leader's is kept: all 60 tables held at once
    # peaked near 4.7 MB here
    import tracemalloc

    rng = random.Random(5)
    S, N = 60, 30
    matrix = [[int(j == (i + 1) % S) for j in range(S)] for i in range(S)]
    for i in range(S):
        for j in rng.sample([j for j in range(S) if not matrix[i][j]], 2):
            matrix[i][j] = 1
    T = FiniteShift(matrix)
    phi = Potential(2, {(Plain(i + 1), Plain(j + 1)): rng.uniform(-2, 0)
                        for i in range(S) for j in range(S) if matrix[i][j]})
    tracemalloc.start()
    try:
        res = chi_per(T, phi, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert birkhoff_sum(T, phi, res.orbit, "periodic").value / res.period \
        == res.value


# -- SPR check ------------------------------------------------------------------------------

def test_spr_holds_for_halving_weights():
    logzstar = [-n * LOG2 for n in range(1, 41)]
    v = spr_check(logzstar, 0.0, closed_form=True)
    assert v.verdict == "holds"
    assert v.slope == pytest.approx(-LOG2, abs=1e-9)


def test_spr_fails_for_power_weights():
    C = normalizing_C(3.0).value
    logzstar = [math.log(C) - 3.0 * math.log(n) for n in range(1, 201)]
    v = spr_check(logzstar, 0.0, closed_form=True)
    assert v.verdict == "fails"
    assert abs(v.slope) < 1e-6  # polynomial factors vanish in the rate


def test_spr_holds_with_margin():
    logzstar = [-n * math.log(4.0) for n in range(1, 31)]
    v = spr_check(logzstar, -LOG2, closed_form=True)
    assert v.verdict == "holds"


@pytest.mark.parametrize("P", [0.0, 1.0, -0.7])
@pytest.mark.parametrize("check, band", [("ucs", 1e-9), ("spr-closed-form", 1e-6),
                                         ("spr-fitted", 1e-2)])
def test_verdict_band_edges(monkeypatch, P, check, band):
    # ucs_check and spr_check read one rule: holds below P - band, fails
    # within the band of P, inconclusive above it; x is one ulp either side
    # of each edge (x - P is exact there, so the rounding of the edge decides
    # nothing)
    lo, hi = P - band, P + band
    for x, want in [(math.nextafter(lo, -math.inf), "holds"),
                    (math.nextafter(lo, math.inf), "fails"),
                    (math.nextafter(hi, -math.inf), "fails"),
                    (math.nextafter(hi, math.inf), "inconclusive")]:
        if check == "ucs":
            assert ucs_check(x, P) == want, x
            continue
        monkeypatch.setattr(thermo, "linear_fit_with_log",
                            lambda win, ys: SimpleNamespace(slope=x))
        v = spr_check([0.0] * 8, P, closed_form=check == "spr-closed-form")
        assert (v.verdict, v.slope, v.tol) == (want, x, band)


def test_spr_eventually_zero_weights_hold():
    logzstar = [0.1] + [LOG_ZERO] * 19
    v = spr_check(logzstar, 0.05)
    assert v.verdict == "holds"
    assert v.slope == LOG_ZERO


# -- first returns ------------------------------------------------------------------------

def test_induced_words_sec52_are_loops(sec52):
    # the first returns to the root are its simple loops, one per length,
    # each of total weight -n log 2
    T, phi = sec52.system, sec52.potential
    ps = partition_sums_bruteforce(T, phi, ROOT, 3)
    assert ps.star_counts == [1, 1, 1]
    for n in range(1, 4):
        assert ps.logzstar(n) == pytest.approx(-n * LOG2, abs=1e-12)


def test_induced_words_full_shift(full2):
    # first returns to 1: the words 1 and 12
    ps = partition_sums_bruteforce(full2, Potential(1, {}, 0.0), Plain(1), 2)
    assert ps.star_counts == [1, 1]
    assert ps.log_zstar == [0.0, 0.0]


def test_induced_single_self_loop():
    T = FiniteShift([[1]])
    ps = partition_sums_bruteforce(T, Potential(1, {}, 0.0), Plain(1), 5)
    assert ps.star_counts == [1, 0, 0, 0, 0]
    assert ps.log_zstar == [0.0] + [LOG_ZERO] * 4


def test_induced_weight_aggregates_equal_zstar(sec52):
    # the enumerated first-return weights are what the transfer DP and the
    # closed-form return weights give
    T, phi = sec52.system, sec52.potential
    brute = partition_sums_bruteforce(T, phi, ROOT, 8)
    fast = partition_sums_transfer(T, phi, ROOT, 8)
    logw = log_weight_sequence(sec52.truncated_weights, 8)
    for n in range(1, 9):
        assert fast.logzstar(n) == pytest.approx(brute.logzstar(n), abs=1e-12)
        assert logw[n - 1] == pytest.approx(brute.logzstar(n), abs=1e-12)


# -- induced pressure --------------------------------------------------------------------------

def test_induced_pressure_geometric_at_zero():
    model = GeometricTail(0.0, -LOG2)
    res = RenewalSeries(model).induced(0.0)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.pstar == pytest.approx(LOG2, abs=1e-12)
    assert res.delta == math.inf
    assert res.spr is True


def test_induced_pressure_power_family_normalized():
    beta = 3.0
    C = normalizing_C(beta).value
    model = PowerTail(beta, math.log(C), 0.0)
    res = RenewalSeries(model).induced(0.0)
    assert res.value == pytest.approx(0.0, abs=1e-8)
    assert res.pstar == pytest.approx(0.0, abs=1e-12)
    assert res.delta == pytest.approx(0.0, abs=1e-8)
    assert res.spr is False


def test_induced_pressure_beyond_pstar_diverges():
    model = GeometricTail(0.0, -LOG2)
    assert RenewalSeries(model).induced(LOG2).value == math.inf
    assert RenewalSeries(model).induced(LOG2 + 0.1).value == math.inf


def test_induced_pressure_power_family_diverges_at_zero_for_beta_at_most_one():
    # sum_k C k^-beta diverges for beta <= 1: an infinite value, not a
    # ValueError from the zeta series
    for beta in (0.5, 1.0):
        res = RenewalSeries(PowerTail(beta, math.log(0.1), 0.0)).induced(0.0)
        assert (res.value, res.delta, res.spr) == (math.inf, math.inf, True)
    below = RenewalSeries(PowerTail(0.5, math.log(0.1), 0.0)).induced(-0.1)
    assert math.isfinite(below.value)


def test_induced_pressure_finite_tail_always_finite():
    model = FiniteTail(tuple(-n * LOG2 for n in range(1, 6)))
    res = RenewalSeries(model).induced(5.0)
    assert math.isfinite(res.value)
    assert res.pstar == math.inf and res.spr is True


@settings(max_examples=25)
@given(ratio=st.floats(min_value=0.05, max_value=0.9),
       bump=st.floats(min_value=0.0, max_value=1.0))
def test_pstar_monotone_under_weight_increase(ratio, bump):
    base = GeometricTail(0.0, math.log(ratio))
    bigger = GeometricTail(bump, math.log(ratio))  # multiply every weight by e^bump
    assert RenewalSeries(bigger).induced(0.0).pstar <= RenewalSeries(base).induced(0.0).pstar


# -- recurrence classification --------------------------------------------------------------------

def test_recurrence_classes_of_power_family():
    z3 = zeta(3.0).value
    assert RenewalSeries(PowerTail(3.0, math.log(1.0 / z3))).classify().kind \
        == "positive-recurrent"
    z15 = zeta(1.5).value
    assert RenewalSeries(PowerTail(1.5, math.log(1.0 / z15))).classify().kind \
        == "null-recurrent"
    assert RenewalSeries(PowerTail(3.0, math.log(0.5 / z3))).classify().kind \
        == "transient"


def test_recurrence_supercritical_family_normalizes_to_spr():
    z3 = zeta(3.0).value
    rc = RenewalSeries(PowerTail(3.0, math.log(2.0 / z3))).classify()
    assert rc.kind == "strongly-positive-recurrent"
    assert rc.pressure > 0


def test_recurrence_invariant_under_constant_shift():
    z3 = zeta(3.0).value
    c = 0.7
    plain = RenewalSeries(PowerTail(3.0, math.log(1.0 / z3), 0.0)).classify()
    shifted = RenewalSeries(PowerTail(3.0, math.log(1.0 / z3), c)).classify()
    assert plain.kind == shifted.kind == "positive-recurrent"
    assert shifted.pressure == pytest.approx(c, abs=1e-9)


# log x < 0: the class and the pressure are decided at the boundary shift
# log x, where the return series is C zeta(3) (1.08 and 0.12 here)
_BELOW_ZERO_BOUNDARY = {
    PowerTail(3.0, math.log(0.9), -0.2): ("strongly-positive-recurrent", -0.1399774998),
    PowerTail(3.0, math.log(0.1), -0.2): ("transient", -0.2),
}


@pytest.mark.parametrize("family", [
    PowerTail(3.0, math.log(2.0 / zeta(3.0).value)),
    PowerTail(1.5049, math.log(1.5 / zeta(1.5049).value)),
    PowerTail(3.0, math.log(1.0 / zeta(3.0).value), 0.7),
    PowerTail(3.0, math.log(0.5 / zeta(3.0).value)),
    PowerTail(1.5, math.log(1.0 / zeta(1.5).value)),
    PowerTail(0.5, 0.0, -0.2),
    PowerTail(2.0, 690.0),
    *_BELOW_ZERO_BOUNDARY,
])
def test_recurrence_takes_the_pressure_it_is_given(family):
    # the report passes its analytic P instead of solving the root again
    series = RenewalSeries(family)
    rc = series.classify()
    assert RenewalSeries(family).classify(series.pressure) == rc
    if family in _BELOW_ZERO_BOUNDARY:
        kind, P = _BELOW_ZERO_BOUNDARY[family]
        assert rc.kind == kind
        assert rc.pressure == pytest.approx(P, abs=1e-9)
        assert rc.pressure == RenewalSeries(family).pressure


# -- the renewal kernel ----------------------------------------------------------------------

_KERNEL_TAILS = st.one_of(
    st.builds(GeometricTail, st.floats(-3.0, 3.0), st.floats(-3.0, 1.0)),
    st.builds(PowerTail, st.floats(1.05, 6.0), st.floats(-3.0, 3.0), st.floats(-3.0, 0.0)),
    st.lists(st.one_of(st.just(LOG_ZERO), st.floats(-5.0, 3.0)), min_size=1, max_size=8)
    .filter(lambda ws: any(w != LOG_ZERO for w in ws)).map(lambda ws: FiniteTail(tuple(ws))),
)


def _mp_series(mpmath, tail, p, mean):
    # sum_k k^mean w*_k e^{-kp} in mpmath: the geometric closed form, C times
    # a polylog, or the finite sum; inf where the series diverges
    if isinstance(tail, GeometricTail):
        y = mpmath.exp(mpmath.mpf(tail.log_ratio) - p)
        return mpmath.exp(tail.log_coeff) * y / (1 - y) ** (1 + mean) if y < 1 else mpmath.inf
    if isinstance(tail, PowerTail):
        s, x = tail.beta - mean, mpmath.mpf(tail.log_x) - p
        if x > 0 or (x == 0 and s <= 1):
            return mpmath.inf
        return mpmath.exp(tail.log_coeff) * mpmath.polylog(s, mpmath.exp(x))
    return mpmath.fsum(mpmath.mpf(k) ** mean * mpmath.exp(mpmath.mpf(lw) - k * p)
                       for k, lw in enumerate(tail.log_weights, 1) if lw != LOG_ZERO)


@settings(max_examples=80)
@given(tail=_KERNEL_TAILS, shift=st.floats(0.01, 5.0), p=st.floats(-3.0, 3.0))
def test_renewal_kernel_matches_mpmath(tail, shift, p):
    # log_series and log_mean against mpmath to 1e-12 relative, at a shift
    # above the boundary and (power tails) at the boundary itself; the root
    # makes the series 1 to 1e-12, or sits at the boundary with the series
    # there at most 1; geometric and finite tails are strongly positive
    # recurrent, and a power tail's return sum at its root is 1 to 1e-12
    mpmath = pytest.importorskip("mpmath")
    if not isinstance(tail, FiniteTail):
        p = tail.log_x + shift
    points = [p]
    if isinstance(tail, PowerTail):
        points.append(tail.log_x)
    with mpmath.workdps(40):
        for q in points:
            for mean, read in ((0, tail.log_series), (1, tail.log_mean)):
                ref, got = _mp_series(mpmath, tail, q, mean), read(q)
                if ref == mpmath.inf:
                    assert got == math.inf
                else:
                    assert abs(mpmath.exp(got) / ref - 1) <= 1e-12, (q, mean)
        if isinstance(tail, PowerTail) and tail.log_series(tail.log_x + 1e-3) <= 0.0:
            # a root within 1e-3 of log_x costs series of about 1e5 terms per
            # step (test_newton_pressure_root_matches_the_bisection)
            assume(tail.log_series(tail.log_x) <= SERIES_BAND)
        P = RenewalSeries(tail).pressure
        total = _mp_series(mpmath, tail, mpmath.mpf(P), 0)
        if P == tail.log_x:
            assert total <= 1 + 1e-9
        else:
            assert abs(total - 1) <= 1e-12
    rc = RenewalSeries(tail).classify(P)
    if isinstance(tail, PowerTail):
        if P != tail.log_x:
            assert abs(rc.return_sum - 1) <= 1e-12
    else:
        assert rc.kind == "strongly-positive-recurrent"


def test_renewal_series_reads_the_boundary_series_once(monkeypatch):
    # a report on sec53 reads the root, the induced values and the class
    # from one RenewalSeries: zeta(beta), the series at the boundary log x =
    # 0, is summed once, and so is zeta(beta - 1) of the boundary mean
    calls = []
    real = families.polylog_with_bound

    def polylog(beta, log_x, *args):
        calls.append((beta, log_x))
        return real(beta, log_x, *args)

    monkeypatch.setattr(families, "polylog_with_bound", polylog)
    series = RenewalSeries(PowerTail(3.0, math.log(1.0 / zeta(3.0).value)))
    assert series.pressure == 0.0
    series.induced(0.0)
    assert series.classify(0.0).kind == "positive-recurrent"
    assert calls == [(3.0, 0.0), (2.0, 0.0)]


# -- the power-tail pressure root --------------------------------------------------------------

def _bisection_root(family):
    # the bisection that the safeguarded Newton root replaced: its oracle
    beta, logC, logx = family.beta, family.log_coeff, family.log_x
    if beta > 1:
        lvb, lbb = polylog_with_bound(beta, 0.0, 1e-13)
        if logC + lvb <= 1e-9 + lbb:
            return logx

    def g(p):
        try:
            lv, _ = polylog_with_bound(beta, logx - p, 1e-13, max_terms=300_000)
        except ValueError:
            return math.inf
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


@settings(max_examples=60)
@given(beta=st.floats(min_value=1.02, max_value=6.0),
       log_c=st.floats(min_value=-3.0, max_value=700.0),
       log_x=st.floats(min_value=-5.0, max_value=0.0))
def test_newton_pressure_root_matches_the_bisection(beta, log_c, log_x):
    # a root within 1e-3 above log_x costs both routes series of about 1e5
    # terms per step, so those draws are skipped, but not the boundary branch
    # (C zeta(beta) <= 1, P = log_x)
    if log_c + polylog_with_bound(beta, -1e-3, 1e-13)[0] <= 0.0:
        lz, lb = polylog_with_bound(beta, 0.0, 1e-13)
        assume(log_c + lz <= 1e-9 + lb)
    family = PowerTail(beta, log_c, log_x)
    old = _bisection_root(family)
    new = RenewalSeries(family).pressure
    if old == log_x:
        assert new == old
    assert abs(new - old) <= 1e-14 * max(1.0, abs(old))


@pytest.mark.parametrize("beta, C, log_x", [
    (1.5049, 1.5 / zeta(1.5049).value, 0.0), (2.5, 3.0, -0.5), (4.0, 100.0, -2.0),
    (2.0, 1e300, 0.0), (1.2, 20.0, 0.0),
    # zeta(1.01) is about 100: the boundary series certifies a relative 1e-13
    (1.01, 1.0, 0.0),
])
def test_newton_pressure_root_solves_the_series_in_mpmath(beta, C, log_x):
    mpmath = pytest.importorskip("mpmath")
    P = RenewalSeries(PowerTail(beta, math.log(C), log_x)).pressure
    with mpmath.workdps(40):
        total = mpmath.mpf(C) * mpmath.polylog(beta, mpmath.exp(mpmath.mpf(log_x) - P))
        assert abs(total - 1) <= 1e-12


@pytest.mark.parametrize("family, refusal", [
    # the root of 2e6 + log Li_2(e^-p) = 0 is near p = 2e6, past the 1e6 cap
    (PowerTail(2.0, 2e6), "pressure root escaped the search interval"),
])
def test_pressure_root_refusals_are_kept(family, refusal):
    for root in (_bisection_root, lambda tail: RenewalSeries(tail).pressure):
        with pytest.raises(ValueError) as exc:
            root(family)
        assert str(exc.value) == refusal


@pytest.mark.parametrize("shrink, decided", [(0.0, True), (-50.0, False)])
def test_a_series_budget_failure_is_a_sign_only_past_one(monkeypatch, shrink, decided):
    # every series left of the root runs out of terms; its partial sum is a
    # lower bound of Li, so it shows p left of the root (g > 0) when it is
    # the whole sum, and decides nothing when it is e^-50 of it
    family = PowerTail(2.5, math.log(3.0), -0.5)
    root = RenewalSeries(family).pressure
    real, left = families.polylog_with_bound, []

    def polylog(beta, log_x, tol=1e-12, max_terms=2_000_000):
        value = real(beta, log_x, tol, max_terms)
        if family.log_x < family.log_x - log_x < root:  # not the boundary's zeta
            left.append(log_x)
            raise SeriesBudgetError("polylog series did not converge within term budget",
                                    value[0] + shrink)
        return value

    monkeypatch.setattr(families, "polylog_with_bound", polylog)
    if decided:
        assert RenewalSeries(family).pressure == pytest.approx(root, rel=1e-14)
    else:
        with pytest.raises(ValueError, match="pressure root out of reach"):
            RenewalSeries(family).pressure
    assert left


def test_zeta_refuses_at_once_when_its_float_slop_misses_tol(monkeypatch):
    # 8 eps zeta(1.01) is about 1.8e-13: no K reaches tol 1e-13, and the
    # refusal comes from the first 64-term round (one partial sum) instead of
    # eight rounds up to 1M terms; zeta(1.02) still certifies
    from cmshift.numerics import zeta_series_with_bound
    sums = []
    real_fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: sums.append(1) or real_fsum(xs))
    with pytest.raises(ValueError, match="did not certify tolerance 1e-13 at exponent 1.01"):
        zeta_series_with_bound(1.01, 1e-13)
    assert len(sums) == 1
    monkeypatch.undo()
    value, bound = zeta_series_with_bound(1.02, 1e-13)
    assert bound <= 1e-13 and value == pytest.approx(50.5, rel=2e-3)


# -- CRC profile ----------------------------------------------------------------------------------

def test_crc_sec52_exact_line(sec52):
    prof = crc_profile(sec52.system, sec52.potential, 1, 12, P=0.0)
    for n in range(1, 13):
        assert prof.s[n - 1] == pytest.approx(-n * LOG2, abs=1e-12)
    assert prof.lambda_q == pytest.approx(LOG2, abs=1e-12)
    assert prof.verdict


def test_crc_single_self_loop_fails():
    T = FiniteShift([[1]])
    phi = Potential(1, {}, 0.0)
    prof = crc_profile(T, phi, 1, 10, P=0.0)
    assert prof.lambda_q == pytest.approx(0.0, abs=1e-12)
    assert not prof.verdict


def test_crc_full_shift_constant_potential(full2):
    phi = Potential(1, {(Plain(1),): -1.0, (Plain(2),): -1.0})
    prof = crc_profile(full2, phi, 2, 12, P=LOG2 - 1.0)
    for n in range(1, 13):
        assert prof.s[n - 1] == pytest.approx(-float(n), abs=1e-12)
    assert prof.lambda_q == pytest.approx(1.0, abs=1e-12)
    assert prof.verdict  # 1 > log 2 - 1


def test_crc_majorant_covers_tail(sec52):
    prof = crc_profile(sec52.system, sec52.potential, 1, 12)
    lo, hi = prof.fit.window
    for n in range(lo, hi + 1):
        assert prof.s[n - 1] <= prof.C_q - n * prof.lambda_q + 1e-9


def _random_edge_case(data):
    # a random 1-5 state shift (a cycle through every state plus random
    # edges) or a small list bouquet, with memory-2 weights k/8 on every
    # edge, whose walk sums are exact
    if data.draw(st.booleans()):
        S = data.draw(st.integers(min_value=1, max_value=5))
        T = FiniteShift([[int(j == (i + 1) % S or data.draw(st.booleans()))
                          for j in range(S)] for i in range(S)])
    else:
        T = _random_list_bouquet(data)
    S = T.state_count()
    phi = Potential(2, {w: data.draw(EIGHTHS) for w in enumerate_words(T, 2)})
    q = data.draw(st.integers(min_value=1, max_value=S))
    N = data.draw(st.integers(min_value=1, max_value=6 if S <= 3 else 5))
    return T, phi, q, N


def _walk_sum(phi, w):
    return math.fsum(phi.weight((w[i], w[i + 1])) for i in range(len(w) - 1))


@settings(max_examples=40)
@given(data=st.data())
def test_crc_profile_dp_matches_enumerated_low_to_low_words(data):
    # s(n) is the best weight of an (n+1)-word with both ends low
    T, phi, q, N = _random_edge_case(data)
    low = set(T.states_up_to(q))
    s = _max_birkhoff_low_to_low(T, phi, q, N)
    for n in range(1, N + 1):
        words = enumerate_words(T, n + 1, start=low, end=low)
        assert s[n - 1] == max((_walk_sum(phi, w) for w in words), default=LOG_ZERO)


@settings(max_examples=60)
@given(data=st.data())
def test_condition_witness_search_matches_enumeration(data):
    # the witness sits at the first n where some admissible (n+1)-word breaks
    # S_n phi <= C - n eps, and carries the best weight at that n
    T, phi, q, N = _random_edge_case(data)
    cond = data.draw(st.sampled_from("ABC"))
    C = data.draw(st.integers(min_value=-8, max_value=16)) / 8
    eps = data.draw(st.integers(min_value=-4, max_value=8)) / 8
    low = set(T.states_up_to(q))
    allowed = {"A": lambda w: w[-1] in low, "B": lambda w: w[0] in low,
               "C": lambda w: not any(x in low for x in w[:-1])}[cond]
    expected = None
    for n in range(1, N + 1):
        top = max((_walk_sum(phi, w) for w in enumerate_words(T, n + 1) if allowed(w)),
                  default=LOG_ZERO)
        if top > C - n * eps:
            expected = (n, top)
            break
    wit = condition_witness_search(T, phi, cond, q, C, eps, N)
    if expected is None:
        assert wit is None
        return
    assert (wit.n, wit.value) == expected
    assert len(wit.word) == wit.n + 1 and is_admissible(T, wit.word)
    assert allowed(wit.word) and _walk_sum(phi, wit.word) == wit.value


def _block_case(data):
    # a random transitive 1-4 state shift and a memory 1-4 potential with k/8
    # weights, whose sums are exact, or with float weights
    S = data.draw(st.integers(min_value=1, max_value=4))
    T = FiniteShift([[int(j == (i + 1) % S or data.draw(st.booleans()))
                      for j in range(S)] for i in range(S)])
    memory = data.draw(st.integers(min_value=1, max_value=4))
    exact = data.draw(st.booleans())
    weights = EIGHTHS if exact else st.floats(min_value=-3, max_value=1)
    phi = _random_table_potential(data, T, memory, weights)
    q = data.draw(st.integers(min_value=1, max_value=S))
    N = data.draw(st.integers(min_value=1, max_value=5 if S <= 3 else 4))
    return T, phi, q, N, exact


def _scored_words(T, phi, n):
    # every (n+k)-word, k = max(m - 1, 1), with its S_n: the sum of the n
    # windows of length m that start at x_0 .. x_{n-1}
    m = phi.memory
    for w in enumerate_words(T, n + max(m - 1, 1)):
        yield w, math.fsum(phi.weight(w[i:i + m]) for i in range(n))


def _same(a, b, exact):
    return a == b if exact or not math.isfinite(a) else a == pytest.approx(b, abs=1e-12)


@settings(max_examples=80)
@given(data=st.data())
def test_block_graph_dps_match_enumerated_words(data):
    # crc s(n), the A/B/C witnesses and every profile cell of a memory 1-4
    # potential equal an enumeration of the (n+k)-words that S_n reads
    from cmshift.infinity import CountB, _grid_cells

    T, phi, q, N, exact = _block_case(data)
    low = set(T.states_up_to(q))
    M_list = sorted(data.draw(st.sets(st.integers(1, 4), min_size=1, max_size=2)))
    s = _max_birkhoff_low_to_low(T, phi, q, N)
    cells = _grid_cells(T, phi, q, M_list, N)
    for n in range(1, N + 1):
        scored = list(_scored_words(T, phi, n))
        top = max((v for w, v in scored if w[0] in low and w[n] in low), default=LOG_ZERO)
        assert _same(s[n - 1], top, exact)
        for M in M_list:
            # the counted (n+1)-cylinders, each with its best extension
            best = {}
            for w, v in scored:
                if w[0] in low and w[n] in low \
                        and sum(x in low for x in w[:n]) * M <= n + 1:
                    best[w[:n + 1]] = max(best.get(w[:n + 1], LOG_ZERO), v)
            cell, count = cells[M][n - 1], len(best)
            want = CountB(count, math.log(count) if count else LOG_ZERO,
                          max(best.values()) / n if count else LOG_ZERO)
            assert cell.count == count and cell.log_count == want.log_count
            assert _same(cell.z_phi, want.z_phi, exact)
    order = T.order_index
    C = data.draw(st.integers(min_value=-8, max_value=16)) / 8
    eps = data.draw(st.integers(min_value=-4, max_value=8)) / 8
    for cond, allowed in (("A", lambda w, n: w[n] in low),
                          ("B", lambda w, n: w[0] in low),
                          ("C", lambda w, n: not any(x in low for x in w[:n]))):
        wit = condition_witness_search(T, phi, cond, q, C, eps, N)
        for n in range(1, N + 1):
            found = [(w, v) for w, v in _scored_words(T, phi, n) if allowed(w, n)]
            top = max((v for _, v in found), default=LOG_ZERO)
            if top > C - n * eps:
                break
        else:
            assert wit is None
            continue
        assert (wit.n, len(wit.word)) == (n, n + max(phi.memory - 1, 1))
        assert _same(wit.value, top, exact)
        if exact:
            # ties: the last k symbols first in state order, then the
            # earliest x_{n-1}, x_{n-2}, ... in turn
            first = min((w for w, v in found if v == top),
                        key=lambda w: ([order(x) for x in w[n:]],
                                       [order(x) for x in w[n - 1::-1]]))
            assert wit.word == first
        else:
            assert allowed(wit.word, n) and dict(found)[wit.word] == pytest.approx(wit.value)


def _bouquet_best_sums(T, phi, N):
    # the bouquet branch by its definition: one loop_total call per term
    best = [LOG_ZERO] * (N + 1)
    best[0] = 0.0
    for m in range(1, N + 1):
        cands = [phi.loop_total(k) + best[m - k]
                 for k in T.loop_lengths() if k <= m and best[m - k] != LOG_ZERO]
        best[m] = max(cands) if cands else LOG_ZERO
    return best[1:]


@pytest.mark.parametrize("totals", [
    (-0.5, math.inf, 0.0, 0.25, -1.0),
    (-0.5, math.nan, 0.0, 0.25, math.nan),
    (-math.inf, -0.5, 0.0, -math.inf, 0.25),
    (math.nan, math.inf, 0.5, -math.inf, -0.0),
])
def test_bouquet_best_sums_equal_the_per_term_definition(totals):
    # loops of lengths 1, 2, 4, 5; totals[k - 1] is the total of length k
    T = BouquetShift(LoopCountFamily("list", values=(1, 2, 0, 3, 1)), truncate_len=5)
    phi = Potential(2, {}, 0.0)
    phi.loop_total = lambda k: totals[k - 1]
    for N in (1, 3, 12):
        assert repr(_max_birkhoff_low_to_low(T, phi, 1, N)) \
            == repr(_bouquet_best_sums(T, phi, N))


@pytest.mark.parametrize("N", [8, 12, 30])
def test_crc_reads_each_loop_total_at_most_once(N):
    # loops of lengths 1..12; a horizon below 12 reads no longer loop
    build = build_preset("sec52-entry", truncate_len=12)
    T, phi = build.system, build.potential
    plain = crc_profile(T, phi, 1, N)
    calls, total = [], phi.loop_total

    def counted(k):
        calls.append(k)
        return total(k)

    phi.loop_total = counted
    prof = crc_profile(T, phi, 1, N)
    assert sorted(calls) == [k for k in T.loop_lengths() if k <= N]
    assert repr(prof.s) == repr(plain.s) == repr(_bouquet_best_sums(T, phi, N))


def test_crc_state_route_agrees_with_composition_route(sec52):
    # same profile via the generic state DP on an equivalent small system
    T, phi = sec52.system, sec52.potential
    comp = crc_profile(T, phi, 1, 10)
    fam = LoopCountFamily("ones")
    T2 = BouquetShift(fam, truncate_len=12)
    phi2 = Potential(2, {}, 0.0, fallback=phi.fallback)
    state = crc_profile(T2, phi2, 1, 10)
    for a, b in zip(comp.s, state.s):
        assert a == pytest.approx(b, abs=1e-12)


# -- contraction-equivalence directions on the shipped families -----------------------------------

@pytest.mark.parametrize("preset", ["sec52-entry", "sec52-exit", "sec52-mid"])
def test_crc_margin_implies_ucs_margin(preset):
    build = build_preset(preset, truncate_len=16)
    T, phi = build.system, build.potential
    logw = log_weight_sequence(build.weights, 32)
    ps = partition_sums_renewal(log_wstar=logw, N=32)
    P = pressure_estimate(ps).value
    prof = crc_profile(T, phi, 1, 16, P=P)
    tol = 0.05
    if prof.lambda_q > P + tol:
        chi = chi_per(T, phi, 16)
        assert chi.value < P - tol / 2


# -- condition witness searches --------------------------------------------------------------------

def test_condition_A_witness_on_entry_weights():
    build = build_preset("sec52-entry", truncate_len=25)
    w = condition_witness_search(build.system, build.potential, "A",
                                 q=1, C=1.0, eps=0.1, N=20)
    assert w is not None
    assert w.value > 1.0 - w.n * 0.1
    # the witness ends in the low part and collects no entry weight
    assert build.system.order_index(w.word[-1]) <= 1
    assert w.value == pytest.approx(0.0, abs=1e-12)


def test_condition_B_witness_on_exit_weights():
    build = build_preset("sec52-exit", truncate_len=25)
    w = condition_witness_search(build.system, build.potential, "B",
                                 q=1, C=1.0, eps=0.1, N=20)
    assert w is not None
    assert build.system.order_index(w.word[0]) <= 1
    assert w.value == pytest.approx(0.0, abs=1e-12)


def test_condition_B_no_witness_on_entry_weights():
    # entry weights contract every word leaving the root
    build = build_preset("sec52-entry", truncate_len=25)
    w = condition_witness_search(build.system, build.potential, "B",
                                 q=1, C=2.0, eps=0.05, N=12)
    assert w is None


def test_witness_search_sees_loops_longer_than_the_horizon():
    # a length-n witness may leave the root into a loop longer than n + 1:
    # its first n + 1 states are admissible on their own
    spec = BouquetSpec(LoopCountFamily("ones"), "entry",
                       TauSpec("table", table=tuple(float(k) for k in range(1, 26))),
                       25)
    build = build_bouquet(spec)
    for N in (3, 30):
        w = condition_witness_search(build.system, build.potential, "B",
                                     q=1, C=10.0, eps=0.0, N=N)
        assert (w.word, w.n, w.value) == ((ROOT, LoopVertex(25, 1, 1)), 1, 25.0)


def test_condition_C_vacuous_on_full_shift(full2):
    phi = Potential(1, {}, 0.0)
    w = condition_witness_search(full2, phi, "C", q=2, C=1.0, eps=0.1, N=10)
    assert w is None


def test_witness_search_is_deterministic():
    build = build_preset("sec52-entry", truncate_len=25)
    w1 = condition_witness_search(build.system, build.potential, "A",
                                  q=1, C=1.0, eps=0.1, N=20)
    w2 = condition_witness_search(build.system, build.potential, "A",
                                  q=1, C=1.0, eps=0.1, N=20)
    assert w1.word == w2.word and w1.n == w2.n
