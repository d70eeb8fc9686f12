"""Partition sums, pressure, SPR / UCS / CRC diagnostics, witnesses."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmshift import (ROOT, BouquetShift, EnumerationRefusal, FiniteShift,
                     GeometricTail, LoopCountFamily, LoopVertex, Plain,
                     Potential, PowerTail, birkhoff_sum, build_preset, chi_per,
                     condition_witness_search, crc_profile, enumerate_words,
                     induced_pressure, is_admissible,
                     induced_system, normalizing_C, partition_sums_bruteforce,
                     partition_sums_renewal, partition_sums_transfer,
                     periodic_points, pressure_estimate, recurrence_classify,
                     spr_check, ucs_check, zeta)
from cmshift.families import FiniteTail, log_weight_sequence
from cmshift.numerics import LOG_ZERO
from cmshift.thermo import _max_birkhoff_low_to_low

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
    assert ps.check_star_le_z()


# -- renewal DP ----------------------------------------------------------------------

def test_renewal_halving_weights_give_constant_half():
    ps = partition_sums_renewal(wstar=[2.0 ** -n for n in range(1, 41)], N=40)
    for n in range(1, 41):
        assert math.exp(ps.logz(n)) == pytest.approx(0.5, rel=1e-12)


def test_renewal_single_weight_is_constant_one():
    ps = partition_sums_renewal(wstar=[1.0, 0.0, 0.0, 0.0], N=4)
    for n in range(1, 5):
        assert ps.logz(n) == pytest.approx(0.0, abs=1e-14)


def test_renewal_rejects_negative_weights():
    with pytest.raises(ValueError):
        partition_sums_renewal(wstar=[0.5, -0.1], N=2)


@settings(max_examples=30, deadline=None)
@given(weights=st.lists(st.fractions(min_value=0, max_value=2), min_size=1,
                        max_size=8))
def test_renewal_matches_exact_fraction_convolution(weights):
    N = len(weights)
    exact = [Fraction(1)]
    for n in range(1, N + 1):
        exact.append(sum(weights[m - 1] * exact[n - m] for m in range(1, n + 1)))
    ps = partition_sums_renewal(wstar=[float(w) for w in weights], N=N)
    for n in range(1, N + 1):
        want = float(exact[n])
        got = math.exp(ps.logz(n)) if ps.logz(n) != LOG_ZERO else 0.0
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


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


@settings(max_examples=25, deadline=None)
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


# -- pressure estimates --------------------------------------------------------------------

def test_pressure_flat_sequence_is_zero():
    ps = partition_sums_renewal(wstar=[2.0 ** -n for n in range(1, 41)], N=40)
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


def test_chi_per_refusal_matches_periodic_points():
    # 27 periodic words of period 4 through each state of the full 3-shift: a
    # memory-3 potential is no edge weight, so chi_per enumerates, and it
    # refuses with the text the enumeration itself would raise
    T = FiniteShift([[1, 1, 1]] * 3)
    phi = Potential(3, {}, 0.0)
    with pytest.raises(EnumerationRefusal) as enumerated:
        periodic_points(T, 4, Plain(1), max_count=26)
    with pytest.raises(EnumerationRefusal) as counted:
        chi_per(T, phi, 6, max_count=26)
    assert str(counted.value) == str(enumerated.value)
    assert chi_per(T, phi, 6, q_cap=1, max_count=243).period == 1


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


def _enumerated_chi_per(T, phi, N, q_cap):
    # every periodic word in (period, anchor, state order) order, keeping
    # strictly greater averages: the enumeration the max-plus route replaces
    anchors = T.states_up_to(q_cap) if q_cap else list(T.states())
    best, best_w = -math.inf, None
    for n in range(1, N + 1):
        for a in anchors:
            for w in periodic_points(T, n, a):
                avg = birkhoff_sum(T, phi, w, "periodic").value / n
                if avg > best:
                    best, best_w = avg, w
    return best, len(best_w) if best_w else 0, best_w


def _random_chi_per_case(data, weights):
    # a random 1-5 state shift (a cycle through every state plus random
    # edges), a memory-1 or memory-2 potential whose table may leave some
    # windows to the default, a horizon and an anchor cap
    S = data.draw(st.integers(min_value=1, max_value=5))
    matrix = [[int(j == (i + 1) % S or data.draw(st.booleans()))
               for j in range(S)] for i in range(S)]
    T = FiniteShift(matrix)
    memory = data.draw(st.sampled_from([1, 2]))
    if memory == 1:
        keys = [(Plain(i + 1),) for i in range(S)]
    else:
        keys = [(Plain(i + 1), Plain(j + 1))
                for i in range(S) for j in range(S) if matrix[i][j]]
    table = {k: data.draw(weights) for k in keys if data.draw(st.booleans())}
    phi = Potential(memory, table, data.draw(weights))
    N = data.draw(st.integers(min_value=1, max_value=7 if S <= 3 else 5))
    q_cap = data.draw(st.sampled_from([None, 1, 2]))
    return T, phi, N, q_cap


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chi_per_max_plus_equals_enumeration_on_dyadic_weights(data):
    # k/8 weights sum exactly, so the word is the enumeration's word too; a
    # coarse grid of values makes ties between words, broken in state order
    dyadic = st.one_of(st.integers(min_value=-2, max_value=1),
                       st.integers(min_value=-24, max_value=16)).map(lambda k: k / 8)
    T, phi, N, q_cap = _random_chi_per_case(data, dyadic)
    res = chi_per(T, phi, N, q_cap=q_cap)
    value, period, orbit = _enumerated_chi_per(T, phi, N, q_cap)
    assert (res.value, res.period, res.orbit) == (value, period, orbit)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chi_per_max_plus_matches_enumeration_on_float_weights(data):
    floats = st.floats(min_value=-3, max_value=2, allow_nan=False)
    T, phi, N, q_cap = _random_chi_per_case(data, floats)
    res = chi_per(T, phi, N, q_cap=q_cap)
    value, period, _ = _enumerated_chi_per(T, phi, N, q_cap)
    assert res.value == pytest.approx(value, abs=1e-12)
    assert res.period == period
    w = res.orbit
    if w is None:
        # no period up to N closes through an anchor
        assert (res.value, res.period) == (-math.inf, 0)
        return
    # the orbit is an admissible periodic word of that period, through an
    # anchor, whose periodic average is the value
    assert len(w) == res.period
    assert w[0] in (T.states_up_to(q_cap) if q_cap else list(T.states()))
    assert birkhoff_sum(T, phi, w, "periodic").value / len(w) == res.value


def test_chi_per_max_plus_builds_no_periodic_words(monkeypatch):
    # a 32-state shift at period 40 has far too many periodic words to list;
    # the memory-2 route scores one candidate per (period, anchor)
    import cmshift.thermo

    def never(*args, **kwargs):
        raise AssertionError("periodic words were enumerated")

    monkeypatch.setattr(cmshift.thermo, "periodic_points", never)
    rng = random.Random(11)
    S = 32
    matrix = [[int(j == (i + 1) % S) for j in range(S)] for i in range(S)]
    for i in range(S):
        for j in rng.sample([j for j in range(S) if not matrix[i][j]], 2):
            matrix[i][j] = 1
    T = FiniteShift(matrix)
    phi = Potential(2, {(Plain(i + 1), Plain(j + 1)): rng.uniform(-2, 0)
                        for i in range(S) for j in range(S) if matrix[i][j]})
    res = chi_per(T, phi, 40)
    assert 1 <= res.period <= 40
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


def test_spr_eventually_zero_weights_hold():
    logzstar = [0.1] + [LOG_ZERO] * 19
    v = spr_check(logzstar, 0.05)
    assert v.verdict == "holds"
    assert v.slope == LOG_ZERO


# -- induced system --------------------------------------------------------------------------

def test_induced_words_sec52_are_loops(sec52):
    T, phi = sec52.system, sec52.potential
    ind = induced_system(T, phi, ROOT, 3)
    words = [iw.word for iw in ind.words]
    assert words == [
        (ROOT,),
        (ROOT, LoopVertex(2, 1, 1)),
        (ROOT, LoopVertex(3, 1, 1), LoopVertex(3, 1, 2)),
    ]
    for iw in ind.words:
        assert iw.log_weight == pytest.approx(-len(iw.word) * LOG2, abs=1e-12)
    assert all(ind.exhaustive.values())


def test_induced_words_full_shift(full2):
    phi = Potential(1, {}, 0.0)
    ind = induced_system(full2, phi, Plain(1), 2)
    assert [iw.word for iw in ind.words] == [(Plain(1),), (Plain(1), Plain(2))]


def test_induced_single_self_loop():
    T = FiniteShift([[1]])
    phi = Potential(1, {}, 0.0)
    ind = induced_system(T, phi, Plain(1), 5)
    assert [iw.word for iw in ind.words] == [(Plain(1),)]


def test_induced_weight_aggregates_equal_zstar(sec52):
    T, phi = sec52.system, sec52.potential
    ind = induced_system(T, phi, ROOT, 8)
    brute = partition_sums_bruteforce(T, phi, ROOT, 8)
    for n in range(1, 9):
        assert ind.log_return_weight(n) == pytest.approx(brute.logzstar(n),
                                                         abs=1e-12)


# -- induced pressure --------------------------------------------------------------------------

def test_induced_pressure_geometric_at_zero():
    model = GeometricTail(0.0, -LOG2)
    res = induced_pressure(model, 0.0)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.pstar == pytest.approx(LOG2, abs=1e-12)
    assert res.delta == math.inf
    assert res.spr is True


def test_induced_pressure_power_family_normalized():
    beta = 3.0
    C = normalizing_C(beta).value
    model = PowerTail(beta, math.log(C), 0.0)
    res = induced_pressure(model, 0.0)
    assert res.value == pytest.approx(0.0, abs=1e-8)
    assert res.pstar == pytest.approx(0.0, abs=1e-12)
    assert res.delta == pytest.approx(0.0, abs=1e-8)
    assert res.spr is False


def test_induced_pressure_beyond_pstar_diverges():
    model = GeometricTail(0.0, -LOG2)
    assert induced_pressure(model, LOG2).value == math.inf
    assert induced_pressure(model, LOG2 + 0.1).value == math.inf


def test_induced_pressure_finite_tail_always_finite():
    model = FiniteTail(tuple(-n * LOG2 for n in range(1, 6)))
    res = induced_pressure(model, 5.0)
    assert math.isfinite(res.value)
    assert res.pstar == math.inf and res.spr is True


def test_induced_pressure_numeric_unknown_tail_is_inconclusive():
    seq = [0.3, 0.5, 0.2, 0.9, 0.1, 0.6]
    res = induced_pressure(seq, 0.0)
    assert res.value is None
    assert "inconclusive" in res.note


def test_induced_pressure_numeric_divergence_heuristic():
    seq = [2.0 ** n for n in range(1, 12)]
    res = induced_pressure(seq, 0.0)
    assert res.value == math.inf


@settings(max_examples=25, deadline=None)
@given(ratio=st.floats(min_value=0.05, max_value=0.9),
       bump=st.floats(min_value=0.0, max_value=1.0))
def test_pstar_monotone_under_weight_increase(ratio, bump):
    base = GeometricTail(0.0, math.log(ratio))
    bigger = GeometricTail(bump, math.log(ratio))  # multiply every weight by e^bump
    assert induced_pressure(bigger, 0.0).pstar <= induced_pressure(base, 0.0).pstar


# -- recurrence classification --------------------------------------------------------------------

def test_recurrence_classes_of_power_family():
    z3 = zeta(3.0).value
    assert recurrence_classify(PowerTail(3.0, math.log(1.0 / z3))).kind \
        == "positive-recurrent"
    z15 = zeta(1.5).value
    assert recurrence_classify(PowerTail(1.5, math.log(1.0 / z15))).kind \
        == "null-recurrent"
    assert recurrence_classify(PowerTail(3.0, math.log(0.5 / z3))).kind \
        == "transient"


def test_recurrence_supercritical_family_normalizes_to_spr():
    z3 = zeta(3.0).value
    rc = recurrence_classify(PowerTail(3.0, math.log(2.0 / z3)))
    assert rc.kind == "strongly-positive-recurrent"
    assert rc.pressure > 0


def test_recurrence_invariant_under_constant_shift():
    z3 = zeta(3.0).value
    c = 0.7
    plain = recurrence_classify(PowerTail(3.0, math.log(1.0 / z3), 0.0))
    shifted = recurrence_classify(PowerTail(3.0, math.log(1.0 / z3), c))
    assert plain.kind == shifted.kind == "positive-recurrent"
    assert shifted.pressure == pytest.approx(c, abs=1e-9)


def test_recurrence_numeric_inputs_are_inconclusive():
    rc = recurrence_classify(log_zstar=[-n * LOG2 for n in range(1, 21)], P=0.0)
    assert rc.kind == "inconclusive"
    assert rc.evidence["spr"] == "holds"


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
    # edges) with memory-2 weights k/8, whose walk sums are exact
    S = data.draw(st.integers(min_value=1, max_value=5))
    matrix = [[int(j == (i + 1) % S or data.draw(st.booleans()))
               for j in range(S)] for i in range(S)]
    eighths = st.integers(min_value=-24, max_value=8).map(lambda k: k / 8)
    phi = Potential(2, {(Plain(i + 1), Plain(j + 1)): data.draw(eighths)
                        for i in range(S) for j in range(S) if matrix[i][j]})
    q = data.draw(st.integers(min_value=1, max_value=S))
    N = data.draw(st.integers(min_value=1, max_value=6 if S <= 3 else 5))
    return FiniteShift(matrix), phi, q, N


def _walk_sum(phi, w):
    return math.fsum(phi.weight((w[i], w[i + 1])) for i in range(len(w) - 1))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_crc_profile_dp_matches_enumerated_low_to_low_words(data):
    # s(n) is the best weight of an (n+1)-word with both ends low
    T, phi, q, N = _random_edge_case(data)
    low = set(T.states_up_to(q))
    s = _max_birkhoff_low_to_low(T, phi, q, N)
    for n in range(1, N + 1):
        words = enumerate_words(T, n + 1, start=low, end=low)
        assert s[n - 1] == max((_walk_sum(phi, w) for w in words), default=LOG_ZERO)


@settings(max_examples=60, deadline=None)
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
