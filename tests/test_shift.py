"""Shift-core: admissibility, enumeration, periodic points, connectors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmshift import (ROOT, BouquetShift, EnumerationRefusal, FiniteShift,
                     LoopCountFamily, LoopVertex, Plain, UnknownStateError,
                     enumerate_words, f_property_count, is_admissible,
                     periodic_points, shortest_connector)
from cmshift.numerics import int_mat_pow


@pytest.fixture
def full2():
    return FiniteShift([[1, 1], [1, 1]])


@pytest.fixture
def bouquet_ones():
    return BouquetShift(LoopCountFamily("ones"), truncate_len=6)


def states(*idx):
    return tuple(Plain(i) for i in idx)


# -- admissibility ---------------------------------------------------------------

def test_full_shift_admits_everything(full2):
    assert is_admissible(full2, states(1, 2, 1))
    assert is_admissible(full2, states(2, 2, 2, 1))


def test_bouquet_loop_word_admissible(bouquet_ones):
    w = (ROOT, LoopVertex(3, 1, 1), LoopVertex(3, 1, 2), ROOT)
    assert is_admissible(bouquet_ones, w)


def test_bouquet_interior_cannot_jump_home(bouquet_ones):
    assert not is_admissible(bouquet_ones, (LoopVertex(3, 1, 1), ROOT))


def test_empty_and_single_words(full2):
    assert is_admissible(full2, ())
    assert is_admissible(full2, states(2))


def test_unknown_state_raises(full2, bouquet_ones):
    with pytest.raises(UnknownStateError):
        is_admissible(full2, states(1, 7))
    with pytest.raises(UnknownStateError):
        is_admissible(bouquet_ones, (LoopVertex(9, 1, 1),))  # beyond truncation


def test_non_transitive_matrix_rejected():
    with pytest.raises(ValueError):
        FiniteShift([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        FiniteShift([[1, 1], [0, 1]])  # state 2 never reaches state 1


# -- state order -------------------------------------------------------------------

def test_bouquet_state_order_roundtrip(bouquet_ones):
    expected = [ROOT, LoopVertex(2, 1, 1), LoopVertex(3, 1, 1), LoopVertex(3, 1, 2),
                LoopVertex(4, 1, 1)]
    for i, s in enumerate(expected, start=1):
        assert bouquet_ones.order_index(s) == i
        assert bouquet_ones.state_of_order(i) == s
    n = bouquet_ones.state_count()
    assert n == 1 + sum(k - 1 for k in range(2, 7))
    assert bouquet_ones.state_of_order(n) == LoopVertex(6, 1, 5)


# -- enumeration -------------------------------------------------------------------

def test_enumerate_full_shift_pairs(full2):
    res = enumerate_words(full2, 2, limit=100)
    assert res.exhaustive
    assert list(res) == [states(1, 1), states(1, 2), states(2, 1), states(2, 2)]


def test_enumerate_limit_sets_flag(full2):
    res = enumerate_words(full2, 3, limit=2)
    assert len(res) == 2
    assert not res.exhaustive


def test_enumerate_root_to_root_matches_composition_count(bouquet_ones):
    # length-3 words from root to root traverse 2 edges: compositions of 2
    res = enumerate_words(bouquet_ones, 3, start=ROOT, end=ROOT, limit=100)
    assert res.exhaustive
    comp = [1, 0, 0]
    for m in range(1, 3):
        comp[m] = sum(comp[m - k] for k in range(1, m + 1))
    assert len(res) == comp[2] == 2


def test_enumerate_length_zero(full2):
    assert list(enumerate_words(full2, 0, limit=5)) == [()]


@settings(max_examples=25, deadline=None)
@given(length=st.integers(min_value=1, max_value=5))
def test_generator_soundness(length):
    T = FiniteShift([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    for w in enumerate_words(T, length, limit=10000):
        assert is_admissible(T, w)


# -- periodic points ------------------------------------------------------------------

def test_periodic_full_shift(full2):
    words = periodic_points(full2, 3, Plain(1))
    assert len(words) == 4
    for w in words:
        assert w[0] == Plain(1)
        assert is_admissible(full2, w)
        assert full2.has_edge(w[-1], w[0])


def test_periodic_counts_match_matrix_powers():
    rng = random.Random(7)
    for _ in range(5):
        n = 3
        while True:
            mat = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            try:
                T = FiniteShift(mat)
                break
            except ValueError:
                continue
        for period in range(1, 13):
            powered = int_mat_pow([list(r) for r in T.matrix], period)
            for a in range(n):
                assert len(periodic_points(T, period, Plain(a + 1))) == powered[a][a]


def test_periodic_bouquet_period2_counts_both_decompositions(bouquet_ones):
    words = periodic_points(bouquet_ones, 2, ROOT)
    assert words == [(ROOT, ROOT), (ROOT, LoopVertex(2, 1, 1))]


def test_periodic_single_self_loop():
    T = FiniteShift([[1]])
    assert periodic_points(T, 5, Plain(1)) == [states(1, 1, 1, 1, 1)]


def test_periodic_refusal_on_cap(full2):
    with pytest.raises(EnumerationRefusal):
        periodic_points(full2, 12, Plain(1), max_count=3)


# -- shortest connectors ------------------------------------------------------------------

def test_connector_full_shift(full2):
    w = shortest_connector(full2, Plain(1), Plain(2))
    assert w == states(1)


def test_connector_bouquet_cases(bouquet_ones):
    assert shortest_connector(bouquet_ones, ROOT, LoopVertex(3, 1, 1)) == (ROOT,)
    assert shortest_connector(bouquet_ones, LoopVertex(3, 1, 1), ROOT) == (
        LoopVertex(3, 1, 1), LoopVertex(3, 1, 2))
    # within a loop, forward distance
    assert shortest_connector(bouquet_ones, LoopVertex(4, 1, 1),
                              LoopVertex(4, 1, 3)) == (
        LoopVertex(4, 1, 1), LoopVertex(4, 1, 2))
    # backwards means going around through the root
    w = shortest_connector(bouquet_ones, LoopVertex(3, 1, 2), LoopVertex(3, 1, 1))
    assert w == (LoopVertex(3, 1, 2), ROOT)


def test_connector_root_to_root_without_self_loop():
    fam = LoopCountFamily("list", values=(0, 0, 1))  # single loop of length 3
    T = BouquetShift(fam, truncate_len=3)
    w = shortest_connector(T, ROOT, ROOT)
    assert w == (ROOT, LoopVertex(3, 1, 1), LoopVertex(3, 1, 2))


def test_connector_minimality_exhaustive():
    rng = random.Random(11)
    for _ in range(6):
        n = 3
        while True:
            mat = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            try:
                T = FiniteShift(mat)
                break
            except ValueError:
                continue
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                w = shortest_connector(T, Plain(a), Plain(b))
                assert w[0] == Plain(a)
                assert is_admissible(T, w + (Plain(b),))
                # no shorter connecting word exists
                for k in range(1, len(w)):
                    shorter = enumerate_words(T, k, start=Plain(a), limit=10000)
                    assert not any(T.has_edge(u[-1], Plain(b)) for u in shorter)


def test_connector_bouquet_matches_bfs_on_small_instance():
    fam = LoopCountFamily("list", values=(1, 2, 1))
    T = BouquetShift(fam, truncate_len=3)
    # brute force the minimal connector length via enumeration
    for a in list(T.states()):
        for b in list(T.states()):
            w = shortest_connector(T, a, b)
            assert is_admissible(T, w + (b,))
            for k in range(1, len(w)):
                words = enumerate_words(T, k, start=a, limit=100000)
                assert not any(T.has_edge(u[-1], b) for u in words)


# -- f-property counts ---------------------------------------------------------------------

def test_f_property_full_shift(full2):
    assert f_property_count(full2, 2, 3).count == 8


def test_f_property_bouquet_is_composition_count(bouquet_ones):
    res = f_property_count(bouquet_ones, 1, 4)
    assert res.count == 8  # compositions of 4
    # cross-check against enumeration: words of length 4 from the root that
    # can be continued by the root
    words = enumerate_words(bouquet_ones, 4, start=ROOT, limit=100000)
    manual = sum(1 for w in words if bouquet_ones.has_edge(w[-1], ROOT))
    assert manual == res.count


def test_f_property_state_dp_matches_composition_route(bouquet_ones):
    for N in range(1, 9):
        comp = f_property_count(bouquet_ones, 1, N).count
        # force the generic integer DP by asking with q > 1 on the same set:
        # q = 1 via the DP path is exercised through a finite shift instead
        words = enumerate_words(bouquet_ones, N, start=ROOT, limit=200000)
        manual = sum(1 for w in words if bouquet_ones.has_edge(w[-1], ROOT))
        assert comp == manual


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_f_property_count_matches_matrix_power(data):
    # low starts times A^(N-1) times the states with a low successor
    S = data.draw(st.integers(min_value=1, max_value=5))
    matrix = [[int(j == (i + 1) % S or data.draw(st.booleans()))
               for j in range(S)] for i in range(S)]
    q = data.draw(st.integers(min_value=1, max_value=S))
    N = data.draw(st.integers(min_value=1, max_value=12))
    power = int_mat_pow(matrix, N - 1)
    closes = [any(matrix[j][b] for b in range(q)) for j in range(S)]
    expected = sum(power[i][j] for i in range(q) for j in range(S) if closes[j])
    assert f_property_count(FiniteShift(matrix), q, N).count == expected


def test_f_property_zero_q(full2):
    assert f_property_count(full2, 0, 4).count == 0


def test_f_property_overflow_flag(full2):
    res = f_property_count(full2, 2, 10, bound=5)
    assert res.overflow
    assert res.count == 2 ** 10


def test_untruncated_bouquet_needs_truncation():
    with pytest.raises(EnumerationRefusal, match="truncate_len"):
        BouquetShift(LoopCountFamily("ones"), truncate_len=None)


def test_huge_branching_refused_with_truncation_hint():
    fam = LoopCountFamily("geometric", ratio=2, a1=1)
    T = BouquetShift(fam, truncate_len=25)
    with pytest.raises(EnumerationRefusal, match="truncate_len"):
        enumerate_words(T, 3, limit=10)
    with pytest.raises(EnumerationRefusal):
        periodic_points(T, 4, ROOT)
