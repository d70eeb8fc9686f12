"""Shift-core: admissibility, enumeration, periodic points, connectors."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmshift import (ROOT, BouquetShift, EnumerationRefusal, FiniteShift,
                     LoopCountFamily, LoopVertex, Plain, UnknownStateError,
                     f_property_count, is_admissible, shortest_connector)
from cmshift.oracle import enumerate_words, periodic_points
from cmshift import shift as shift_module
from cmshift.shift import TransitionSystem, index_graph


# -- exact integer matrix powers (path-count oracle) ----------------------------

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


def _per_state_search_error(matrix):
    # the reference check: an empty row, else one breadth-first search per
    # state over the matrix rows; the error message, or None for a valid matrix
    n = len(matrix)
    if not all(any(row) for row in matrix):
        return "every state needs at least one outgoing edge"
    for start in range(n):
        seen, frontier = {start}, [start]
        while frontier:
            frontier = [v for u in frontier for v in range(n)
                        if matrix[u][v] and not (v in seen or seen.add(v))]
        if len(seen) != n:
            return "transition matrix is not topologically transitive"
    return None


@st.composite
def _small_matrices(draw):
    # random 0/1 matrices of 1-8 states, half of them over a cycle through
    # every state; some cut so that no edge leads from states >= k back below
    # k (several classes), some with an empty row
    n = draw(st.integers(min_value=1, max_value=8))
    cycle = draw(st.booleans())
    matrix = [[int((cycle and j == (i + 1) % n) or draw(st.booleans()))
               for j in range(n)] for i in range(n)]
    k = draw(st.integers(min_value=0, max_value=n - 1))
    for i in range(k, n):
        matrix[i][:k] = [0] * k
    empty = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
    if empty is not None:
        matrix[empty] = [0] * n
    return matrix


@settings(max_examples=300)
@given(_small_matrices())
def test_transitivity_check_matches_a_search_from_every_state(matrix):
    try:
        FiniteShift(matrix)
        error = None
    except ValueError as exc:
        error = str(exc)
    assert error == _per_state_search_error(matrix)


def test_a_thousand_state_matrix_validates_fast():
    # a cycle through every state plus two random chords per state: two
    # searches over the edges, not one search per state over the rows
    rng = random.Random(3)
    n = 1000
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in [(i + 1) % n] + rng.sample(range(n), 2):
            matrix[i][j] = 1
    t0 = time.perf_counter()
    T = FiniteShift(matrix)
    assert time.perf_counter() - t0 < 5.0
    assert T.state_count() == n


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


@settings(max_examples=25)
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


def test_f_property_state_dp_matches_composition_route(bouquet_ones, monkeypatch):
    # the same bouquet as a finite shift (root first) is no BouquetShift, so
    # f_property_count runs its generic index_graph + count_push branch on it
    states = list(bouquet_ones.states())
    matrix = [[int(bouquet_ones.has_edge(u, v)) for v in states] for u in states]
    graph = FiniteShift(matrix)
    pushes = []
    real = shift_module.count_push
    monkeypatch.setattr(shift_module, "count_push", lambda *a: pushes.append(1) or real(*a))
    for N in range(1, 9):
        comp = f_property_count(bouquet_ones, 1, N).count
        assert not pushes  # the composition branch
        assert f_property_count(graph, 1, N).count == comp
        assert len(pushes) == N - 1  # the state DP's N - 1 steps
        pushes.clear()


def _composition_counts(T, N):
    # the plain renewal convolution the bouquet branch ran before it read the
    # composition fill's recurrence, kept as its oracle: entry m counts the
    # loop-length compositions of m
    comp = [0] * (N + 1)
    comp[0] = 1
    lengths = T.loop_lengths()
    for m in range(1, N + 1):
        comp[m] = sum(T.a.count(k) * comp[m - k] for k in lengths if k <= m)
    return comp


@pytest.mark.parametrize("a, truncate", [
    (LoopCountFamily("ones"), 200),
    (LoopCountFamily("geometric", ratio=2, a1=1), 200),
    (LoopCountFamily("geometric", ratio=3, a1=0), 200),
    (LoopCountFamily("double_exponential", a1=1), 6),
    # gaps between the loop lengths, and no loop of length <= 6
    (LoopCountFamily("list", values=(1, 0, 2, 0, 0, 1, 0, 3)), 8),
    (LoopCountFamily("list", values=(0, 0, 0, 0, 0, 0, 2, 0, 5)), 9),
])
def test_f_property_bouquet_equals_the_plain_convolution(a, truncate):
    T = BouquetShift(a, truncate)
    comp = _composition_counts(T, 200)
    for N in range(1, 201):
        assert f_property_count(T, 1, N).count == comp[N]


@settings(max_examples=40)
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
    # 2**60 words exceed the bound 10**18
    res = f_property_count(full2, 2, 60)
    assert res.overflow
    assert res.count == 2 ** 60


def test_untruncated_bouquet_needs_truncation():
    with pytest.raises(EnumerationRefusal, match="truncate_len"):
        BouquetShift(LoopCountFamily("ones"), truncate_len=None)


def test_huge_branching_refused_with_truncation_hint():
    fam = LoopCountFamily("geometric", ratio=2, a1=1)
    T = BouquetShift(fam, truncate_len=25)
    with pytest.raises(EnumerationRefusal,
                       match="above _BRANCH_CAP = 200000; .* smaller truncate_len$"):
        enumerate_words(T, 3, limit=10)
    with pytest.raises(EnumerationRefusal, match="^the root has [0-9]+ successors at "
                       "truncate_len=25, above _BRANCH_CAP = 200000; "):
        periodic_points(T, 4, ROOT)


# -- listing bouquet states ------------------------------------------------------------------

class _SearchedBouquet(BouquetShift):
    # the states one order-index search at a time, as every system lists them
    states = TransitionSystem.states


_LOOP_FAMILIES = st.one_of(
    st.just(LoopCountFamily("ones")),
    st.builds(LoopCountFamily, st.just("geometric"), st.integers(1, 2), a1=st.just(1)),
    st.lists(st.integers(0, 3), min_size=1, max_size=10).map(
        lambda v: LoopCountFamily("list", values=(min(v[0], 1), *v[1:]))))


@settings(max_examples=40)
@given(a=_LOOP_FAMILIES, truncate_len=st.integers(1, 8), memory=st.integers(1, 3))
def test_bouquet_states_list_the_order_indices(a, truncate_len, memory):
    try:
        T = BouquetShift(a, truncate_len)
    except ValueError:  # no loop within the truncation
        return
    searched = _SearchedBouquet(a, truncate_len)
    assert list(T.states()) == list(searched.states())
    assert index_graph(T, 20_000, "test", memory) \
        == index_graph(searched, 20_000, "test", memory)
