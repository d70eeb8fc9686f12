"""Potentials: Birkhoff sums, cylinder exactness, connector constants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmshift import (ROOT, FiniteShift, InadmissibleWordError, LoopVertex,
                     Plain, Potential, PotentialError, birkhoff_sum,
                     build_preset, connector_constant)

LOG2 = math.log(2.0)


@pytest.fixture
def full2():
    return FiniteShift([[1, 1], [1, 1]])


@pytest.fixture
def sec52():
    return build_preset("sec52-entry", truncate_len=8)


def test_zero_potential_both_modes(full2):
    phi = Potential(1, {}, 0.0)
    w = (Plain(1), Plain(2), Plain(1))
    assert birkhoff_sum(full2, phi, w, "cylinder").value == 0.0
    assert birkhoff_sum(full2, phi, w, "periodic").value == 0.0


def test_halving_loop_average(sec52):
    T, phi = sec52.system, sec52.potential
    for n in (2, 5, 8):
        w = (ROOT,) + tuple(LoopVertex(n, 1, k) for k in range(1, n))
        bv = birkhoff_sum(T, phi, w, "periodic")
        assert bv.value == pytest.approx(-n * LOG2, abs=1e-12)
        assert bv.average == pytest.approx(-LOG2, abs=1e-12)


def test_memory2_wrap_sums_table_entries(full2):
    phi = Potential(2, {(Plain(1), Plain(2)): 0.5, (Plain(2), Plain(1)): -1.0})
    bv = birkhoff_sum(full2, phi, (Plain(1), Plain(2), Plain(1)), "periodic")
    assert bv.value == pytest.approx(-0.5)


def test_cylinder_mode_is_partial_sum(full2):
    phi = Potential(2, {(Plain(1), Plain(2)): 0.5, (Plain(2), Plain(1)): -1.0},
                    default=0.25)
    w = (Plain(1), Plain(2), Plain(1))
    bv = birkhoff_sum(full2, phi, w, "cylinder")
    # two windows: (1,2) and (2,1)
    assert bv.length == 2
    assert bv.value == pytest.approx(-0.5)
    short = birkhoff_sum(full2, phi, (Plain(1),), "cylinder")
    assert short.length == 0 and short.value == 0.0


def test_inadmissible_word_and_wrap_raise(sec52):
    T, phi = sec52.system, sec52.potential
    with pytest.raises(InadmissibleWordError):
        birkhoff_sum(T, phi, (LoopVertex(3, 1, 1), ROOT), "cylinder")
    with pytest.raises(InadmissibleWordError):
        # admissible word but inadmissible wrap
        birkhoff_sum(T, phi, (ROOT, LoopVertex(3, 1, 1)), "periodic")


def test_table_keys_validated_against_system(full2):
    with pytest.raises(PotentialError):
        Potential(2, {(Plain(1), Plain(9)): 1.0}, system=full2)
    with pytest.raises(PotentialError):
        Potential(2, {(Plain(1),): 1.0})  # wrong key length


@settings(max_examples=40)
@given(data=st.data())
def test_rotation_invariance_of_periodic_sums(data):
    T = FiniteShift([[1, 1], [1, 1]])
    table = {
        (Plain(i), Plain(j)): data.draw(
            st.floats(min_value=-3, max_value=0, allow_nan=False))
        for i in (1, 2) for j in (1, 2)
    }
    phi = Potential(2, table)
    n = data.draw(st.integers(min_value=1, max_value=6))
    w = tuple(Plain(data.draw(st.integers(min_value=1, max_value=2)))
              for _ in range(n))
    base = birkhoff_sum(T, phi, w, "periodic").value
    for r in range(1, n):
        rotated = w[r:] + w[:r]
        assert birkhoff_sum(T, phi, rotated, "periodic").value == pytest.approx(base)


@settings(max_examples=40)
@given(data=st.data())
def test_concatenation_additivity_memory2(data):
    T = FiniteShift([[1, 1], [1, 1]])
    table = {
        (Plain(i), Plain(j)): data.draw(
            st.floats(min_value=-2, max_value=2, allow_nan=False))
        for i in (1, 2) for j in (1, 2)
    }
    phi = Potential(2, table)
    u = tuple(Plain(data.draw(st.integers(min_value=1, max_value=2)))
              for _ in range(data.draw(st.integers(min_value=2, max_value=5))))
    v = tuple(Plain(data.draw(st.integers(min_value=1, max_value=2)))
              for _ in range(data.draw(st.integers(min_value=2, max_value=5))))
    whole = birkhoff_sum(T, phi, u + v, "cylinder").value
    parts = (birkhoff_sum(T, phi, u, "cylinder").value
             + phi.weight((u[-1], v[0]))
             + birkhoff_sum(T, phi, v, "cylinder").value)
    assert whole == pytest.approx(parts, abs=1e-12)


# -- connector constants --------------------------------------------------------------

def test_connector_constant_zero_potential(full2):
    phi = Potential(1, {}, 0.0)
    assert connector_constant(full2, phi, 2) == 0.0


def test_connector_constant_sec52(sec52):
    # the only low pair at q = 1 is (root, root); its shortest connector is
    # the self-loop edge carrying weight -log 2
    assert connector_constant(sec52.system, sec52.potential, 1) == pytest.approx(-LOG2)


def test_connector_constant_full_shift_table(full2):
    table = {(Plain(1), Plain(1)): -1.0, (Plain(1), Plain(2)): -2.0,
             (Plain(2), Plain(1)): -3.0, (Plain(2), Plain(2)): -4.0}
    phi = Potential(2, table)
    assert connector_constant(full2, phi, 2) == pytest.approx(-4.0)


def test_connector_constant_reaches_loop_vertices(sec52):
    # q = 2 brings the first loop vertex into the low part: the worst pair is
    # root -> v(2,1,1), whose connector [r] carries the length-2 entry weight
    val = connector_constant(sec52.system, sec52.potential, 2)
    assert val == pytest.approx(-2 * LOG2, abs=1e-12)
