#!/usr/bin/env python3
"""Tests of the benchmark's reference computations on tiny cases whose
answers are known by hand.

    python3 bench/selftest.py

The file name keeps it out of the repository's pytest run.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

LOG2 = math.log(2.0)
FULL2 = [[1, 1], [1, 1]]
# 0 -> 0 (-1), 0 -> 1 (0), 1 -> 0 (-0.5), 1 -> 1 (-2)
TWO = ([[1, 1], [1, 1]], {(0, 0): -1.0, (0, 1): 0.0, (1, 0): -0.5, (1, 1): -2.0})


def approx(a, b, tol=1e-12):
    return abs(a - b) <= tol


def test_best_cycle_mean():
    m, w = TWO
    assert approx(checks.best_cycle_mean(m, w, 2), -0.25)  # 0 -> 1 -> 0
    assert approx(checks.best_cycle_mean(m, w, 1), -1.0)   # self-loops only
    assert approx(checks.max_cycle_mean(m, w), -0.25)


def test_transfer_sums_of_the_full_2_shift():
    log_z, log_zstar = checks.transfer_log_sums(FULL2, {}, 0, 6)
    assert all(approx(v, (n - 1) * LOG2) for n, v in enumerate(log_z, start=1))
    assert all(approx(v, 0.0) for v in log_zstar)  # one first return per length
    assert approx(checks.log_spectral_radius(FULL2, {}), LOG2)


def test_transfer_sums_weighted():
    m, w = TWO
    log_z, log_zstar = checks.transfer_log_sums(m, w, 0, 2)
    # Z_2 = e^-2 + e^-0.5 (0->0->0, 0->1->0); Z*_2 = e^-0.5
    assert approx(log_z[1], math.log(math.exp(-2) + math.exp(-0.5)))
    assert approx(log_zstar[1], -0.5)


def test_maxplus_low_to_low():
    m, w = TWO
    assert checks.maxplus_low_to_low(m, w, [True, False], 2) == [-1.0, -0.5]


def test_first_violation_and_walk_sum():
    m, w = TWO
    # condition A (land low), bound 0 - 0.4 n: n=1 best -0.5 < -0.4; n=2 best
    # 0 -> 1 -> 0 = -0.5 > -0.8
    assert checks.maxplus_first_violation(m, w, [True, False], "A", 0.0, 0.4, 5) == (2, -0.5)
    assert checks.maxplus_first_violation(m, w, [True, False], "A", 5.0, 0.0, 5) == (None, None)
    assert checks.walk_sum(m, w, [0, 1, 0]) == -0.5
    # condition C keeps x_0..x_{n-1} in state 1: 1 -> 0, then 1 -> 1 -> 0
    assert checks.maxplus_condition_best(m, w, [True, False], "A", 2) == [-0.5, -0.5]
    assert checks.maxplus_condition_best(m, w, [True, False], "C", 2) == [-0.5, -2.5]
    assert checks.walk_sum([[0, 1], [1, 0]], {}, [0, 0]) is None


def test_f_property_reference():
    # words of length 3 from state 0 on the full 2-shift: 4, all closable
    assert checks.f_property_reference(FULL2, [True, False], 3) == 4
    # 0 -> 1 -> 0 only: length-2 word (0, 1) is followed by 0
    assert checks.f_property_reference([[0, 1], [1, 0]], [True, False], 2) == 1


def test_enumerate_cells():
    # (0, a, 0): a = 0 makes 2 low visits in the first 2 letters, 2*2 > 3
    assert checks.enumerate_cells(FULL2, {}, [True, False], 2, 2) == (1, 0.0)
    assert checks.enumerate_cells(FULL2, None, [True, False], 2, 1) == (2, None)
    m, w = TWO
    assert checks.enumerate_cells(m, w, [True, False], 2, 2) == (1, -0.25)


def test_bouquet_graph():
    A, w = checks.bouquet_graph(3, lambda n: -n * LOG2)
    assert A == [[1, 1, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
    assert w == {(0, 0): -LOG2, (0, 1): -2 * LOG2, (0, 2): -3 * LOG2}


def test_compositions():
    assert checks.compositions(4, 2, 3) == 3    # 1+3, 2+2, 3+1
    assert checks.compositions(5, 2, 3) == 2    # 2+3, 3+2
    assert checks.compositions(4, 2, 10) == 3
    assert checks.compositions(0, 0, 3) == 1
    # n=3, M=2: j=1 (one loop of 3) and j=2 (1+2, 2+1)
    assert checks.renewal_hinf_count(3, 2, 10) == 3
    assert checks.renewal_hinf_count(3, 2, 2) == 2


def test_tail_slope():
    assert approx(checks.tail_slope([1, 2, 3], [1, 3, 5]), 2.0)


def test_sec53_theory():
    assert checks.sec53_class(3.0, 1.0) == "positive-recurrent"
    assert checks.sec53_class(2.0, 1.0) == "null-recurrent"
    assert checks.sec53_class(1.5, 1.0) == "null-recurrent"
    assert checks.sec53_class(3.0, 0.5) == "transient"
    assert checks.sec53_class(1.5, 2.0) == "strongly-positive-recurrent"
    assert approx(checks.zeta(2.0), math.pi ** 2 / 6, 1e-14)
    assert approx(checks.zeta(4.0), math.pi ** 4 / 90, 1e-14)
    assert approx(checks.zeta(1.5), 2.612375348685488, 1e-14)
    # Li_2(1/2) = pi^2/12 - (log 2)^2/2, so C = 1/Li_2(1/2) has pressure log 2
    C = 1.0 / (math.pi ** 2 / 12 - LOG2 ** 2 / 2)
    assert approx(checks.sec53_pressure(2.0, C), LOG2, 1e-12)
    assert checks.sec53_pressure(3.0, 0.5 / checks.zeta(3.0)) == 0.0


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok    {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL  {name}: {exc!r}")
    print("all passed" if not failed else f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
