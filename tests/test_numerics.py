"""Certified series evaluation."""

import math

import pytest

from cmshift.numerics import polylog_with_bound


@pytest.mark.parametrize("log_x", [-1e-300, -1e-17])
def test_polylog_refuses_when_x_rounds_to_one(log_x):
    # log_x < 0 but exp(log_x) == 1.0: the tail bound t / (1 - x) would divide
    # by zero, so the series refuses at once, naming the cause
    assert math.exp(log_x) == 1.0
    with pytest.raises(ValueError, match="rounds to 1"):
        polylog_with_bound(2.5, log_x)


@pytest.mark.parametrize("beta, log_x, frozen", [
    (2.0, -1.0, (-0.894641067899061, 7.507736260804532e-13)),
    (3.5, -1e-3, (0.11813289142523663, 9.988547939231577e-13)),
    (1.5, -0.1, (0.49248490094494135, 9.368310090946759e-13)),
    (2.5, 0.0, (0.2937788919572611, 2.746230591353418e-15)),
])
def test_polylog_values_are_frozen(beta, log_x, frozen):
    # the series and zeta routes return these bits, before and after the
    # refusal above was added
    assert polylog_with_bound(beta, log_x) == frozen


@pytest.mark.parametrize("beta", [0.5, 2.5])
def test_polylog_of_an_underflowing_x_is_its_first_term(beta):
    # exp(-800) is 0.0 in floats: the sum is x itself, log x = -800
    assert math.exp(-800.0) == 0.0
    assert polylog_with_bound(beta, -800.0) == (-800.0, 0.0)
