"""Certified series evaluation and exact tail fits."""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cmshift import numerics
from cmshift.numerics import (LOG_ZERO, linear_fit, linear_fit_with_log, logsum_pull,
                              logsumexp, polylog_with_bound, reverse_edges)


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


# -- exact tail fits ---------------------------------------------------------------

def _fraction_fit(ns, ys, with_log):
    """Least squares on the finite points in Fractions: the coefficients
    (intercept, slope[, log]), the residuals and the slope's stderr**2."""
    pts = [(n, Fraction(y)) for n, y in zip(ns, ys) if math.isfinite(y)]
    rows = [[Fraction(1), Fraction(n)] + ([Fraction(math.log(n))] if with_log else [])
            for n, _ in pts]
    k, m = len(rows[0]), len(rows)
    # Gauss-Jordan on [G | I | b], G the normal matrix
    aug = [[sum(r[i] * r[j] for r in rows) for j in range(k)]
           + [Fraction(int(i == j)) for j in range(k)]
           + [sum(r[i] * y for r, (_, y) in zip(rows, pts))] for i in range(k)]
    for c in range(k):
        piv = next(i for i in range(c, k) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for i in range(k):
            if i != c and aug[i][c]:
                aug[i] = [v - aug[i][c] * w for v, w in zip(aug[i], aug[c])]
    coef = [aug[i][-1] for i in range(k)]
    resid = [y - sum(c * v for c, v in zip(coef, r)) for r, (_, y) in zip(rows, pts)]
    var = None
    if m > k:
        var = sum(r * r for r in resid) / (m - k) * aug[1][k + 1]  # inverse entry 11
    return coef, resid, var


def _rounded(q):
    # a Fraction rounded once to a float, +-inf past the float range
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _lstsq_fit(ns, ys, with_log):
    # the numpy route the exact fits replaced: slope and intercept
    np = pytest.importorskip("numpy")
    pts = [(n, y) for n, y in zip(ns, ys) if math.isfinite(y)]
    x = np.asarray([p[0] for p in pts], dtype=float)
    y = np.asarray([p[1] for p in pts], dtype=float)
    cols = [np.ones_like(x), x] + ([np.log(x)] if with_log else [])
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[1]), float(coef[0]), float(np.linalg.cond(A))


_FIT_VALUES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.builds(lambda s, e, f: s * f * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.integers(-300, 299), st.floats(min_value=1.0, max_value=10.0)),
    st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def _fit_windows(draw):
    m = draw(st.integers(min_value=1, max_value=400))
    start = draw(st.integers(min_value=1, max_value=401 - m))
    ns = list(range(start, start + m))
    if draw(st.booleans()):  # sequences near a line, as the tail fits see them
        a, b = draw(st.floats(-50.0, 50.0)), draw(st.floats(-5.0, 5.0))
        noise = draw(st.floats(0.0, 1e-3))
        ys = [a + b * n + noise * math.sin(n) for n in ns]
        for i in draw(st.lists(st.integers(0, m - 1), max_size=3)):
            ys[i] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    else:
        ys = draw(st.lists(_FIT_VALUES, min_size=m, max_size=m))
    return ns, ys


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(window=_fit_windows(), with_log=st.booleans())
@example(window=([5], [1.0]), with_log=False)
@example(window=([5, 6], [1.0, math.nan]), with_log=False)
@example(window=([5, 6], [1.0, 3.0]), with_log=True)
@example(window=([5, 6, 7], [1.0, math.inf, 3.0]), with_log=True)
@example(window=([398, 399, 400], [1e300, -1e-300, 2.5]), with_log=True)
@example(window=(list(range(1, 401)), [0.5 * n for n in range(1, 401)]), with_log=True)
@example(window=([1, 2, 3], [1.0, 2.5, 4.0, 8.0]), with_log=False)
@example(window=([1, 2, 3, 4], [1.0, 2.5, 4.0, 8.0, -3.0]), with_log=True)
def test_fits_are_the_exact_least_squares_rounded_once(window, with_log):
    ns, ys = window
    fit = (linear_fit_with_log if with_log else linear_fit)(ns, ys)
    m = sum(1 for _, y in zip(ns, ys) if math.isfinite(y))  # zip's pairs count
    if m < 2:
        assert fit.degenerate and fit.n_points == m and fit.slope == LOG_ZERO
        return
    if with_log and m < 3:
        assert fit == linear_fit(ns, ys)
        return
    coef, resid, var = _fraction_fit(ns, ys, with_log)
    assert not fit.degenerate and fit.n_points == m
    assert fit.slope == _rounded(coef[1]) and fit.intercept == _rounded(coef[0])
    assert fit.resid_max == _rounded(max(map(abs, resid)))
    assert fit.stderr == (0.0 if var is None else math.sqrt(_rounded(var)))
    finite = [n for n, y in zip(ns, ys) if math.isfinite(y)]
    assert fit.window == (min(finite), max(finite))
    # the numpy lstsq route agrees to 1e-9 relative, up to the forward error
    # of a backward-stable solver, m * eps * cond(A) * max |y|
    slope, intercept, cond = _lstsq_fit(ns, ys, with_log)
    slop = m * 2.2e-16 * cond * max(abs(y) for y in ys if math.isfinite(y))
    assert abs(slope - fit.slope) <= 1e-9 * abs(fit.slope) + slop / max(finite)
    assert abs(intercept - fit.intercept) <= 1e-9 * abs(fit.intercept) + slop


def test_fits_take_numpy_integer_abscissae():
    # numpy integers would wrap in the integer normal equations; the fits
    # read them as Python ints
    np = pytest.importorskip("numpy")
    ys = [0.3 * n - 1.7 * math.log(n) + 1e-3 * math.sin(n) for n in range(5000, 5121)]
    for fit in (linear_fit, linear_fit_with_log):
        assert fit(np.arange(5000, 5121), ys) == fit(range(5000, 5121), ys)


def test_float_abscissae_are_refused_whatever_was_fitted_before():
    # a fit keeps nothing between calls, so fitting the equal int window
    # first does not let a float window through
    ys = [1.0, 2.5, 4.0, 8.0]
    for fit in (linear_fit, linear_fit_with_log):
        fit(range(1, 5), ys)
        with pytest.raises(TypeError):
            fit([1.0, 2.0, 3.0, 4.0], ys)


# -- the log-space step kernel ----------------------------------------------------

def _push_reference(wsucc, vec):
    """The transfer DP's step before logsum_pull: every entry's terms
    listed in source index order, then one logsumexp per entry."""
    terms = [[] for _ in vec]
    for v, js in zip(vec, wsucc):
        if v != LOG_ZERO:
            for j, w in js:
                terms[j].append(v + w)
    return [logsumexp(t) for t in terms]


_SPECIAL = [0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan]


@st.composite
def _weighted_steps(draw):
    """Weighted successor lists with 0-8 sources per entry (repeated edges
    among them) and a vector holding LOG_ZERO, +inf and NaN entries."""
    S = draw(st.integers(1, 8))
    # moderate weights give terms whose expm1 values round differently when
    # added in another order; any finite float reaches the float range
    weights = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_SPECIAL),
                        st.floats(allow_nan=False, allow_infinity=False))
    sources = [draw(st.lists(st.tuples(st.integers(0, S - 1), weights), max_size=8))
               for _ in range(S)]
    wsucc = [[] for _ in range(S)]
    for j, js in enumerate(sources):
        for i, w in js:
            wsucc[i].append((j, w))
    for js in wsucc:
        draw(st.randoms(use_true_random=False)).shuffle(js)
    vec = draw(st.lists(st.one_of(st.floats(-4.0, 4.0),
                                  st.sampled_from([LOG_ZERO, math.inf, math.nan, -0.0]),
                                  st.floats(allow_nan=False, allow_infinity=False)),
                        min_size=S, max_size=S))
    return wsucc, vec


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(step=_weighted_steps())
def test_logsum_pull_equals_the_push_it_replaced(step):
    # every float bit for bit (repr tells -0.0 from 0.0; NaN prints as nan)
    wsucc, vec = step
    assert repr(logsum_pull(reverse_edges(wsucc), vec)) == repr(_push_reference(wsucc, vec))


@pytest.mark.parametrize("terms, expected, whole", [
    ([-0.0], "0.0", False),
    ([2.5], "2.5", False),
    ([math.nan], "nan", False),
    ([math.inf], "inf", False),
    ([1.5, 1.5], repr(1.5 + math.log(2.0)), False),
    ([-0.0, -0.0], repr(math.log(2.0)), False),
    ([1.0, 1.0, 1.0], repr(1.0 + math.log1p(2.0)), False),
    ([0.5, 3.0, 3.0], None, False),
    ([0.0, -2.5969072676627962, -0.457698789188302], None, False),
    ([3.0, -700.0, 3.0], None, False),
    ([math.nan, 1.0], "nan", True),
    ([1.0, math.nan], "nan", False),
    ([math.nan, 1.0, 2.0], "nan", True),
    ([1.0, 2.0, math.nan], "nan", False),
    ([1e308, -1e308], "1e+308", False),
    ([1e308, -1e308, -1e308], "1e+308", False),
    ([math.nan, math.inf], "nan", True),
    ([math.inf, math.nan], "inf", True),
    ([LOG_ZERO, 0.5], "0.5", True),
    ([LOG_ZERO, LOG_ZERO], "-inf", True),
    ([0.5, 0.25, LOG_ZERO], None, True),
    ([0.5, 0.25, 0.125, 1.0], None, True),
])
def test_logsum_pull_short_sums(monkeypatch, terms, expected, whole):
    # one entry whose sources hold the terms, each over a -0.0 edge (t + -0.0
    # is t), but a LOG_ZERO term comes from a 0.0 source over a -inf edge (a
    # LOG_ZERO source adds no term); ties, a -0.0 result and NaN first or
    # last.  Whole sums (a LOG_ZERO term, an infinite or NaN maximum, four
    # terms) run logsumexp; one to three other terms take the short route
    calls = []
    monkeypatch.setattr(numerics, "logsumexp",
                        lambda t: calls.append(len(t)) or logsumexp(t))
    vec = [0.0 if t == LOG_ZERO else t for t in terms]
    pred = [[(i, LOG_ZERO if t == LOG_ZERO else -0.0) for i, t in enumerate(terms)]]
    got = repr(logsum_pull(pred, vec)[0])
    assert got == repr(logsumexp(terms))
    assert expected is None or got == expected
    assert bool(calls) == whole
