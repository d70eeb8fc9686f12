"""Example families: zeta, entropy roots, weight schemes, presets."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmshift import (ROOT, BouquetShift, BouquetSpec, GeometricTail,
                     LoopCountFamily, LoopVertex, PowerTail, RenewalSeries,
                     TauSpec, UnknownTail, build_bouquet, build_preset, chi_per,
                     htop_solve, normalizing_C, preset_names, zeta)
from cmshift.families import (ZetaDivergenceError, _aggregate_log_weight,
                              _scheme_fallback, abstract_return_weights,
                              log_weight_sequence, parse_preset)
from cmshift.numerics import zeta_series_with_bound
from cmshift.oracle import partition_sums_bruteforce

LOG2 = math.log(2.0)


# -- zeta ------------------------------------------------------------------------

def test_zeta_at_two_matches_closed_form():
    z = zeta(2.0)
    assert abs(z.value - math.pi ** 2 / 6.0) <= z.error_bound + 1e-15


def test_zeta_at_twenty():
    z = zeta(20.0)
    assert z.value == pytest.approx(1.0000009539620338, abs=1e-12)


def test_zeta_diverges_at_one():
    with pytest.raises(ZetaDivergenceError):
        zeta(1.0)


@settings(max_examples=20)
@given(beta=st.floats(min_value=1.05, max_value=25.0))
def test_zeta_certified_against_mpmath(beta):
    value, bound = zeta_series_with_bound(beta, 1e-10)
    reference = float(mpmath.zeta(beta))
    assert abs(value - reference) <= bound + 1e-13
    assert bound <= 1e-10


def test_normalizing_constants():
    c3 = normalizing_C(3.0)
    assert c3.value == pytest.approx(1.0 / 1.2020569031595942, rel=1e-12)
    c2 = normalizing_C(2.0)
    assert c2.value == pytest.approx(6.0 / math.pi ** 2, rel=1e-12)
    assert normalizing_C(60.0).value == pytest.approx(1.0, abs=1e-12)


# -- topological entropy -------------------------------------------------------------

def test_htop_geometric_doubling_is_log4():
    assert htop_solve(LoopCountFamily("geometric", ratio=2)) \
        == pytest.approx(math.log(4.0), abs=1e-12)


def test_htop_ones_is_log2():
    assert htop_solve(LoopCountFamily("ones")) == pytest.approx(LOG2, abs=1e-12)


def test_htop_single_self_loop_is_zero():
    assert htop_solve(LoopCountFamily("list", values=(1,))) \
        == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("values, root", [
    ((2,), LOG2), ((0, 2), LOG2 / 2), ((1,), 0.0), ((0, 0, 1), 0.0),
    ((1, 1), math.log((1 + math.sqrt(5)) / 2)),
])
def test_htop_list_bisection_lands_on_known_roots(values, root):
    # the renewal root of the finite tail log a(n), which replaced a bisection
    # that ran until the midpoint stopped moving, meets the root to within a
    # few ulps
    assert htop_solve(LoopCountFamily("list", values=values)) \
        == pytest.approx(root, rel=1e-15, abs=1e-300)


@settings(max_examples=60)
@given(values=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=9)
       .filter(lambda v: sum(v) >= 2))
def test_htop_list_root_matches_mpmath_findroot(values):
    # the renewal root on the finite tail log a(n) against mpmath's root of
    # sum_n a(n) e^{-nh} = 1, which is unique since the sum decreases in h
    h = htop_solve(LoopCountFamily("list", values=tuple(values)))
    with mpmath.workdps(40):
        ref = mpmath.findroot(lambda t: mpmath.fsum(a * mpmath.exp(-n * t)
                                                    for n, a in enumerate(values, 1)) - 1,
                              mpmath.mpf(h))
    assert abs(h - ref) <= 1e-14 * abs(ref)


def test_htop_double_exponential_is_infinite():
    assert htop_solve(LoopCountFamily("double_exponential")) == math.inf


def test_htop_bracketing_agrees_with_closed_form():
    # long truncation of the doubling family: the root solver lands on log 4
    values = tuple(2 ** n for n in range(1, 61))
    h = htop_solve(LoopCountFamily("list", values=values))
    assert h == pytest.approx(math.log(4.0), abs=1e-9)


def test_htop_residual_bound():
    fam = LoopCountFamily("list", values=(1, 2, 0, 3))
    h = htop_solve(fam)
    total = sum(fam.count(n) * math.exp(-n * h) for n in range(1, 5))
    assert abs(total - 1.0) <= 1e-8


_RATIOS = (1, 2, 3, 4, 7, 10**6, 2**20, 2**26, 2**40, 2**60, 2**600)


@pytest.mark.parametrize("k, m", [(0, 0), (0, 1), (0, 3), (1, -1), (1, 0), (1, 1),
                                  (2, 0), (5, 0)],
                         ids=["0", "1", "3", "r-1", "r", "r+1", "2r", "5r"])
@pytest.mark.parametrize("r", _RATIOS, ids=lambda r: f"2**{r.bit_length() - 1}"
                         if r > 10**6 else str(r))
def test_htop_geometric_matches_mpmath(r, k, m):
    # a(1) = k r + m: h against the root of a(1) e^{-h} + sum_{n>=2} (r e^{-h})^n
    # = 1 at 50 digits, bracketed in h on (log r, log r + 4], where the sum
    # falls from +inf to below 1 for a(1) <= 5r; a quadratic in e^{-h} cancels
    # at a(1) next to r, and (a(1) + r)**2 leaves the float range at 2**600
    a1 = k * r + m
    h = htop_solve(LoopCountFamily("geometric", ratio=r, a1=a1))
    with mpmath.workdps(50):
        def excess(t):
            y = r * mpmath.exp(-t)
            return a1 * mpmath.exp(-t) + y * y / (1 - y) - 1
        log_r = mpmath.log(r)
        ref = mpmath.findroot(excess, (log_r + mpmath.mpf("1e-3"), log_r + 4),
                              solver="anderson")
        assert abs(excess(ref)) < mpmath.mpf(10) ** -40
    assert abs(h - ref) <= 4 * math.ulp(float(ref))


@pytest.mark.parametrize("a1", range(6))
def test_htop_ones_is_geometric_of_ratio_one(a1):
    assert htop_solve(LoopCountFamily("ones", a1=a1)) \
        == htop_solve(LoopCountFamily("geometric", ratio=1, a1=a1))


def test_htop_geometric_with_a1_override():
    fam = LoopCountFamily("geometric", ratio=2, a1=1)
    h = htop_solve(fam)
    # cross-check against a long truncation
    values = (1,) + tuple(2 ** n for n in range(2, 61))
    h_list = htop_solve(LoopCountFamily("list", values=values))
    assert h == pytest.approx(h_list, abs=1e-9)


# -- bouquet builds -------------------------------------------------------------------

def test_sec52_build_weights_and_table():
    b = build_preset("sec52-entry", truncate_len=10)
    assert isinstance(b.weights, GeometricTail)
    for n in range(1, 11):
        assert b.weights.log_weight(n) == pytest.approx(-n * LOG2)
    assert b.potential.weight((ROOT, ROOT)) == pytest.approx(-LOG2)
    assert b.potential.weight((ROOT, LoopVertex(3, 1, 1))) == pytest.approx(-3 * LOG2)
    assert b.potential.weight((LoopVertex(3, 1, 1), LoopVertex(3, 1, 2))) == 0.0


def test_sec53_abstract_weights_match_power_form():
    b = build_preset("sec53(beta=3,C=auto)")
    assert isinstance(b.weights, PowerTail)
    C = normalizing_C(3.0).value
    for n in range(1, 51):
        want = C * n ** -3.0
        got = math.exp(b.weights.log_weight(n))
        assert got == pytest.approx(want, rel=1e-12)
    # a(1) = 2 admits no graph: the build returns weights only
    assert b.system is None


def test_sec53_graph_realization_requires_small_a1():
    # no graph when a(1) >= 2 or when no truncation is given: the weights only
    tau = TauSpec("power", beta=3.0, log_C=0.0)
    for fam, L in ((LoopCountFamily("geometric", ratio=2), 6),
                   (LoopCountFamily("geometric", ratio=2, a1=1), None)):
        b = build_bouquet(BouquetSpec(fam, "entry", tau, truncate_len=L))
        assert (b.system, b.potential, b.truncated_weights) == (None, None, None)
        assert isinstance(b.weights, PowerTail)
    modified = BouquetSpec(LoopCountFamily("geometric", ratio=2, a1=1), "entry",
                           tau, truncate_len=6)
    b = build_bouquet(modified)
    assert b.system is not None
    assert math.exp(b.truncated_weights.log_weight(1)) == pytest.approx(1.0)


def test_truncated_weights_match_bruteforce_partition_sums():
    b = build_preset("sec52-entry", truncate_len=6)
    brute = partition_sums_bruteforce(b.system, b.potential, ROOT, 6)
    for n in range(1, 7):
        assert brute.logzstar(n) == pytest.approx(
            b.truncated_weights.log_weight(n), abs=1e-12)


def test_induced_pressure_normalized_family_is_zero():
    for beta in (1.5, 2.0, 3.0):
        C = normalizing_C(beta).value
        res = RenewalSeries(PowerTail(beta, math.log(C))).induced(0.0)
        assert res.value == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("scheme", ["exit", "midpoint", "spread"])
def test_weight_scheme_variants_preserve_loop_totals(scheme):
    base = BouquetSpec(LoopCountFamily("ones"), "entry", TauSpec("halving"),
                       truncate_len=7)
    variant = BouquetSpec(LoopCountFamily("ones"), scheme, TauSpec("halving"),
                          truncate_len=7)
    be, bv = build_bouquet(base), build_bouquet(variant)
    pe = partition_sums_bruteforce(be.system, be.potential, ROOT, 9)
    pv = partition_sums_bruteforce(bv.system, bv.potential, ROOT, 9)
    for n in range(1, 10):
        assert pe.logz(n) == pytest.approx(pv.logz(n), abs=1e-10)
        assert pe.logzstar(n) == pytest.approx(pv.logzstar(n), abs=1e-10)
    ce = chi_per(be.system, be.potential, 9)
    cv = chi_per(bv.system, bv.potential, 9)
    assert ce.value == pytest.approx(cv.value, abs=1e-12)


def test_spread_variant_weights_sum_along_each_loop():
    spec = BouquetSpec(LoopCountFamily("ones"), "spread", TauSpec("halving"),
                       truncate_len=9)
    b = build_bouquet(spec)
    for n in b.system.loop_lengths():
        word = (ROOT,) + tuple(LoopVertex(n, 1, k) for k in range(1, n)) + (ROOT,)
        total = sum(b.potential.weight((word[t], word[t + 1])) for t in range(n))
        assert total == pytest.approx(-n * LOG2, abs=1e-12)


def _per_scheme_fallback(spec):
    # the fallback that worked out the loop position in each scheme on its
    # own, kept as the oracle of the one (n, k) rule
    scheme, tau = spec.scheme, spec.tau

    def fallback(window):
        if len(window) != 2:
            return None
        u, v = window
        if u == ROOT and v == ROOT:
            return tau(1)
        if scheme == "entry":
            if u == ROOT and isinstance(v, LoopVertex) and v.position == 1:
                return tau(v.loop_len)
            return None
        if scheme == "exit":
            if isinstance(u, LoopVertex) and u.position == u.loop_len - 1 and v == ROOT:
                return tau(u.loop_len)
            return None
        if scheme == "midpoint":
            n = None
            if isinstance(u, LoopVertex):
                n, k = u.loop_len, u.position
            elif isinstance(v, LoopVertex) and v.position == 1:
                n, k = v.loop_len, 0
            if n is None or n < 2:
                return None
            if k == math.ceil(n / 2):
                return tau(n)
            return None
        n = None
        if isinstance(u, LoopVertex):
            n, k = u.loop_len, u.position
        elif isinstance(v, LoopVertex) and v.position == 1:
            n, k = v.loop_len, 0
        if n is None or n < 2:
            return None
        half = n // 2
        if k < half:
            return 2.0 * tau(n) / n
        if n % 2 == 1 and k == half:
            return tau(n) / n
        return None

    return fallback


@pytest.mark.parametrize("scheme", ["entry", "exit", "midpoint", "spread"])
@pytest.mark.parametrize("tau", [
    TauSpec("halving"),
    TauSpec("power", beta=2.0, log_C=0.3),
    TauSpec("table", table=(0.5, -0.0, math.inf, -1.25, math.nan, 3.0, -math.inf, 0.0, -7.5)),
])
def test_scheme_fallback_equals_the_per_scheme_rules(scheme, tau):
    # every ordered pair of states of a list bouquet with up to 3 loops per
    # length, admissible or not, and windows of length 1 and 3
    spec = BouquetSpec(LoopCountFamily("list", values=(1, 3, 2, 0, 3, 1, 2, 0, 3)),
                       scheme, tau, truncate_len=9)
    states = list(BouquetShift(spec.a, 9).states())
    windows = [(u,) for u in states] + [(u, v) for u in states for v in states] \
        + [(u, v, ROOT) for u in states[:12] for v in states[:12]]
    fast, slow = _scheme_fallback(spec), _per_scheme_fallback(spec)
    assert repr([fast(w) for w in windows]) == repr([slow(w) for w in windows])


# -- presets --------------------------------------------------------------------------------

def test_preset_names_are_published():
    assert preset_names() == ["renewal-ones", "sec52-entry", "sec52-exit",
                              "sec52-mid", "sec53", "sec54"]


def test_parse_preset_expressions():
    assert parse_preset("sec52-entry") == ("sec52-entry", {})
    assert parse_preset("sec53(beta=3,C=auto)") == ("sec53", {"beta": 3, "C": "auto"})
    assert parse_preset("sec53(2.5)") == ("sec53", {"beta": 2.5})
    name, kw = parse_preset("sec54(psi=[0,0.5,1])")
    assert name == "sec54" and kw["psi"] == [0.0, 0.5, 1.0]


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        build_preset("sec99")


def test_renewal_ones_weights_are_unit():
    b = build_preset("renewal-ones", truncate_len=5)
    assert isinstance(b.weights, GeometricTail)
    assert [math.exp(w) for w in log_weight_sequence(b.weights, 4)] \
        == pytest.approx([1.0] * 4)


@pytest.mark.parametrize("a1", [None, 0, 1, 3])
@pytest.mark.parametrize("form, ratio", [("ones", 1), ("geometric", 1), ("geometric", 2),
                                         ("geometric", 3), ("double_exponential", 1)])
@pytest.mark.parametrize("kind", ["zero", "halving", "power", "psi"])
def test_closed_forms_agree_with_their_family_at_every_length(form, ratio, a1, kind):
    # a closed form is the aggregate weight of its family at n = 1 too, where
    # parallel self-loops collapse and a(1) = 0 leaves no return at all; a
    # tabulated (psi) family agrees over its known entries
    spec = BouquetSpec(LoopCountFamily(form, ratio=ratio, a1=a1), "entry",
                       TauSpec(kind, beta=3.0, log_C=math.log(1.5),
                               psi=tuple(0.5 * k for k in range(8))))
    try:
        tail = abstract_return_weights(spec)
    except ValueError:
        return
    known = len(tail.log_weights) if isinstance(tail, UnknownTail) else 12
    for n in range(1, known + 1):
        want = _aggregate_log_weight(spec.a, spec.tau, n)
        assert tail.log_weight(n) == pytest.approx(want, rel=1e-12), n
