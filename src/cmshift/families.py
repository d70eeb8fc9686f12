"""Named bouquet families, weight schemes, and closed-form oracles.

Builds the example systems the rest of the library analyzes: bouquets of
simple loops with entry-edge, exit-edge, midpoint, or spread weight schemes,
their aggregate per-length return weights in closed form with the two
series of their renewal equation, the zeta evaluator with a certified tail
bound, and the topological-entropy root solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .numerics import (LOG_ZERO, SeriesBudgetError, logsumexp, polylog_with_bound,
                       zeta_series_with_bound)
from .potential import Potential
from .shift import ROOT, BouquetShift, LoopCountFamily, LoopVertex
from .thermo import RenewalSeries

__all__ = [
    "LOG2", "GeometricTail", "PowerTail", "FiniteTail", "UnknownTail",
    "TauSpec", "BouquetSpec", "BouquetBuild", "build_bouquet", "ZetaValue",
    "zeta", "ZetaDivergenceError",
    "normalizing_C", "htop_solve", "NoSolutionError",
    "PRESETS", "preset_names", "build_preset", "parse_preset",
]

LOG2 = math.log(2.0)


# -- return-weight tail models -----------------------------------------------------

# the relative tolerance of every renewal series a tail sums, and the terms a
# polylog series may take before its partial sum is all that is known of it
SERIES_TOL = 1e-13
SERIES_TERMS = 300_000
# the error bound certified by zeta (and so by normalizing_C and C=auto),
# relative to max(1, 1/(beta - 1)), the size of zeta(beta) near 1
ZETA_TOL = 1e-9


class _RenewalTail:
    """The renewal-series interface of the closed-form tails: log_series(p)
    is log sum_k w*_k e^{-kp}, +inf where the series diverges, and
    log_mean(p) is log sum_k k w*_k e^{-kp}; both converge for every shift
    above the boundary log_x.  newton_start is where the pressure root's
    Newton steps begin."""

    @property
    def newton_start(self) -> float:
        return max(1.0, self.log_x + 1.0)


@dataclass(frozen=True)
class GeometricTail(_RenewalTail):
    """log w*_k = log_coeff + k * log_ratio for all k >= 1: geometric series,
    summed in closed form, with the closed-form root as the Newton start."""

    log_coeff: float
    log_ratio: float

    def log_weight(self, k: int) -> float:
        return self.log_coeff + k * self.log_ratio

    @property
    def log_x(self) -> float:
        return self.log_ratio

    @property
    def newton_start(self) -> float:
        # e^c y / (1 - y) = 1 at y = e^{log_ratio - P}  =>  y = 1 / (1 + e^c)
        return self.log_ratio + math.log1p(math.exp(self.log_coeff))

    def log_series(self, p: float) -> float:
        x = self.log_ratio - p
        return self.log_coeff + x - math.log1p(-math.exp(x)) if x < 0 else math.inf

    def log_mean(self, p: float) -> float:
        # sum_k k y^k = y / (1 - y)^2
        x = self.log_ratio - p
        return self.log_coeff + x - 2.0 * math.log1p(-math.exp(x)) if x < 0 else math.inf


@dataclass(frozen=True)
class PowerTail(_RenewalTail):
    """log w*_k = log_coeff - beta * log k + k * log_x for all k >= 1: the
    series are C Li_beta and C Li_{beta-1} at e^{log_x - p}."""

    beta: float
    log_coeff: float
    log_x: float = 0.0

    def log_weight(self, k: int) -> float:
        return self.log_coeff - self.beta * math.log(k) + k * self.log_x

    def log_series(self, p: float) -> float:
        return self._log_li(self.beta, p)

    def log_mean(self, p: float) -> float:
        return self._log_li(self.beta - 1.0, p)

    def _log_li(self, s: float, p: float) -> float:
        """log C + log Li_s(e^{log_x - p}) to SERIES_TOL.  A series that runs
        out of its SERIES_TERMS budget raises SeriesBudgetError with the log
        of C times its partial sum."""
        x = self.log_x - p
        if x > 0 or (x == 0 and s <= 1):
            return math.inf
        try:
            return self.log_coeff + polylog_with_bound(s, x, SERIES_TOL, SERIES_TERMS)[0]
        except SeriesBudgetError as exc:
            raise SeriesBudgetError(f"the series Li_{s:g} needs more than {SERIES_TERMS} "
                                    f"terms", self.log_coeff + exc.log_partial) from None


@dataclass(frozen=True)
class FiniteTail(_RenewalTail):
    """Finite-support return weights (truncated families): zero beyond the
    table, so the series are finite sums and converge for every shift."""

    log_weights: tuple[float, ...]
    log_x = LOG_ZERO

    def log_weight(self, k: int) -> float:
        return self.log_weights[k - 1] if k <= len(self.log_weights) else LOG_ZERO

    def log_series(self, p: float) -> float:
        return logsumexp(lw - k * p for k, lw in enumerate(self.log_weights, 1)
                         if lw != LOG_ZERO)

    def log_mean(self, p: float) -> float:
        return logsumexp(math.log(k) + lw - k * p
                         for k, lw in enumerate(self.log_weights, 1) if lw != LOG_ZERO)


@dataclass(frozen=True)
class UnknownTail:
    """Tabulated weights whose continuation is unspecified (psi-style input)."""

    log_weights: tuple[float, ...]

    def log_weight(self, k: int) -> float:
        if k > len(self.log_weights):
            raise ValueError("weight requested beyond the known table")
        return self.log_weights[k - 1]


def log_weight_sequence(model, N: int) -> list[float]:
    return [model.log_weight(k) for k in range(1, N + 1)]


# -- per-loop total weights ----------------------------------------------------------

@dataclass(frozen=True)
class TauSpec:
    """Total weight carried by one simple loop of each length.

    kind 'zero':    tau(n) = 0 (plain renewal counting).
    kind 'halving': tau(n) = -n log 2.
    kind 'power':   tau(1) = log C and tau(n) = log C - n log 2 - beta log n,
                    the aggregate-preserving weights of the polynomially
                    normalized family.
    kind 'psi':     tau(n) = log C - 2^n log 2 - psi(n) for the
                    double-exponential family (psi tabulated).
    kind 'table':   arbitrary per-length totals.
    """

    kind: str
    beta: float = 0.0
    log_C: float = 0.0
    psi: tuple[float, ...] = ()
    table: tuple[float, ...] = ()

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError("loop length must be >= 1")
        if self.kind == "zero":
            return 0.0
        if self.kind == "halving":
            return -n * LOG2
        if self.kind == "power":
            if n == 1:
                return self.log_C
            return self.log_C - n * LOG2 - self.beta * math.log(n)
        if self.kind == "psi":
            if n > len(self.psi):
                raise ValueError("psi table too short for requested length")
            return self.log_C - (2 ** n) * LOG2 - self.psi[n - 1]
        if self.kind == "table":
            if n > len(self.table):
                raise ValueError("weight table too short for requested length")
            return self.table[n - 1]
        raise ValueError(f"unknown tau kind {self.kind!r}")


# -- bouquet construction --------------------------------------------------------------

@dataclass(frozen=True)
class BouquetSpec:
    """A bouquet family: loop counts, weight scheme, totals, truncation.

    scheme is one of 'entry' (weight on the edge leaving the root), 'exit'
    (edge returning to the root), 'midpoint' (the single edge out of loop
    position ceil(n/2), a fixed convention for odd lengths), or 'spread'
    (2 tau(n)/n on the first floor(n/2) edges plus a tau(n)/n remainder edge
    for odd n).  All schemes give every simple loop of length n the same
    total weight tau(n), so partition sums and periodic averages agree across
    schemes.
    """

    a: LoopCountFamily
    scheme: str = "entry"
    tau: TauSpec = TauSpec("halving")
    truncate_len: int | None = None

    def __post_init__(self):
        if self.scheme not in ("entry", "exit", "midpoint", "spread"):
            raise ValueError(f"unknown weight scheme {self.scheme!r}")


@dataclass
class BouquetBuild:
    system: BouquetShift | None
    potential: Potential | None
    weights: object  # abstract (untruncated) return-weight model
    truncated_weights: FiniteTail | None
    spec: BouquetSpec


def _aggregate_log_weight(a: LoopCountFamily, tau: TauSpec, n: int) -> float:
    """log of w*_n = (number of distinguishable length-n first returns) * e^tau(n).

    At n = 1 parallel self-loops collapse to the single fixed point of the
    root cylinder, so the aggregate is e^tau(1) whenever a(1) >= 1.
    """
    count = a.count(n)
    if count < 1:
        return LOG_ZERO
    if n == 1:
        return tau(1)
    return math.log(count) + tau(n)


def truncated_return_weights(a: LoopCountFamily, tau: TauSpec, L: int) -> FiniteTail:
    """The first-return weights w*_1..w*_L of the bouquet truncated at L,
    which are all of them: _aggregate_log_weight at each length."""
    return FiniteTail(tuple(_aggregate_log_weight(a, tau, n) for n in range(1, L + 1)))


def abstract_return_weights(spec: BouquetSpec):
    """Closed-form per-length return weights of the untruncated family, equal
    to _aggregate_log_weight at every length, n = 1 included."""
    a, tau = spec.a, spec.tau
    if a.form in ("ones", "geometric") and a.count(1) == 0:
        raise ValueError("no closed form for a family without a length-1 loop")
    if a.form == "ones" and tau.kind == "halving":
        return GeometricTail(0.0, -LOG2)
    if a.form == "ones" and tau.kind == "zero":
        return GeometricTail(0.0, 0.0)
    if a.form == "geometric" and a.ratio == 2 and tau.kind == "power":
        # 2^n e^{log C - n log 2 - beta log n} = C n^-beta, and the n = 1
        # aggregate collapses to e^{tau(1)} = C as well; for another ratio r
        # (or the ones form, r = 1) C (r/2)^n n^-beta holds only from n = 2
        return PowerTail(tau.beta, tau.log_C)
    if a.form == "double_exponential" and tau.kind == "psi":
        # a(n) e^{tau(n)} = C e^{-psi(n)} from n = 2, where no loops
        # collapse: tabulated, unknown continuation
        return UnknownTail((_aggregate_log_weight(a, tau, 1),)
                           + tuple(tau.log_C - p for p in tau.psi[1:]))
    if a.form == "list" or tau.kind == "table":
        return truncated_return_weights(a, tau, len(a.values) if a.form == "list"
                                        else len(tau.table))
    raise ValueError("no closed form for this loop-count/weight combination")


def _scheme_fallback(spec: BouquetSpec) -> Callable[[tuple], float | None]:
    scheme, tau = spec.scheme, spec.tau

    def fallback(window: tuple) -> float | None:
        if len(window) != 2:
            return None
        u, v = window
        if u == ROOT and v == ROOT:
            return tau(1)
        # the edge leaves position k of a loop of length n, the root being 0
        if isinstance(u, LoopVertex):
            n, k = u.loop_len, u.position
        elif u == ROOT and isinstance(v, LoopVertex) and v.position == 1:
            n, k = v.loop_len, 0
        else:
            return None
        if scheme == "entry":
            return tau(n) if k == 0 else None
        if scheme == "exit":
            return tau(n) if k == n - 1 and v == ROOT else None
        if n < 2:
            return None
        if scheme == "midpoint":
            return tau(n) if k == math.ceil(n / 2) else None
        half = n // 2  # spread
        if k < half:
            return 2.0 * tau(n) / n
        return tau(n) / n if n % 2 == 1 and k == half else None

    return fallback


def build_bouquet(spec: BouquetSpec) -> BouquetBuild:
    """Build a bouquet family: graph, memory-2 potential, and closed-form
    aggregate return weights (the untruncated family's w*_n).

    The graph, its potential and the truncated weights are built only for a
    truncated family with a(1) <= 1 (a simple graph cannot carry parallel
    self-loops; the abstract return-weight route handles those families
    exactly); otherwise only the weights are returned.  Families without a
    recognized closed form still build; their abstract weight model is None.
    """
    try:
        weights = abstract_return_weights(spec)
    except ValueError:
        weights = None
    system = potential = truncated = None
    if spec.truncate_len is not None and spec.a.count(1) <= 1:
        # the weights first: a loop total the family cannot give fails here,
        # before the graph materializes its loop counts
        truncated = truncated_return_weights(spec.a, spec.tau, spec.truncate_len)
        system = BouquetShift(spec.a, spec.truncate_len)
        potential = Potential(2, {}, 0.0, fallback=_scheme_fallback(spec))
        potential.loop_total = spec.tau
    return BouquetBuild(system, potential, weights, truncated, spec)


# -- zeta and normalizing constants ------------------------------------------------------

class ZetaDivergenceError(ValueError):
    """The zeta series diverges at the requested exponent."""


@dataclass(frozen=True)
class ZetaValue:
    value: float
    error_bound: float

    def __float__(self) -> float:
        return self.value


def zeta(beta: float) -> ZetaValue:
    """Riemann zeta at real beta > 1 with a certified error bound <=
    ZETA_TOL * max(1, 1/(beta - 1)).

    Partial sum plus the integral tail, refined by Euler-Maclaurin correction
    terms whose first omitted term bounds the error.
    """
    if beta <= 1.0:
        raise ZetaDivergenceError(f"zeta diverges at exponent {beta}")
    v, b = zeta_series_with_bound(beta, ZETA_TOL * max(1.0, 1.0 / (beta - 1.0)))
    return ZetaValue(v, b)


def normalizing_C(beta: float) -> ZetaValue:
    """1/zeta(beta) with the propagated error bound."""
    z = zeta(beta)
    value = 1.0 / z.value
    bound = z.error_bound / (z.value * z.value) * (1.0 + 4e-16) + 4e-16 * value
    return ZetaValue(value, bound)


# -- topological entropy -------------------------------------------------------------------

class NoSolutionError(ValueError):
    """The loop generating series never reaches 1 in its convergence region."""


def htop_solve(a: LoopCountFamily) -> float:
    """Solve sum_n a(n) e^{-n h} = 1 for the topological entropy h.

    Geometric a(n) = r^n for n >= 2 (ones: r = 1) with any a(1) has one
    closed form.  With x = e^{-h}, u = r x and c = a(1)/r the equation is
    (1 - c) u^2 + (1 + c) u = 1, whose root in (0, 1) is
    2 / (1 + c + sqrt((1 - c)^2 + 4)): a sum of positive terms, so nothing
    cancels, and r enters only through c and log r, so no float holds r^2.
    A finite list is the renewal root of the finite tail log a(n)
    (thermo.RenewalSeries), and a single loop is the one periodic orbit,
    h = 0.  The double-exponential family has a divergent series for every
    h, i.e. infinite entropy.
    """
    if a.form == "double_exponential":
        return math.inf
    if a.form in ("geometric", "ones"):
        r = a.ratio if a.form == "geometric" else 1
        c = a.count(1) / r
        return math.log(r) + math.log((1 + c + math.hypot(1 - c, 2)) / 2)
    counts = [a.count(n) for n in range(1, len(a.values) + 1)]
    if not any(counts):
        raise NoSolutionError("empty loop family")
    if sum(counts) == 1:
        return 0.0  # a single loop: one periodic orbit
    return RenewalSeries(FiniteTail(tuple(math.log(c) if c else LOG_ZERO
                                          for c in counts))).pressure


# -- presets ----------------------------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    describe: str
    build: Callable[..., BouquetSpec]
    default_truncate: int


def _sec52(scheme: str) -> Callable[..., BouquetSpec]:
    def build(truncate_len: int | None = None, **kw) -> BouquetSpec:
        if kw:
            raise ValueError(f"unknown preset arguments {sorted(kw)}")
        return BouquetSpec(LoopCountFamily("ones"), scheme, TauSpec("halving"),
                           truncate_len)
    return build


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise ValueError(f"preset argument {name} must be a number, got {value!r}")
    return float(value)


def _positive(value, name: str) -> float:
    x = _number(value, name)
    if x <= 0:
        raise ValueError(f"preset argument {name} must be positive, got {value!r}")
    return x


def _sec53(truncate_len: int | None = None, beta: float = 3.0, C="auto",
           a1: int | None = None, **kw) -> BouquetSpec:
    if kw:
        raise ValueError(f"unknown preset arguments {sorted(kw)}")
    beta = _number(beta, "beta")
    if a1 is not None and (isinstance(a1, bool) or not isinstance(a1, int)):
        raise ValueError(f"preset argument a1 must be an integer, got {a1!r}")
    if isinstance(C, str):
        if C != "auto":
            raise ValueError("C must be a number or 'auto'")
        Cval = normalizing_C(beta).value
    else:
        Cval = _positive(C, "C")
    fam = LoopCountFamily("geometric", ratio=2, a1=a1)
    return BouquetSpec(fam, "entry", TauSpec("power", beta=beta,
                                             log_C=math.log(Cval)), truncate_len)


def _sec54(truncate_len: int | None = None, psi: Sequence[float] = (),
           C: float = 1.0, **kw) -> BouquetSpec:
    if kw:
        raise ValueError(f"unknown preset arguments {sorted(kw)}")
    if not isinstance(psi, (list, tuple)):
        raise ValueError(f"preset argument psi must be a list of numbers, got {psi!r}")
    psi = tuple(_number(p, "psi") for p in psi) or tuple(0.0 for _ in range(16))
    return BouquetSpec(LoopCountFamily("double_exponential"), "entry",
                       TauSpec("psi", log_C=math.log(_positive(C, "C")), psi=psi),
                       truncate_len)


def _renewal_ones(truncate_len: int | None = None, **kw) -> BouquetSpec:
    if kw:
        raise ValueError(f"unknown preset arguments {sorted(kw)}")
    return BouquetSpec(LoopCountFamily("ones"), "entry", TauSpec("zero"),
                       truncate_len)


PRESETS: dict[str, Preset] = {
    "sec52-entry": Preset("one loop per length, weight -n log 2 on the entry edge",
                          _sec52("entry"), 40),
    "sec52-exit": Preset("one loop per length, weight -n log 2 on the exit edge",
                         _sec52("exit"), 40),
    "sec52-mid": Preset("one loop per length, weight -n log 2 midway along the loop",
                        _sec52("midpoint"), 40),
    "sec53": Preset("2^n loops per length, entry weight log C - n log 2 - beta log n",
                    _sec53, 25),
    "sec54": Preset("2^(2^n) loops per length, psi-tabulated entry weights",
                    _sec54, 8),
    "renewal-ones": Preset("one unweighted loop per length (plain renewal shift)",
                           _renewal_ones, 40),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def parse_preset(text: str) -> tuple[str, dict]:
    """Parse 'name' or 'name(arg,key=value,...)' into (name, kwargs).

    Positional arguments bind in the preset's natural order (sec53: beta, C).
    Bracketed lists are allowed for table-valued arguments, e.g.
    sec54(psi=[0,0.5,1]).
    """
    text = text.strip()
    if "(" not in text:
        return text, {}
    if not text.endswith(")"):
        raise ValueError(f"malformed preset expression {text!r}")
    name, _, rest = text.partition("(")
    body = rest[:-1]
    args: list[str] = []
    depth = 0
    current = ""
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            args.append(current)
            current = ""
        else:
            current += ch
    if current.strip():
        args.append(current)
    positional_names = {"sec53": ["beta", "C"], "sec54": ["psi", "C"]}
    kwargs: dict = {}
    pos = 0
    for raw in args:
        raw = raw.strip()
        if not raw:
            continue
        if "=" in raw:
            key, _, val = raw.partition("=")
            key = key.strip()
        else:
            names = positional_names.get(name.strip(), [])
            if pos >= len(names):
                raise ValueError(f"too many positional preset arguments in {text!r}")
            key, val = names[pos], raw
            pos += 1
        kwargs[key] = _parse_value(val.strip())
    return name.strip(), kwargs


def _parse_value(val: str):
    if val.startswith("[") and val.endswith("]"):
        inner = val[1:-1].strip()
        return [float(x) for x in inner.split(",")] if inner else []
    if val in ("auto",):
        return val
    try:
        f = float(val)
        return int(f) if f.is_integer() and "." not in val and "e" not in val.lower() \
            else f
    except ValueError:
        return val


def build_preset(text: str, truncate_len: int | None = None) -> BouquetBuild:
    """Resolve a preset expression and build the family."""
    name, kwargs = parse_preset(text)
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    preset = PRESETS[name]
    L = truncate_len if truncate_len is not None else preset.default_truncate
    spec = preset.build(truncate_len=L, **kwargs)
    return build_bouquet(spec)
