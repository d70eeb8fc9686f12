"""Named bouquet families, weight schemes, and closed-form oracles.

Builds the example systems the rest of the library analyzes: bouquets of
simple loops with entry-edge, exit-edge, midpoint, or spread weight schemes,
their aggregate per-length return weights in closed form, the zeta evaluator
with a certified tail bound, and the topological-entropy root solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .numerics import LOG_ZERO, zeta_series_with_bound
from .potential import Potential
from .shift import ROOT, BouquetShift, LoopCountFamily, LoopVertex

__all__ = [
    "LOG2", "GeometricTail", "PowerTail", "FiniteTail", "UnknownTail",
    "TauSpec", "BouquetSpec", "BouquetBuild", "BouquetRealizationError",
    "build_bouquet", "ZetaValue", "zeta", "ZetaDivergenceError",
    "normalizing_C", "htop_solve", "NoSolutionError",
    "PRESETS", "preset_names", "build_preset", "parse_preset",
]

LOG2 = math.log(2.0)


# -- return-weight tail models -----------------------------------------------------

@dataclass(frozen=True)
class GeometricTail:
    """log w*_k = log_coeff + k * log_ratio for all k >= 1."""

    log_coeff: float
    log_ratio: float

    def log_weight(self, k: int) -> float:
        return self.log_coeff + k * self.log_ratio


@dataclass(frozen=True)
class PowerTail:
    """log w*_k = log_coeff - beta * log k + k * log_x for all k >= 1."""

    beta: float
    log_coeff: float
    log_x: float = 0.0

    def log_weight(self, k: int) -> float:
        return self.log_coeff - self.beta * math.log(k) + k * self.log_x


@dataclass(frozen=True)
class FiniteTail:
    """Finite-support return weights (truncated families): zero beyond the table."""

    log_weights: tuple[float, ...]

    def log_weight(self, k: int) -> float:
        return self.log_weights[k - 1] if k <= len(self.log_weights) else LOG_ZERO


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

class BouquetRealizationError(Exception):
    """Graph realization was requested for a family it cannot carry."""


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


def abstract_return_weights(spec: BouquetSpec):
    """Closed-form per-length return weights of the untruncated family."""
    a, tau = spec.a, spec.tau
    if a.form in ("ones",) and tau.kind == "halving":
        return GeometricTail(0.0, -LOG2)
    if a.form in ("ones",) and tau.kind == "zero":
        return GeometricTail(0.0, 0.0)
    if a.form == "geometric" and tau.kind == "power":
        # a(n) e^{log C - n log 2 - beta log n} = C (r/2)^n n^-beta, and the
        # n = 1 aggregate collapses to C (r/2) ... with r = 2 exactly C n^-beta
        log_x = math.log(a.ratio) - LOG2
        return PowerTail(tau.beta, tau.log_C, log_x)
    if a.form == "ones" and tau.kind == "power":
        return PowerTail(tau.beta, tau.log_C, -LOG2)
    if a.form == "double_exponential" and tau.kind == "psi":
        # a(n) e^{tau(n)} = C e^{-psi(n)}: tabulated, unknown continuation
        return UnknownTail(tuple(tau.log_C - p for p in tau.psi))
    if a.form == "list" or tau.kind == "table":
        L = len(a.values) if a.form == "list" else len(tau.table)
        return FiniteTail(tuple(_aggregate_log_weight(a, tau, n)
                                for n in range(1, L + 1)))
    raise ValueError("no closed form for this loop-count/weight combination")


def _scheme_fallback(spec: BouquetSpec) -> Callable[[tuple], float | None]:
    scheme, tau = spec.scheme, spec.tau

    def fallback(window: tuple) -> float | None:
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
        # spread
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


def build_bouquet(spec: BouquetSpec, graph: str | bool = "auto") -> BouquetBuild:
    """Build a bouquet family: graph, memory-2 potential, and closed-form
    aggregate return weights (the untruncated family's w*_n).

    graph=True demands a graph realization and raises
    BouquetRealizationError when a(1) >= 2 (a simple graph cannot carry
    parallel self-loops; the abstract return-weight route handles those
    families exactly) or when no truncation bound is given.  graph='auto'
    builds the graph when possible and otherwise returns only the weights.
    Families without a recognized closed form still build; their abstract
    weight model is None and only the truncated weights are attached.
    """
    try:
        weights = abstract_return_weights(spec)
    except ValueError:
        weights = None
    has_graph = spec.truncate_len is not None and spec.a.count(1) <= 1
    if graph is True and not has_graph:
        if spec.a.count(1) > 1:
            raise BouquetRealizationError(
                "a(1) >= 2 admits no simple-graph realization; use the abstract "
                "return weights (graph='auto' or False), or modify the family "
                "to a(1) <= 1")
        raise BouquetRealizationError("graph realization needs truncate_len")
    system = potential = truncated = None
    if graph is not False and has_graph:
        # the weights first: a loop total the family cannot give fails here,
        # before the graph materializes its loop counts
        truncated = FiniteTail(tuple(
            _aggregate_log_weight(spec.a, spec.tau, n)
            for n in range(1, spec.truncate_len + 1)))
        system = BouquetShift(spec.a, spec.truncate_len)
        potential = Potential(2, {}, 0.0, fallback=_scheme_fallback(spec))
        potential.loop_total = spec.tau
        potential.loop_support = system.loop_lengths()
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


def zeta(beta: float, tol: float = 1e-9) -> ZetaValue:
    """Riemann zeta at real beta > 1 with a certified error bound <= tol.

    Partial sum plus the integral tail, refined by Euler-Maclaurin correction
    terms whose first omitted term bounds the error.
    """
    if beta <= 1.0:
        raise ZetaDivergenceError(f"zeta diverges at exponent {beta}")
    v, b = zeta_series_with_bound(beta, tol)
    return ZetaValue(v, b)


def normalizing_C(beta: float, tol: float = 1e-9) -> ZetaValue:
    """1/zeta(beta) with the propagated error bound."""
    z = zeta(beta, tol)
    value = 1.0 / z.value
    bound = z.error_bound / (z.value * z.value) * (1.0 + 4e-16) + 4e-16 * value
    return ZetaValue(value, bound)


# -- topological entropy -------------------------------------------------------------------

class NoSolutionError(ValueError):
    """The loop generating series never reaches 1 in its convergence region."""


def htop_solve(a: LoopCountFamily, tol: float = 1e-9) -> float:
    """Solve sum_n a(n) e^{-n h} = 1 for the topological entropy h.

    Closed forms: pure geometric a(n) = r^n gives h = log(2r); with an a(1)
    override the generating function is rational and solved exactly.  The
    all-ones family gives log 2.  Finite lists use certified bracketing on the
    monotone map h -> sum a(n) e^{-nh}.  The double-exponential family has a
    divergent series for every h, i.e. infinite entropy.
    """
    if a.form == "double_exponential":
        return math.inf
    if a.form == "geometric":
        r = a.ratio
        a1 = a.count(1)
        if a1 == r:
            return math.log(2 * r)
        # g(x) = a1 x + (rx)^2/(1 - rx) = 1 with x = e^{-h}
        A = r * r - a1 * r
        B = a1 + r
        if A == 0:
            x = 1.0 / B
        else:
            disc = B * B + 4.0 * A
            x = (-B + math.sqrt(disc)) / (2.0 * A)
        if not 0 < x < 1.0 / r:
            raise NoSolutionError("generating series never reaches 1")
        return -math.log(x)
    if a.form == "ones":
        if a.count(1) == 1:
            return LOG2
        # a(1) = 0: x^2/(1-x) = 1 -> x = (sqrt(5)-1)/2
        return -math.log((math.sqrt(5.0) - 1.0) / 2.0)
    support = a.support(len(a.values))
    if not support:
        raise NoSolutionError("empty loop family")

    def g(h: float) -> float:
        return math.fsum(a.count(n) * math.exp(-n * h) for n in support) - 1.0

    hi = 1.0
    while g(hi) > 0:
        hi *= 2
        if hi > 1e6:
            raise NoSolutionError("no entropy root found below 1e6")
    lo = hi
    while g(lo) < 0:
        lo = lo / 2 if lo > 1e-9 else lo - 1.0
        if lo < -1e6:
            raise NoSolutionError("no entropy root found above -1e6")
    # scipy costs most of the package's import time; only this branch needs it
    from scipy.optimize import brentq

    return float(brentq(g, lo, hi, xtol=tol))


# -- presets ----------------------------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    name: str
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


def _sec53(truncate_len: int | None = None, beta: float = 3.0, C="auto",
           a1: int | None = None, **kw) -> BouquetSpec:
    if kw:
        raise ValueError(f"unknown preset arguments {sorted(kw)}")
    beta = float(beta)
    if isinstance(C, str):
        if C != "auto":
            raise ValueError("C must be a number or 'auto'")
        Cval = normalizing_C(beta).value
    else:
        Cval = float(C)
    fam = LoopCountFamily("geometric", ratio=2, a1=a1)
    return BouquetSpec(fam, "entry", TauSpec("power", beta=beta,
                                             log_C=math.log(Cval)), truncate_len)


def _sec54(truncate_len: int | None = None, psi: Sequence[float] = (),
           C: float = 1.0, **kw) -> BouquetSpec:
    if kw:
        raise ValueError(f"unknown preset arguments {sorted(kw)}")
    psi = tuple(float(p) for p in psi) or tuple(0.0 for _ in range(16))
    return BouquetSpec(LoopCountFamily("double_exponential"), "entry",
                       TauSpec("psi", log_C=math.log(float(C)), psi=psi),
                       truncate_len)


def _renewal_ones(truncate_len: int | None = None, **kw) -> BouquetSpec:
    if kw:
        raise ValueError(f"unknown preset arguments {sorted(kw)}")
    return BouquetSpec(LoopCountFamily("ones"), "entry", TauSpec("zero"),
                       truncate_len)


PRESETS: dict[str, Preset] = {
    "sec52-entry": Preset("sec52-entry",
                          "one loop per length, weight -n log 2 on the entry edge",
                          _sec52("entry"), 40),
    "sec52-exit": Preset("sec52-exit",
                         "one loop per length, weight -n log 2 on the exit edge",
                         _sec52("exit"), 40),
    "sec52-mid": Preset("sec52-mid",
                        "one loop per length, weight -n log 2 midway along the loop",
                        _sec52("midpoint"), 40),
    "sec53": Preset("sec53",
                    "2^n loops per length, entry weight log C - n log 2 - beta log n",
                    _sec53, 25),
    "sec54": Preset("sec54",
                    "2^(2^n) loops per length, psi-tabulated entry weights",
                    _sec54, 8),
    "renewal-ones": Preset("renewal-ones",
                           "one unweighted loop per length (plain renewal shift)",
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


def build_preset(text: str, truncate_len: int | None = None,
                 graph: str | bool = "auto") -> BouquetBuild:
    """Resolve a preset expression and build the family."""
    name, kwargs = parse_preset(text)
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    preset = PRESETS[name]
    L = truncate_len if truncate_len is not None else preset.default_truncate
    spec = preset.build(truncate_len=L, **kwargs)
    return build_bouquet(spec, graph=graph)
