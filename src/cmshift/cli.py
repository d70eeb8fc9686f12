"""Batch front-end: ingest shift/potential specs, run diagnostics pipelines,
emit CSV/JSON reports and oracle-comparison tables.

Exit codes: 0 success, 2 config error, 3 computation refusal (an enumeration
needed a truncation or exceeded its cap, or an oracle sum is undefined), 4
internal invariant breach.
Reports are byte-stable for a fixed config: deterministic orderings, floats
at 12 significant digits, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import families, infinity, thermo
from .families import (FiniteTail, GeometricTail, PowerTail, UnknownTail,
                       build_preset, htop_solve, preset_names)
from .numerics import LOG_ZERO
from .potential import Potential
from .shift import BouquetShift, EnumerationRefusal, TransitionSystem
from .specio import ConfigError, load_potential, load_shift

__all__ = ["RunConfig", "run_report", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUSAL = 3
EXIT_INVARIANT = 4


class InvariantBreach(Exception):
    """A cross-checked quantity disagreed beyond tolerance."""


# -- config ---------------------------------------------------------------------------

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


def _is_text(v) -> bool:
    return v is None or isinstance(v, str)


# the type each config key must have in a JSON config document
_CONFIG_TYPES = {
    "preset": (_is_text, "a string"),
    "shift": (_is_text, "a string"),
    "potential": (_is_text, "a string"),
    "out": (_is_text, "a string"),
    "format": (lambda v: isinstance(v, str), "a string"),
    "horizon": (_is_int, "an integer"),
    "truncate": (lambda v: v is None or _is_int(v), "an integer"),
    "M": (_is_int_list, "a list of integers"),
    "q": (_is_int_list, "a list of integers"),
    "log2": (lambda v: isinstance(v, bool), "true or false"),
}


@dataclass
class RunConfig:
    """Validated run parameters (strict: unknown keys are rejected)."""

    preset: str | None = None
    shift: str | None = None
    potential: str | None = None
    horizon: int = 40
    truncate: int | None = None
    M: list[int] = field(default_factory=lambda: [2, 4, 8])
    q: list[int] = field(default_factory=lambda: [1])
    out: str | None = None
    format: str = "json"
    log2: bool = False

    def validate(self) -> None:
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.truncate is not None and self.truncate < 1:
            raise ConfigError("truncate must be >= 1")
        if not self.M or any(m < 1 for m in self.M):
            raise ConfigError("M grid must be non-empty positive integers")
        if not self.q or any(v < 1 for v in self.q):
            raise ConfigError("q grid must be non-empty positive integers")
        if len(set(self.M)) < len(self.M) or len(set(self.q)) < len(self.q):
            raise ConfigError("M and q grid values must be distinct")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be 'csv' or 'json'")
        if self.preset is None and self.shift is None:
            raise ConfigError("pass a preset or a shift spec")
        if self.preset is not None and self.shift is not None:
            raise ConfigError("pass either a preset or a shift spec, not both")
        if self.shift is not None and self.potential is None:
            raise ConfigError("an explicit shift spec needs a potential spec")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("a config document must be a JSON object")
        unknown = set(doc) - set(_CONFIG_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        cfg = cls()
        for key, value in doc.items():
            valid, kind = _CONFIG_TYPES[key]
            if not valid(value):
                raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
            setattr(cfg, key, value)
        cfg.validate()
        return cfg


# shortest horizon each subcommand's fits accept; the oracle fits nothing
_MIN_HORIZON = {
    "report": (thermo.MIN_FIT_TERMS, "the pressure fit"),
    "pressure": (thermo.MIN_FIT_TERMS, "the pressure fit"),
    "spr": (thermo.MIN_FIT_TERMS, "the pressure fit"),
    "hinf": (infinity.MIN_PROFILE_HORIZON, "the profile fit"),
}


def _check_horizon(cfg: RunConfig, command: str) -> None:
    if command in _MIN_HORIZON:
        least, fit = _MIN_HORIZON[command]
        if cfg.horizon < least:
            raise ConfigError(f"horizon must be >= {least} for {fit}")


def _float_json(g: str) -> str:
    """The JSON text of a float from its %.12g text g: g itself when it has
    a point and no exponent (then it is already the shortest repr of its
    float), else the repr of float(g), and nan, inf and -inf as the strings
    of _fmt."""
    if "." in g and "e" not in g:
        return g
    return f'"{g}"' if g in ("nan", "inf", "-inf") else repr(float(g))


def _float_text(x: float) -> str:
    """x at 12 significant digits as JSON (_float_json)."""
    return _float_json(f"{x:.12g}")


def _int_text(n: int) -> str:
    try:
        return int.__repr__(n)
    except ValueError:  # above sys.get_int_max_str_digits()
        return f'"{hex(n)}"'


# the JSON text of a leaf, by its exact type; _leaf_text gives a subclass
# (numpy.float64, IntEnum, ...) the rule of its base
_JSON_LEAVES = {
    float: _float_text, int: _int_text, str: encode_basestring_ascii,
    bool: lambda b: "true" if b else "false", type(None): lambda _: "null",
}


def _leaf_text(x) -> str:
    """The JSON text of a leaf: the rule of its type in _JSON_LEAVES, else
    of its base float, int or str, else the string of its str."""
    leaf = _JSON_LEAVES.get(type(x))
    if leaf is not None:
        return leaf(x)
    for base in (float, int, str):  # bool has no subclasses
        if isinstance(x, base):
            return _JSON_LEAVES[base](x)
    return encode_basestring_ascii(str(x))


def _fmt(x) -> str:
    """x as a CSV cell or printed value: a float at 12 significant digits
    (nan, inf and -inf as such), None empty, anything else its str."""
    return "" if x is None else f"{x:.12g}" if isinstance(x, float) else str(x)


def _cell_texts(col) -> list[str]:
    """The CSV cells (_fmt) of a non-empty column: a column of one exact
    type float, int or None is mapped in C (%.12g text, decimal text,
    empty), any other column cell by cell."""
    types = set(map(type, col))
    kind = next(iter(types)) if len(types) == 1 else None
    if kind is float:
        return list(map("%.12g".__mod__, col))
    if kind is int:
        return list(map(int.__repr__, col))
    if kind is type(None):
        return [""] * len(col)
    return list(map(_fmt, col))


class _Texts:
    """The texts of the columns of one write, each column rendered once in
    each form, its CSV cells and its JSON texts.

    A column is a non-empty list or tuple of cells; the profile grids and
    the sequences of a report are columns of every file written from it.
    A column whose items are the very objects of a column rendered before
    takes that column's texts.  Sharing goes by identity, never by value:
    -0.0 == 0.0 and 1 == 1.0 == True have other texts."""

    def __init__(self) -> None:
        # per form, (length, id of the first item) -> [(column, texts)]; each
        # entry holds its column, so the ids stay those of live items
        self._cells: dict[tuple[int, int], list[tuple]] = {}
        self._json: dict[tuple[int, int], list[tuple]] = {}

    @staticmethod
    def _find(done: dict, col) -> list[str] | None:
        for known, texts in done.get((len(col), id(col[0])), ()):
            if all(map(operator.is_, known, col)):
                return texts
        return None

    @staticmethod
    def _keep(done: dict, col, texts: list[str]) -> list[str]:
        done.setdefault((len(col), id(col[0])), []).append((col, texts))
        return texts

    def cells(self, col) -> list[str]:
        """The CSV cells of a column (_fmt)."""
        if not col:
            return []
        return self._find(self._cells, col) \
            or self._keep(self._cells, col, _cell_texts(col))

    def leaves(self, col) -> list[str] | None:
        """The JSON texts of a non-empty column, or None if an item is a
        list, tuple or dict."""
        texts = self._find(self._json, col)
        if texts is None:
            texts = self._json_texts(col)
            if texts is not None:
                self._keep(self._json, col, texts)
        return texts

    def _json_texts(self, col) -> list[str] | None:
        """The JSON texts of a non-empty column: a float or int column's are
        derived from its cells, a float's by _float_json (the cells
        themselves when all have a point and no exponent); a column of one
        other exact type is one map of its _JSON_LEAVES rule; any other goes
        item by item."""
        types = set(map(type, col))
        kind = next(iter(types)) if len(types) == 1 else None
        if kind is float:
            cells = self.cells(col)
            text = "".join(cells)
            if text.count(".") == len(cells) and "e" not in text:
                return cells
            # a JSON text depends on its cell alone: fix each other cell once
            fix = {g: _float_json(g) for g in set(cells) if "." not in g or "e" in g}
            return list(map(fix.get, cells, cells))
        if kind is int:
            try:
                return self.cells(col)
            except ValueError:  # above sys.get_int_max_str_digits()
                return list(map(_int_text, col))
        if kind is type(None):
            return ["null"] * len(col)
        if kind in _JSON_LEAVES:  # str, bool
            return list(map(_JSON_LEAVES[kind], col))
        if any(issubclass(t, (list, tuple, dict)) for t in types):
            return None
        return list(map(_leaf_text, col))

    def json(self, obj, pad: str = "\n") -> str:
        """obj as indented JSON with sorted keys, floats at 12 significant
        digits and the non-finite ones as the strings of _fmt; pad starts
        each line of obj's items.  An int too long for decimal text is the
        exact hex string "0x...", and any other object is its str.  A list
        of leaves, and a list of equally long lists or tuples of leaves, is
        written a column at a time."""
        leaf = _JSON_LEAVES.get(type(obj))
        if leaf is not None:
            return leaf(obj)
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            inner = pad + "  "
            items = self.leaves(obj) or self._table(obj, inner) \
                or [self.json(v, inner) for v in obj]
            return "[" + inner + ("," + inner).join(items) + pad + "]"
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            inner = pad + "  "
            get = _JSON_LEAVES.get
            items = [_json_key(k) + ": "
                     + (leaf(v) if (leaf := get(type(v))) else self.json(v, inner))
                     for k, v in sorted(obj.items())]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        return _leaf_text(obj)

    def _table(self, rows, pad: str) -> list[str] | None:
        """The JSON texts of rows, lists or tuples of one nonzero length
        whose items are leaves, rendered a column at a time; pad starts each
        row.  None for any other list."""
        if not set(map(type, rows)) <= {list, tuple} \
                or len(set(map(len, rows))) != 1 or not rows[0]:
            return None
        texts = []
        for col in zip(*rows):
            text = self.leaves(col)
            if text is None:
                return None
            texts.append(text)
        inner = pad + "  "
        sep, start, end = "," + inner, "[" + inner, pad + "]"
        return [start + row + end for row in map(sep.join, zip(*texts))]

    def csv(self, header: list[str], columns: list) -> str:
        """The CSV text of equally long columns under header."""
        texts = list(map(self.cells, columns))
        return "\n".join([",".join(header), *map(",".join, zip(*texts))]) + "\n"


def _json_key(key) -> str:
    """A dict key as JSON writes it: str as is; int, float, bool and None as
    their JSON text."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = json.dumps(key)
    return encode_basestring_ascii(key)


def _write_text(path: Path, text: str) -> None:
    """Write text to path as Path.write_text does (same encoding, newlines
    and mode of a new file), but in place: an existing file is overwritten
    and then cut at the end of the new text, never truncated to zero first:
    ext4 (unless mounted noauto_da_alloc) flushes a file rewritten after a
    truncate to zero when it is closed.  A write cut off midway can leave
    old bytes after the new ones.  A path that cannot be opened for writing
    (a directory, a missing parent) is a config error."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror}") from exc
    with open(fd, "w") as f:
        f.write(text)
        f.truncate()


def _write_json(path: Path, doc: dict, texts: _Texts) -> None:
    _write_text(path, texts.json(doc) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    """rows as CSV cells of _fmt under header; rows of one nonzero length are
    written a column at a time."""
    if len(set(map(len, rows))) == 1 and rows[0]:
        _write_text(path, _Texts().csv(header, list(zip(*rows))))
        return
    lines = [",".join(header)]
    lines += [",".join([_fmt(x) for x in row]) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_profile_csv(outdir: Path, key: str, rows: list, texts: _Texts) -> None:
    columns = list(zip(*rows)) or [()] * 6
    _write_text(outdir / f"profile_{key}.csv",
                texts.csv(["n", "M", "q", "log_z", "z_phi"],
                          [columns[i] for i in (0, 1, 2, 4, 5)]))


def _out_dir(cfg: RunConfig) -> Path:
    outdir = Path(cfg.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {cfg.out!r}: "
                          f"{exc.strerror}") from exc
    return outdir


# -- building blocks ---------------------------------------------------------------------


@dataclass
class _Bundle:
    system: TransitionSystem | None
    potential: Potential | None
    weights: object | None
    truncated_weights: FiniteTail | None
    label: str
    a_family: object | None = None
    profile_system: TransitionSystem | None = None
    profile_potential: Potential | None = None
    profile_note: str | None = None
    profile_skipped: str | None = None

    @cached_property
    def kernel(self) -> thermo.RenewalSeries:
        """The renewal series of the closed-form weights, read once per run."""
        return thermo.RenewalSeries(self.weights)


def _build_bundle(cfg: RunConfig) -> _Bundle:
    if cfg.preset is not None:
        try:
            build = build_preset(cfg.preset, truncate_len=cfg.truncate)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        except ValueError as exc:
            raise ConfigError(f"bad preset expression: {exc}") from exc
        bundle = _Bundle(build.system, build.potential, build.weights,
                         build.truncated_weights, cfg.preset, build.spec.a)
        bundle.profile_system = build.system
        bundle.profile_potential = build.potential
        if build.system is None and build.spec.truncate_len is not None \
                and build.spec.a.count(1) > 1:
            # profiles need a graph; families with parallel self-loops are
            # realized with a(1) capped at 1, which preserves every return
            # weight except the (collapsed anyway) length-1 aggregate
            from dataclasses import replace

            from .families import build_bouquet
            from .shift import LoopCountFamily
            fam = build.spec.a
            modified = LoopCountFamily(fam.form, fam.ratio, fam.values, a1=1)
            try:
                mod = build_bouquet(replace(build.spec, a=modified))
                bundle.profile_system = mod.system
                bundle.profile_potential = mod.potential
                bundle.profile_note = "profiles use the a(1)=1 modified family"
            except (ValueError, EnumerationRefusal) as exc:
                bundle.profile_skipped = f"the a(1)=1 modified family has no graph: {exc}"
        return bundle
    T = load_shift(cfg.shift)
    phi = load_potential(cfg.potential, T)
    a_family = T.a if isinstance(T, BouquetShift) else None
    bundle = _Bundle(T, phi, None, None, Path(cfg.shift).stem, a_family)
    bundle.profile_system = T
    bundle.profile_potential = phi
    return bundle


def _partition_sums(bundle: _Bundle, cfg: RunConfig) -> thermo.PartitionSums:
    N = cfg.horizon
    if isinstance(bundle.weights, UnknownTail):
        # tabulated weights without a continuation: run to the table edge
        known = len(bundle.weights.log_weights)
        if known < 5:
            raise ConfigError("the tabulated weight family is too short to fit")
        logw = families.log_weight_sequence(bundle.weights, min(N, known))
        return thermo.partition_sums_renewal(log_wstar=logw, N=min(N, known))
    if bundle.weights is not None:
        logw = families.log_weight_sequence(bundle.weights, N)
        return thermo.partition_sums_renewal(log_wstar=logw, N=N)
    T, phi = bundle.system, bundle.potential
    if isinstance(T, BouquetShift) and phi.loop_total is not None:
        logw = [families._aggregate_log_weight(T.a, phi.loop_total, n)
                if n <= T.truncate_len else LOG_ZERO for n in range(1, N + 1)]
        return thermo.partition_sums_renewal(log_wstar=logw, N=N)
    if T is not None:
        try:
            return thermo.partition_sums_transfer(T, phi, T.state_of_order(1), N)
        except ValueError as exc:  # a periodic word weighing +inf and -inf
            raise EnumerationRefusal(f"transfer sums: {exc}") from exc
    raise EnumerationRefusal("no computable partition-sum route for this input")


def _closed_form(bundle: _Bundle) -> bool:
    return isinstance(bundle.weights, (GeometricTail, PowerTail, FiniteTail))


def _pressure(bundle: _Bundle, cfg: RunConfig
              ) -> tuple[thermo.PartitionSums, thermo.PressureEstimate, float]:
    """Partition sums, their fitted pressure, and the pressure P that every
    verdict of a run is judged against: the analytic one when the family's
    return weights have a closed form, the fitted one otherwise.  A bouquet
    of truncation L given without weights, at a horizon N >= L, has all its
    first returns in Z*_1..Z*_L: they become its finite closed form."""
    ps = _partition_sums(bundle, cfg)
    pressure = thermo.pressure_estimate(ps)
    T = bundle.system
    if bundle.weights is None and isinstance(T, BouquetShift) \
            and cfg.horizon >= T.truncate_len and math.inf not in ps.log_zstar:
        bundle.weights = FiniteTail(tuple(ps.log_zstar[:T.truncate_len]))
    if not _closed_form(bundle):
        return ps, pressure, pressure.value
    return ps, pressure, _analytic_pressure(bundle)


def _analytic_pressure(bundle: _Bundle) -> float:
    """The closed-form pressure of a bundle's return weights; a root out of
    reach is a refusal."""
    try:
        return bundle.kernel.pressure
    except ValueError as exc:  # the root is out of reach
        raise EnumerationRefusal(f"analytic pressure: {exc}") from exc


def _spr(bundle: _Bundle, log_zstar: list[float], P: float) -> thermo.SprVerdict:
    """The SPR verdict on log_zstar against P; a finite tail's weights
    vanish past its table."""
    return thermo.spr_check(log_zstar, P, closed_form=_closed_form(bundle),
                            finite_support=isinstance(bundle.weights, FiniteTail))


def _diagnostics(bundle: _Bundle, cfg: RunConfig, ps: thermo.PartitionSums,
                 pressure: thermo.PressureEstimate, P: float) -> dict:
    out: dict = {
        "sequences": {
            "n": list(range(1, ps.horizon + 1)),
            "logZ": list(ps.log_z),
            "logZstar": list(ps.log_zstar),
            "method": ps.method,
        },
        "pressure": {"value": pressure.value,
                     "uncertainty": pressure.uncertainty,
                     "window": list(pressure.window)},
    }
    # closed-form families pin the pressure exactly; verdicts use that pin,
    # the fitted estimate stays in the report with its uncertainty
    if _closed_form(bundle):
        out["pressure"]["analytic"] = P
    spr = _spr(bundle, ps.log_zstar, P)
    out["spr"] = {"verdict": spr.verdict, "slope": spr.slope, "tol": spr.tol}
    if spr.reason:
        out["spr"]["reason"] = spr.reason
    if bundle.system is not None and bundle.potential is not None:
        chi = thermo.chi_per(bundle.system, bundle.potential, cfg.horizon)
        out["chi_per"] = {"value": chi.value, "period": chi.period}
        out["ucs"] = thermo.ucs_check(chi.value, P)
        try:
            crc = thermo.crc_profile(bundle.system, bundle.potential,
                                     min(cfg.q), cfg.horizon, P=P)
            out["crc"] = {"C_q": crc.C_q, "lambda_q": crc.lambda_q,
                          "q": crc.q, "verdict": crc.verdict}
        except (EnumerationRefusal, ValueError) as exc:
            out["crc"] = {"skipped": str(exc)}
    if _closed_form(bundle):
        try:
            ip = bundle.kernel.induced(0.0)
            rc = bundle.kernel.classify(P) if isinstance(bundle.weights, PowerTail) else None
        except ValueError as exc:  # a series out of reach
            raise EnumerationRefusal(f"renewal series: {exc}") from exc
        out["induced"] = {"value_at_0": ip.value, "pstar": ip.pstar,
                          "delta": ip.delta, "spr": ip.spr}
        if rc is not None:
            out["recurrence"] = {"class": rc.kind, "pressure": rc.pressure,
                                 "return_sum": rc.return_sum,
                                 "mean_return": rc.mean_return}
    if bundle.a_family is not None:
        try:
            out["h_top"] = htop_solve(bundle.a_family)
        except ValueError:
            pass
        out["hinf_oracle"] = bundle.a_family.growth_rate()
    return out


def _profiles(bundle: _Bundle, cfg: RunConfig, P: float) -> dict:
    out: dict = {}
    T, phi = bundle.profile_system, bundle.profile_potential
    if T is None:
        if bundle.profile_skipped:
            out["skipped"] = bundle.profile_skipped
        return out
    if bundle.profile_note:
        out["note"] = bundle.profile_note
    hp = None
    if phi is not None:
        # one weighted fill gives both profiles; when it fails, that failure
        # is the delta skip and the entropy profile is filled alone
        try:
            hp, dp = infinity.profile_pair(T, phi, cfg.q, cfg.M, cfg.horizon, P=P)
            out["delta"] = {
                "estimate": dp.estimate, "band": dp.band,
                "ci_verdict": dp.ci_verdict, "window": list(dp.window),
                "rows": [list(r) for r in dp.rows],
            }
        except (EnumerationRefusal, ValueError) as exc:
            out["delta"] = {"skipped": str(exc)}
    try:
        if hp is None:
            hp = infinity.hinf_profile(T, cfg.q, cfg.M, cfg.horizon)
        out["hinf"] = {
            "estimate": hp.estimate, "uncertainty": hp.uncertainty,
            "window": list(hp.window),
            "monotone_M_violations": hp.monotone_M_violations,
            "fits": {f"M={M},q={q}": hp.fits[(M, q)].slope
                     for M in cfg.M for q in cfg.q},
            "rows": [list(r) for r in hp.rows],
        }
    except (EnumerationRefusal, ValueError) as exc:
        out["hinf"] = {"skipped": str(exc)}
    return out


def run_report(cfg: RunConfig) -> dict:
    """Run the full diagnostics pipeline and (optionally) write report files."""
    cfg.validate()
    _check_horizon(cfg, "report")
    bundle = _build_bundle(cfg)
    ps, pressure, P = _pressure(bundle, cfg)
    report = _diagnostics(bundle, cfg, ps, pressure, P)
    report["profiles"] = _profiles(bundle, cfg, P)
    report["config"] = {
        "label": bundle.label, "horizon": cfg.horizon,
        "truncate": cfg.truncate, "M": cfg.M, "q": cfg.q,
    }
    report["horizons"] = {"N": cfg.horizon, "L": cfg.truncate}
    report["tolerances"] = {"spr_tol": report["spr"]["tol"]}
    report["summary"] = _summary(report)
    if cfg.out:
        outdir = _out_dir(cfg)
        # every file is built from one set of column texts: the sums and the
        # profile rows are the very lists report.json holds
        texts = _Texts()
        sums = {k: report["sequences"][k] for k in ("n", "logZ", "logZstar")}
        if cfg.format == "csv":
            _write_text(outdir / "sums.csv", texts.csv(list(sums), list(sums.values())))
        else:
            _write_json(outdir / "sums.json", sums, texts)
        for key in ("hinf", "delta"):
            prof = report["profiles"].get(key)
            if prof and "rows" in prof:
                _write_profile_csv(outdir, key, prof["rows"], texts)
        _write_json(outdir / "report.json", report, texts)
    return report


def _summary(report: dict) -> dict:
    s = {
        "pressure": report["pressure"]["value"],
        "spr": report["spr"]["verdict"],
    }
    if "chi_per" in report:
        s["chi_per"] = report["chi_per"]["value"]
        s["ucs"] = report.get("ucs")
    if "crc" in report and "lambda_q" in report.get("crc", {}):
        s["crc_lambda"] = report["crc"]["lambda_q"]
    if "recurrence" in report:
        s["class"] = report["recurrence"]["class"]
    if "h_top" in report:
        s["h_top"] = report["h_top"]
    prof = report.get("profiles", {})
    if "hinf" in prof and "estimate" in prof["hinf"]:
        s["hinf"] = prof["hinf"]["estimate"]
    if "delta" in prof and "estimate" in prof["delta"]:
        s["delta"] = prof["delta"]["estimate"]
        if isinstance(s.get("hinf"), float) and isinstance(s["delta"], float):
            s["delta_plus_hinf"] = s["delta"] + s["hinf"]
    return s


# -- argument parsing --------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _add_common(p: argparse.ArgumentParser) -> None:
    # absent flags stay unset (SUPPRESS): RunConfig's fields are the defaults
    p.add_argument("--preset", help="named family, e.g. sec52-entry or sec53(beta=3,C=auto)")
    p.add_argument("--shift", help="path to a shift-spec JSON file")
    p.add_argument("--potential", help="path to a potential-spec JSON file")
    p.add_argument("--horizon", type=int)
    p.add_argument("--truncate", type=int)
    p.add_argument("--M", type=_int_list)
    p.add_argument("--q", type=_int_list)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--log2", action="store_true",
                   help="display summary values in base-2 logarithm units")
    p.add_argument("--config", help="JSON file with the flags' keys; flags override it")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    doc = {}
    if "config" in args:
        try:
            doc = json.loads(Path(args.config).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file {args.config} does not exist") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {Path(args.config)}: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:  # a directory, "", binary bytes
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
    cfg = RunConfig.from_dict(dict(doc, **flags) if isinstance(doc, dict) else doc)
    _check_horizon(cfg, args.command)
    return cfg


def _display(value, log2: bool):
    if isinstance(value, float) and math.isfinite(value) and log2:
        return value / math.log(2.0)
    return value


def _print_summary(report: dict, log2: bool) -> None:
    for key, value in sorted(report["summary"].items()):
        print(f"{key}: {_fmt(_display(value, log2))}")


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cmshift",
        description="countable Markov shift diagnostics: partition sums, "
                    "pressure, recurrence classification, boundary profiles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, hlp in (("report", "full diagnostics pipeline"),
                      ("oracle", "brute-force vs DP agreement table"),
                      ("pressure", "pressure estimate only"),
                      ("hinf", "entropy-at-infinity profile"),
                      ("spr", "strong-positive-recurrence check"),
                      ("presets", "list named families")):
        p = sub.add_parser(name, help=hlp, argument_default=argparse.SUPPRESS)
        if name != "presets":
            _add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "presets":
        for name in preset_names():
            print(f"{name}: {families.PRESETS[name].describe}")
        return EXIT_OK
    cfg = _config_from_args(args)
    if args.command == "report":
        report = run_report(cfg)
        _print_summary(report, cfg.log2)
        return EXIT_OK
    if args.command == "oracle":
        # the enumerations load only here
        from .oracle import _ORACLE_HORIZON_CAP, compare_oracle
        rows, ok = compare_oracle(cfg)
        if cfg.horizon > _ORACLE_HORIZON_CAP:
            print(f"note: oracle compares n <= _ORACLE_HORIZON_CAP = "
                  f"{_ORACLE_HORIZON_CAP}; --horizon {cfg.horizon} was clipped",
                  file=sys.stderr)
        if cfg.out:
            _write_csv(_out_dir(cfg) / "oracle.csv",
                       ["quantity", "n", "enumerated", "dp", "rel_err", "status"],
                       rows)
        worst = max((r[4] for r in rows if math.isfinite(r[4])), default=0.0)
        print(f"rows: {len(rows)}  worst relative error: {_fmt(worst)}")
        if not ok:
            raise InvariantBreach("enumerative and DP paths disagree")
        print("all rows pass")
        return EXIT_OK
    if args.command == "pressure":
        # the fit alone: the analytic root is not printed, so it is not solved
        est = thermo.pressure_estimate(_partition_sums(_build_bundle(cfg), cfg))
        print(f"pressure: {_fmt(_display(est.value, cfg.log2))} "
              f"± {_fmt(est.uncertainty)} (window {est.window})")
        return EXIT_OK
    if args.command == "hinf":
        bundle = _build_bundle(cfg)
        if bundle.profile_system is None:
            raise ConfigError(bundle.profile_skipped
                              or "profiles need a graph realization (set --truncate)")
        hp = infinity.hinf_profile(bundle.profile_system, cfg.q, cfg.M, cfg.horizon)
        if cfg.out:
            _write_profile_csv(_out_dir(cfg), "hinf", hp.rows, _Texts())
        print(f"hinf estimate: {_fmt(_display(hp.estimate, cfg.log2))} "
              f"± {_fmt(hp.uncertainty)}")
        if bundle.a_family is not None:
            oracle = bundle.a_family.growth_rate()
            print(f"growth oracle: {_fmt(_display(oracle, cfg.log2))}")
        return EXIT_OK
    if args.command == "spr":
        bundle = _build_bundle(cfg)
        if _closed_form(bundle):
            # SPR compares Z*_n with P alone: a closed form gives both, so
            # neither the renewal table of Z_n nor its fit is needed
            log_zstar = families.log_weight_sequence(bundle.weights, cfg.horizon)
            P = _analytic_pressure(bundle)
        else:
            ps, _, P = _pressure(bundle, cfg)
            log_zstar = ps.log_zstar
        verdict = _spr(bundle, log_zstar, P)
        print(f"spr: {verdict.verdict} (slope {_fmt(verdict.slope)}, "
              f"pressure {_fmt(P)}, tol {_fmt(verdict.tol)})"
              + (f": {verdict.reason}" if verdict.reason else ""))
        return EXIT_OK
    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
