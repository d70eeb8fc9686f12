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
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import families, infinity, thermo
from .families import (FiniteTail, GeometricTail, PowerTail, UnknownTail,
                       build_preset, htop_solve, preset_names)
from .shift import BlockGraphs, BouquetShift, EnumerationRefusal
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


# the JSON text of a leaf, by its exact type; a report holds no other leaf
_JSON_LEAVES = {
    float: _float_text, int: _int_text, str: encode_basestring_ascii,
    bool: lambda b: "true" if b else "false", type(None): lambda _: "null",
}


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
        """The JSON texts of a non-empty column, or None unless its items
        are of one exact leaf type."""
        texts = self._find(self._json, col)
        if texts is None:
            texts = self._json_texts(col)
            if texts is not None:
                self._keep(self._json, col, texts)
        return texts

    def _json_texts(self, col) -> list[str] | None:
        """The JSON texts of a non-empty column: a float or int column's are
        derived from its cells, a float's by _float_json (the cells
        themselves when all have a point and no exponent); a str or bool
        column's are one map of its _JSON_LEAVES rule.  None for any other
        column, whose items json writes one at a time."""
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
        return None

    def json(self, obj, pad: str = "\n") -> str:
        """obj as indented JSON with sorted keys, floats at 12 significant
        digits and the non-finite ones as the strings of _fmt; pad starts
        each line of obj's items.  An int too long for decimal text is the
        exact hex string "0x...".  Keys must be str and leaves of an exact
        type in _JSON_LEAVES; any other raises TypeError, as json.dumps
        does.  A list of leaves of one type, and a list of equally long
        lists or tuples of such columns, is written a column at a time."""
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
            items = [encode_basestring_ascii(k) + ": "
                     + (leaf(v) if (leaf := get(type(v))) else self.json(v, inner))
                     for k, v in sorted(obj.items())]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

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


def _write_out(cfg: RunConfig, texts: dict[str, str]) -> None:
    """Write each text to the file of its name in the directory cfg.out,
    made if missing.  Every file is opened before any is written, so a name
    that cannot be opened (a directory, say) is a config error that leaves
    no file of the run behind: the files it created are removed, and the
    ones that existed keep their bytes.  A file gets the bytes and a new
    file the mode that Path.write_text gives it: each text is encoded in the
    locale's encoding, strictly, with each newline written as os.linesep,
    before any file is opened.  The bytes go to the file's descriptor with
    os.write, again after a short write, and os.ftruncate then cuts the
    file at their length.  So a file is written in place, never truncated
    to zero first: ext4 (unless mounted noauto_da_alloc) flushes a file
    rewritten after a truncate to zero when it is closed.  A write cut off
    midway can leave old bytes after the new ones; it is a runtime failure,
    not a config error."""
    import locale  # loaded only by a run that writes files
    encoding = locale.getpreferredencoding(False)
    data = [text.replace("\n", os.linesep).encode(encoding) for text in texts.values()]
    outdir = Path(cfg.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {cfg.out!r}: "
                          f"{exc.strerror}") from exc
    fds, created = [], []
    try:
        try:
            for name in texts:
                path = outdir / name
                try:
                    fds.append(os.open(path, os.O_WRONLY))
                except FileNotFoundError:
                    fds.append(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                    created.append(path)
        except OSError as exc:
            for made in created:
                made.unlink()
            raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror}") from exc
        for fd, raw in zip(fds, data):
            view = memoryview(raw)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(raw))
    finally:
        for fd in fds:
            os.close(fd)


def _profile_csv(table: list, texts: _Texts) -> str:
    """The CSV of a profile's table (InfinityProfile.table)."""
    return texts.csv(["n", "M", "q", "log_z", "z_phi"], [table[i] for i in (0, 1, 2, 4, 5)])


# -- the run -------------------------------------------------------------------------------


class _Run:
    """One run of a config: its system, potential and family return weights,
    and the stages read from them, each computed on first use and then kept.

    The stages are the block graphs of the system (which also keep a
    bouquet's best loop sums), the partition sums, their fitted pressure,
    the closed-form return weights, log Z*_n, the pressure P that every
    verdict is judged against, the SPR verdict and the profile graphs (the
    block graphs the profiles read: the run's own, or fresh ones of the
    a(1)=1 modified family), so every DP of a run reads its graph from one
    of the two.  A
    bouquet's family weights are its closed form: a preset's, else, for a
    bouquet with loop totals (a preset without a closed form, or a spec),
    its first returns Z*_1..Z*_L at every N.  A subcommand reads only the
    stages it prints: `pressure` the fit, `spr` log Z*_n and P (the sums
    only without family weights), `hinf` the profile graphs, `report` every
    stage."""

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        if cfg.preset is None:
            T = load_shift(cfg.shift)
            self.system, self.potential = T, load_potential(cfg.potential, T)
            tau = self.potential.loop_total  # a bouquet's loop totals give its Z*_n
            self.family_weights = self.truncated_weights = None if tau is None else \
                families.truncated_return_weights(T.a, tau, T.truncate_len)
            self.label, self.spec = Path(cfg.shift).stem, None
            self.a_family = T.a if isinstance(T, BouquetShift) else None
            return
        try:
            build = build_preset(cfg.preset, truncate_len=cfg.truncate)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        except ValueError as exc:
            raise ConfigError(f"bad preset expression: {exc}") from exc
        self.system, self.potential = build.system, build.potential
        self.truncated_weights = build.truncated_weights
        self.family_weights = build.truncated_weights if build.weights is None else build.weights
        self.spec, self.label, self.a_family = build.spec, cfg.preset, build.spec.a

    @cached_property
    def graphs(self) -> BlockGraphs | None:
        """The block graphs of the system and their successor lists
        weighted by its potential, each listed and weighed on first use,
        once per block length, for every state DP of the run: the transfer
        sums, chi_per, crc's state DP and, through profile_graph, the
        profile sweep; on a bouquet with loop totals, also the best loop
        sums that crc and the delta fill at q = 1 read.  None without a
        system."""
        T = self.system
        return None if T is None else BlockGraphs(T, self.potential)

    @cached_property
    def sums(self) -> thermo.PartitionSums:
        """log Z_n and log Z*_n: the renewal over the family's return weights
        (to the end of a table without a continuation), else the transfer
        DP."""
        N, w, T = self.cfg.horizon, self.family_weights, self.system
        if isinstance(w, UnknownTail):
            if len(w.log_weights) < 5:
                raise ConfigError("the tabulated weight family is too short to fit")
            N = min(N, len(w.log_weights))
            logw = families.log_weight_sequence(w, N)
        elif w is not None:
            logw = self.log_zstar
        elif T is not None:
            try:
                return thermo.partition_sums_transfer(T, self.potential, T.state_of_order(1), N,
                                                      self.graphs)
            except ValueError as exc:  # a periodic word weighing +inf and -inf
                raise EnumerationRefusal(f"transfer sums: {exc}") from exc
        else:
            raise EnumerationRefusal("no computable partition-sum route for this input")
        return thermo.partition_sums_renewal(log_wstar=logw, N=N)

    @cached_property
    def fit(self) -> thermo.PressureEstimate:
        sums = self.sums
        try:
            return thermo.pressure_estimate(sums)
        except ValueError as exc:  # Z_n > 0 at one length n only
            raise ConfigError(f"the pressure fit: {exc}; pass a --horizon "
                              f"longer than {self.cfg.horizon}") from exc

    @cached_property
    def weights(self) -> GeometricTail | PowerTail | FiniteTail | None:
        """The closed-form return weights, or None: the family's, or for a
        bouquet of truncation L given without weights, at a horizon N >= L,
        its first returns Z*_1..Z*_L, which are all of them.  First returns
        that weigh +inf have no root: P is then the fit."""
        w, T = self.family_weights, self.system
        if w is None and isinstance(T, BouquetShift) and self.cfg.horizon >= T.truncate_len:
            w = FiniteTail(tuple(self.sums.log_zstar[:T.truncate_len]))
        return None if isinstance(w, UnknownTail) or (
            isinstance(w, FiniteTail) and math.inf in w.log_weights) else w

    @cached_property
    def log_zstar(self) -> list[float]:
        """log Z*_1..Z*_N: a family's closed form gives them without the sums."""
        w = self.family_weights
        if w is None or isinstance(w, UnknownTail):
            return self.sums.log_zstar
        return families.log_weight_sequence(w, self.cfg.horizon)

    @cached_property
    def kernel(self) -> thermo.RenewalSeries:
        """The renewal series of the closed-form weights, read once per run."""
        return thermo.RenewalSeries(self.weights)

    @cached_property
    def P(self) -> float:
        """The pressure every verdict is judged against: the root of the
        closed-form weights, else the fitted one; a root out of reach is a
        refusal."""
        if self.weights is None:
            return self.fit.value
        try:
            return self.kernel.pressure
        except ValueError as exc:  # the root is out of reach
            raise EnumerationRefusal(f"analytic pressure: {exc}") from exc

    @cached_property
    def spr(self) -> thermo.SprVerdict:
        """The SPR verdict on log Z*_n against P.  A finite tail's weights
        vanish past its table, and so do a tabulated family's, as far as the
        tool knows them; any other input without closed-form weights is a
        finite graph, which is SPR."""
        if isinstance(self.family_weights, UnknownTail):
            return thermo.spr_check(self.log_zstar, self.P, finite_support=True,
                                    reason="only the tabulated returns are known")
        w = self.weights
        return thermo.spr_check(self.log_zstar, self.P, finite_support=isinstance(w, FiniteTail),
                                reason="finite graph" if w is None else None)

    @cached_property
    def profile_graph(self) -> tuple[BlockGraphs | None, str | None]:
        """The block graphs the boundary profiles are filled on, of a system
        and its potential, and a note on them: the run's own graphs when it
        has a system.  A truncated family with parallel self-loops has no
        graph of its own; its a(1)=1 modified family's keeps every return
        weight but the (collapsed anyway) length-1 aggregate, and gets block
        graphs of its own.  Without a graph the note says why, where that
        is known."""
        spec = self.spec
        if self.system is not None or spec is None or spec.truncate_len is None \
                or spec.a.count(1) <= 1:
            return self.graphs, None
        try:
            mod = families.build_bouquet(replace(spec, a=replace(spec.a, a1=1)))
        except (ValueError, EnumerationRefusal) as exc:
            return None, f"the a(1)=1 modified family has no graph: {exc}"
        return BlockGraphs(mod.system, mod.potential), "profiles use the a(1)=1 modified family"


def _diagnostics(run: _Run) -> dict:
    cfg, ps, pressure, P = run.cfg, run.sums, run.fit, run.P
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
    if run.weights is not None:
        out["pressure"]["analytic"] = P
    spr = run.spr
    out["spr"] = {"verdict": spr.verdict, "slope": spr.slope, "tol": spr.tol}
    if spr.reason:
        out["spr"]["reason"] = spr.reason
    T, phi = run.system, run.potential
    if T is not None:
        chi = thermo.chi_per(T, phi, cfg.horizon, run.graphs)
        out["chi_per"] = {"value": chi.value, "period": chi.period}
        out["ucs"] = thermo.ucs_check(chi.value, P)
        try:
            crc = thermo.crc_profile(T, phi, min(cfg.q), cfg.horizon, P=P, graphs=run.graphs)
            out["crc"] = {"C_q": crc.C_q, "lambda_q": crc.lambda_q,
                          "q": crc.q, "verdict": crc.verdict}
        except (EnumerationRefusal, ValueError) as exc:
            out["crc"] = {"skipped": str(exc)}
    if run.weights is not None:
        try:
            ip = run.kernel.induced(0.0)
            rc = run.kernel.classify(P) if isinstance(run.weights, PowerTail) else None
        except ValueError as exc:  # a series out of reach
            raise EnumerationRefusal(f"renewal series: {exc}") from exc
        out["induced"] = {"value_at_0": ip.value, "pstar": ip.pstar,
                          "delta": ip.delta, "spr": ip.spr}
        if rc is not None:
            out["recurrence"] = {"class": rc.kind, "pressure": rc.pressure,
                                 "return_sum": rc.return_sum,
                                 "mean_return": rc.mean_return}
    if run.a_family is not None:
        try:
            out["h_top"] = htop_solve(run.a_family)
        except ValueError:
            pass
        out["hinf_oracle"] = run.a_family.growth_rate()
    return out


def _profiles(run: _Run) -> tuple[dict, dict]:
    """The profiles section of a report, and the table of each profile in
    it (InfinityProfile.table), whose rows it holds."""
    cfg = run.cfg
    graphs, note = run.profile_graph
    if graphs is None:
        return {"skipped": note} if note else {}, {}
    T, phi = graphs.system, graphs.potential
    out: dict = {"note": note} if note else {}
    tables = {}
    # one weighted fill gives both profiles; when it fails, that failure is
    # the delta skip and the entropy profile is filled alone
    hp = None
    try:
        hp, dp = infinity.profile_pair(T, phi, cfg.q, cfg.M, cfg.horizon, P=run.P, graphs=graphs)
        tables["delta"] = dp.table
        out["delta"] = {
            "estimate": dp.estimate, "band": dp.band,
            "ci_verdict": dp.ci_verdict, "window": list(dp.window),
            "rows": list(map(list, zip(*tables["delta"]))),
        }
    except (EnumerationRefusal, ValueError) as exc:
        out["delta"] = {"skipped": str(exc)}
    try:
        if hp is None:
            hp = infinity.hinf_profile(T, cfg.q, cfg.M, cfg.horizon, graphs)
        tables["hinf"] = hp.table
        out["hinf"] = {
            "estimate": hp.estimate, "uncertainty": hp.uncertainty,
            "window": list(hp.window),
            "monotone_M_violations": hp.monotone_M_violations,
            "fits": {f"M={M},q={q}": hp.fits[(M, q)].slope
                     for M in cfg.M for q in cfg.q},
            "rows": list(map(list, zip(*tables["hinf"]))),
        }
    except (EnumerationRefusal, ValueError) as exc:
        out["hinf"] = {"skipped": str(exc)}
    return out, tables


def run_report(cfg: RunConfig) -> dict:
    """Run the full diagnostics pipeline and (optionally) write report files."""
    cfg.validate()
    _check_horizon(cfg, "report")
    run = _Run(cfg)
    report = _diagnostics(run)
    report["profiles"], tables = _profiles(run)
    report["config"] = {
        "label": run.label, "horizon": cfg.horizon,
        "truncate": cfg.truncate, "M": cfg.M, "q": cfg.q,
    }
    # the files need no stage of the run, and its loop table and block
    # graphs would stay alive beside the texts they render
    del run
    report["horizons"] = {"N": cfg.horizon, "L": cfg.truncate}
    report["tolerances"] = {"spr_tol": report["spr"]["tol"]}
    report["summary"] = _summary(report)
    if cfg.out:
        # every file is built from one set of column texts: the sums are the
        # very lists report.json holds, and the profile rows hold the very
        # items of the profile tables
        texts = _Texts()
        sums = {k: report["sequences"][k] for k in ("n", "logZ", "logZstar")}
        files = {"sums.csv": texts.csv(list(sums), list(sums.values()))} \
            if cfg.format == "csv" else {"sums.json": texts.json(sums) + "\n"}
        for key in ("hinf", "delta"):
            if key in tables:
                files[f"profile_{key}.csv"] = _profile_csv(tables[key], texts)
        files["report.json"] = texts.json(report) + "\n"
        _write_out(cfg, files)
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


def _emit(line: str) -> None:
    """Print one line to stdout.  A reader that has closed stdout does not
    end the run: stdout then points at os.devnull, and the run returns the
    code it would have returned with stdout open."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_summary(report: dict, log2: bool) -> None:
    for key, value in sorted(report["summary"].items()):
        _emit(f"{key}: {_fmt(_display(value, log2))}")


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
            _emit(f"{name}: {families.PRESETS[name].describe}")
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
            header = ["quantity", "n", "enumerated", "dp", "rel_err", "status"]
            _write_out(cfg, {"oracle.csv": _Texts().csv(header, list(zip(*rows)))})
        worst = max((r[4] for r in rows if math.isfinite(r[4])), default=0.0)
        _emit(f"rows: {len(rows)}  worst relative error: {_fmt(worst)}")
        if not ok:
            raise InvariantBreach("enumerative and DP paths disagree")
        _emit("all rows pass")
        return EXIT_OK
    if args.command == "pressure":
        # the fit alone: the analytic root is not printed, so it is not solved
        est = _Run(cfg).fit
        _emit(f"pressure: {_fmt(_display(est.value, cfg.log2))} "
              f"± {_fmt(est.uncertainty)} (window {est.window})")
        return EXIT_OK
    if args.command == "hinf":
        run = _Run(cfg)
        graphs, note = run.profile_graph
        if graphs is None:
            raise ConfigError(note or "profiles need a graph realization (set --truncate)")
        hp = infinity.hinf_profile(graphs.system, cfg.q, cfg.M, cfg.horizon, graphs)
        if cfg.out:
            _write_out(cfg, {"profile_hinf.csv": _profile_csv(hp.table, _Texts())})
        _emit(f"hinf estimate: {_fmt(_display(hp.estimate, cfg.log2))} "
              f"± {_fmt(hp.uncertainty)}")
        if run.a_family is not None:
            oracle = run.a_family.growth_rate()
            _emit(f"growth oracle: {_fmt(_display(oracle, cfg.log2))}")
        return EXIT_OK
    if args.command == "spr":
        # SPR compares Z*_n with P alone: the stages compute nothing else
        run = _Run(cfg)
        verdict = run.spr
        _emit(f"spr: {verdict.verdict} (slope {_fmt(verdict.slope)}, "
              f"pressure {_fmt(run.P)}, tol {_fmt(verdict.tol)})"
              + (f": {verdict.reason}" if verdict.reason else ""))
        return EXIT_OK
    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
