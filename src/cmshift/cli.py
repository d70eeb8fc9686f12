"""Batch front-end: ingest shift/potential specs, run diagnostics pipelines,
emit CSV/JSON reports and oracle-comparison tables.

Exit codes: 0 success, 2 config error, 3 computation refusal (an enumeration
needed a truncation or exceeded its cap), 4 internal invariant breach.
Reports are byte-stable for a fixed config: deterministic orderings, floats
at 12 significant digits, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import families, infinity, thermo
from .families import (BouquetRealizationError, FiniteTail, GeometricTail,
                       PowerTail, UnknownTail, build_preset, htop_solve,
                       preset_names)
from .numerics import LOG_ZERO
from .potential import Potential
from .shift import (ROOT, BouquetShift, EnumerationRefusal, FiniteShift,
                    TransitionSystem)
from .specio import ConfigError, load_potential, load_shift

__all__ = ["RunConfig", "run_report", "compare_oracle", "main"]

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
    "tol": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
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
    tol: float = 1e-9
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
        if not self.tol > 0:
            raise ConfigError("tol must be positive")
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


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "-inf"
        return f"{x:.12g}"
    return str(x)


def _json_ready(obj):
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.12g}")
        return _fmt(obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return str(obj)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(_json_ready(doc), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


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
            except (ValueError, EnumerationRefusal, BouquetRealizationError) as exc:
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
    if bundle.truncated_weights is not None:
        logw = families.log_weight_sequence(bundle.truncated_weights, N)
        return thermo.partition_sums_renewal(log_wstar=logw, N=N)
    if isinstance(bundle.system, FiniteShift):
        base = bundle.system.state_of_order(1)
        return thermo.partition_sums_transfer(bundle.system, bundle.potential,
                                              base, N)
    if isinstance(bundle.system, BouquetShift):
        phi = bundle.potential
        if phi is not None and phi.loop_total is not None:
            logw = [families._aggregate_log_weight(bundle.system.a, phi.loop_total, n)
                    if n <= bundle.system.truncate_len else LOG_ZERO
                    for n in range(1, N + 1)]
            return thermo.partition_sums_renewal(log_wstar=logw, N=N)
        return thermo.partition_sums_bruteforce(bundle.system, bundle.potential,
                                                ROOT, min(N, 14))
    raise EnumerationRefusal("no computable partition-sum route for this input")


def _closed_form(bundle: _Bundle) -> bool:
    return isinstance(bundle.weights, (GeometricTail, PowerTail, FiniteTail))


def _pressure(bundle: _Bundle, cfg: RunConfig
              ) -> tuple[thermo.PartitionSums, thermo.PressureEstimate, float]:
    """Partition sums, their fitted pressure, and the pressure P that every
    verdict of a run is judged against: the analytic one when the family's
    return weights have a closed form, the fitted one otherwise."""
    ps = _partition_sums(bundle, cfg)
    pressure = thermo.pressure_estimate(ps)
    if _closed_form(bundle):
        return ps, pressure, thermo.analytic_pressure(bundle.weights)
    return ps, pressure, pressure.value


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
    spr = thermo.spr_check(ps.log_zstar, P if math.isfinite(P) else 0.0,
                           closed_form=_closed_form(bundle))
    out["spr"] = {"verdict": spr.verdict, "slope": spr.slope, "tol": spr.tol}
    if bundle.system is not None and bundle.potential is not None:
        chi = thermo.chi_per(bundle.system, bundle.potential, cfg.horizon)
        out["chi_per"] = {"value": chi.value, "period": chi.period}
        out["ucs"] = thermo.ucs_check(chi.value, P)
        try:
            crc = thermo.crc_profile(bundle.system, bundle.potential,
                                     min(cfg.q), cfg.horizon, P=P)
            out["crc"] = {"C_q": crc.C_q, "lambda_q": crc.lambda_q,
                          "q": crc.q, "verdict": crc.verdict}
        except EnumerationRefusal as exc:
            out["crc"] = {"skipped": str(exc)}
    if bundle.weights is not None and not isinstance(bundle.weights, UnknownTail):
        ip = thermo.induced_pressure(bundle.weights, 0.0)
        out["induced"] = {"value_at_0": ip.value, "pstar": ip.pstar,
                          "delta": ip.delta, "spr": ip.spr}
        if isinstance(bundle.weights, PowerTail):
            rc = thermo.recurrence_classify(bundle.weights)
            out["recurrence"] = {"class": rc.kind, "pressure": rc.pressure,
                                 "return_sum": rc.return_sum,
                                 "mean_return": rc.mean_return}
    if bundle.a_family is not None:
        try:
            out["h_top"] = htop_solve(bundle.a_family)
        except ValueError:
            pass
        out["hinf_oracle"] = infinity.bouquet_hinf_oracle(bundle.a_family)
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
    P = P if math.isfinite(P) else 0.0
    hp = dp = None
    if phi is not None:
        try:
            hp, dp = infinity.profile_pair(T, phi, cfg.q, cfg.M, cfg.horizon, P=P)
        except (EnumerationRefusal, ValueError):
            pass  # each profile is retried alone and records its own failure
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
    if phi is not None:
        try:
            if dp is None:
                dp = infinity.delta_profile(T, phi, cfg.q, cfg.M, cfg.horizon, P=P)
            out["delta"] = {
                "estimate": dp.estimate, "band": dp.band,
                "ci_verdict": dp.ci_verdict, "window": list(dp.window),
                "rows": [list(r) for r in dp.rows],
            }
        except (EnumerationRefusal, ValueError) as exc:
            out["delta"] = {"skipped": str(exc)}
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
        "truncate": cfg.truncate, "M": cfg.M, "q": cfg.q, "tol": cfg.tol,
    }
    report["horizons"] = {"N": cfg.horizon, "L": cfg.truncate}
    report["tolerances"] = {"tol": cfg.tol, "spr_tol": report["spr"]["tol"]}
    report["summary"] = _summary(report)
    if cfg.out:
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        seq = report["sequences"]
        rows = list(zip(seq["n"], seq["logZ"], seq["logZstar"]))
        if cfg.format == "csv":
            _write_csv(outdir / "sums.csv", ["n", "logZ", "logZstar"], rows)
        else:
            _write_json(outdir / "sums.json",
                        {"n": seq["n"], "logZ": seq["logZ"],
                         "logZstar": seq["logZstar"]})
        for key in ("hinf", "delta"):
            prof = report["profiles"].get(key)
            if prof and "rows" in prof:
                _write_csv(outdir / f"profile_{key}.csv",
                           ["n", "M", "q", "log_z", "z_phi"],
                           [(r[0], r[1], r[2], r[4], r[5]) for r in prof["rows"]])
        _write_json(outdir / "report.json", report)
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


# -- oracle comparison ----------------------------------------------------------------------

_ORACLE_TRUNCATE_CAP = 6
_ORACLE_HORIZON_CAP = 12


def compare_oracle(cfg: RunConfig) -> tuple[list[tuple], bool]:
    """Per-quantity agreement table between enumerative and DP paths.

    Compares brute-force Z_n, Z*_n against the renewal DP over the truncated
    return weights, and brute-force boundary-cylinder counts against the
    composition/state DP, for n up to min(horizon, 12).  Counts must agree
    exactly; weighted sums to 1e-12 relative in log space.
    """
    cfg.validate()
    if cfg.truncate is None or cfg.truncate > _ORACLE_TRUNCATE_CAP:
        raise EnumerationRefusal(
            f"oracle comparisons need --truncate <= {_ORACLE_TRUNCATE_CAP} "
            "(brute force is exponential)")
    bundle = _build_bundle(cfg)
    T, phi = bundle.system, bundle.potential
    if not isinstance(T, BouquetShift) or phi is None:
        raise ConfigError("oracle comparisons run on bouquet presets/specs")
    N = min(cfg.horizon, _ORACLE_HORIZON_CAP)
    rows: list[tuple] = []
    ok = True
    brute = thermo.partition_sums_bruteforce(T, phi, ROOT, N)
    logw = families.log_weight_sequence(bundle.truncated_weights, N) \
        if bundle.truncated_weights is not None else None
    if logw is None:
        raise ConfigError("no truncated return weights available for the DP side")
    dp = thermo.partition_sums_renewal(log_wstar=logw, N=N)
    for n in range(1, N + 1):
        for name, b, d in (("logZ", brute.logz(n), dp.logz(n)),
                           ("logZstar", brute.logzstar(n), dp.logzstar(n))):
            err = _rel_err(b, d)
            passed = err <= 1e-12
            ok &= passed
            rows.append((name, n, b, d, err, "pass" if passed else "FAIL"))
    for q in cfg.q:
        for M in cfg.M:
            for n in range(1, N + 1):
                bf = infinity.count_B_bruteforce(T, phi, n, M, q)
                fast = infinity.count_B(T, phi, n, M, q)
                passed = bf.count == fast.count
                zerr = _rel_err(bf.z_phi, fast.z_phi)
                passed = passed and zerr <= 1e-12
                ok &= passed
                rows.append((f"z_n(M={M},q={q})", n, bf.count, fast.count,
                             zerr, "pass" if passed else "FAIL"))
    return rows, ok


def _rel_err(a, b) -> float:
    if a is None and b is None:
        return 0.0
    if a is None or b is None:
        return math.inf
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return 0.0 if a == b else math.inf
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) / scale


# -- argument parsing --------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="named family, e.g. sec52-entry or sec53(beta=3,C=auto)")
    p.add_argument("--shift", help="path to a shift-spec JSON file")
    p.add_argument("--potential", help="path to a potential-spec JSON file")
    p.add_argument("--horizon", type=int, default=40)
    p.add_argument("--truncate", type=int, default=None)
    p.add_argument("--M", type=_int_list, default=[2, 4, 8])
    p.add_argument("--q", type=_int_list, default=[1])
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--log2", action="store_true",
                   help="display summary values in base-2 logarithm units")
    p.add_argument("--config", default=None,
                   help="JSON file with the same keys as the flags")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {args.config} does not exist")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        cfg = RunConfig.from_dict(doc)
    else:
        cfg = RunConfig(preset=args.preset, shift=args.shift,
                        potential=args.potential, horizon=args.horizon,
                        truncate=args.truncate, M=args.M, q=args.q, tol=args.tol,
                        out=args.out, format=args.format, log2=args.log2)
        cfg.validate()
    _check_horizon(cfg, args.command)
    return cfg


def _display(value, log2: bool):
    if isinstance(value, float) and math.isfinite(value) and log2:
        return value / math.log(2.0)
    return value


def _print_summary(report: dict, log2: bool) -> None:
    for key, value in sorted(report["summary"].items()):
        print(f"{key}: {_fmt(_display(value, log2))}")


def main(argv: list[str] | None = None) -> int:
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
        p = sub.add_parser(name, help=hlp)
        if name != "presets":
            _add_common(p)
    args = parser.parse_args(argv)
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
        rows, ok = compare_oracle(cfg)
        if cfg.out:
            outdir = Path(cfg.out)
            outdir.mkdir(parents=True, exist_ok=True)
            _write_csv(outdir / "oracle.csv",
                       ["quantity", "n", "enumerated", "dp", "rel_err", "status"],
                       rows)
        worst = max((r[4] for r in rows if math.isfinite(r[4])), default=0.0)
        print(f"rows: {len(rows)}  worst relative error: {_fmt(worst)}")
        if not ok:
            raise InvariantBreach("enumerative and DP paths disagree")
        print("all rows pass")
        return EXIT_OK
    if args.command == "pressure":
        _, est, _ = _pressure(_build_bundle(cfg), cfg)
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
            outdir = Path(cfg.out)
            outdir.mkdir(parents=True, exist_ok=True)
            _write_csv(outdir / "profile_hinf.csv",
                       ["n", "M", "q", "log_z", "z_phi"],
                       [(r[0], r[1], r[2], r[4], r[5]) for r in hp.rows])
        print(f"hinf estimate: {_fmt(_display(hp.estimate, cfg.log2))} "
              f"± {_fmt(hp.uncertainty)}")
        if bundle.a_family is not None:
            oracle = infinity.bouquet_hinf_oracle(bundle.a_family)
            print(f"growth oracle: {_fmt(_display(oracle, cfg.log2))}")
        return EXIT_OK
    if args.command == "spr":
        bundle = _build_bundle(cfg)
        ps, _, P = _pressure(bundle, cfg)
        verdict = thermo.spr_check(ps.log_zstar, P if math.isfinite(P) else 0.0,
                                   closed_form=_closed_form(bundle))
        print(f"spr: {verdict.verdict} (slope {_fmt(verdict.slope)}, "
              f"pressure {_fmt(P)}, tol {_fmt(verdict.tol)})")
        return EXIT_OK
    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
