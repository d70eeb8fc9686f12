"""Command-line front-end: subcommands, exit codes, byte-stable reports."""

import contextlib
import enum
import io
import json
import math
import os
import tempfile
import time
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cmshift.numerics
import cmshift.shift
from cmshift import EnumerationRefusal, Plain, Potential
from cmshift.cli import (EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_REFUSAL,
                         RunConfig, _fmt, _Run, _Texts, _write_out, main, run_report)
from cmshift.oracle import (_bruteforce_cells, compare_oracle, enumerate_words,
                            partition_sums_bruteforce)
from cmshift.shift import ROOT, BouquetShift, FiniteShift, LoopCountFamily, is_admissible
from cmshift.specio import (_SCHEMES, ConfigError, load_potential, load_shift,
                            parse_potential_spec, parse_shift_spec)
from conftest import ONES5, ORACLE_INPUTS

LOG2 = math.log(2.0)


def test_presets_subcommand(capsys):
    assert main(["presets"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("sec52-entry", "sec53", "renewal-ones"):
        assert name in out


def test_report_sec52(tmp_path, capsys):
    code = main(["report", "--preset", "sec52-entry", "--horizon", "40",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["summary"]["pressure"]) < 1e-9
    assert report["summary"]["chi_per"] == pytest.approx(-LOG2, abs=1e-9)
    assert report["summary"]["spr"] == "holds"
    assert (tmp_path / "sums.json").exists()
    assert (tmp_path / "profile_hinf.csv").exists()
    header = (tmp_path / "profile_hinf.csv").read_text().splitlines()[0]
    assert header == "n,M,q,log_z,z_phi"


def test_report_is_byte_stable(tmp_path):
    cfg = dict(preset="sec52-entry", horizon=24, out=None)
    a = run_report(RunConfig.from_dict(dict(cfg, out=str(tmp_path / "a"))))
    b = run_report(RunConfig.from_dict(dict(cfg, out=str(tmp_path / "b"))))
    for name in ("report.json", "sums.json", "profile_hinf.csv",
                 "profile_delta.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_report_sec53_summary(capsys):
    code = main(["report", "--preset", "sec53(beta=3,C=auto)", "--horizon", "60"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "class: positive-recurrent" in out
    assert "spr: fails" in out
    assert f"h_top: {math.log(4.0):.12g}" in out


def test_report_judges_every_verdict_against_the_analytic_pressure(monkeypatch):
    # the delta verdict takes the same P as SPR, UCS and CRC: the closed-form
    # pressure 0 of sec53 at C=auto, not the fitted value (about -1.4e-4)
    import cmshift.infinity as infinity

    seen = []
    real = infinity.profile_pair

    def capture(*args, **kwargs):
        seen.append(kwargs["P"])
        return real(*args, **kwargs)

    monkeypatch.setattr(infinity, "profile_pair", capture)
    report = run_report(RunConfig(preset="sec53(beta=3,C=auto)", horizon=60))
    assert seen == [report["pressure"]["analytic"]]
    assert report["pressure"]["value"] != report["pressure"]["analytic"]
    assert report["pressure"]["value"] == pytest.approx(-1.4e-4, abs=5e-5)


def test_sec54_profiles_past_the_psi_table_are_skipped_fast(tmp_path, capsys):
    # the a(1)=1 rebuild fails on the 16-entry default psi table before its
    # graph materializes 2^(2^n) loop counts, and the report says why
    start = time.perf_counter()
    code = main(["report", "--preset", "sec54", "--truncate", "26",
                 "--horizon", "6", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    profiles = json.loads((tmp_path / "report.json").read_text())["profiles"]
    assert "psi table" in profiles["skipped"]


def test_sec54_long_psi_table_stops_at_the_double_exponential_cap(tmp_path, capsys):
    # the a(1)=1 rebuild refuses loop counts 2^(2^n) past n = 24 (a 2 MB
    # integer) instead of building integers of hundreds of MB
    psi = ",".join(["0"] * 28)
    start = time.perf_counter()
    code = main(["report", "--preset", f"sec54(psi=[{psi}])", "--truncate", "28",
                 "--horizon", "6", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    profiles = json.loads((tmp_path / "report.json").read_text())["profiles"]
    assert "beyond n=24" in profiles["skipped"]


def test_counts_too_long_for_decimal_are_written_as_hex(tmp_path, capsys):
    # sec54's 2^(2^n) loop counts give boundary counts of more than 4300
    # decimal digits at this horizon; report.json holds them as exact hex
    # strings, and every other count as a JSON integer
    report = run_report(RunConfig(preset="sec54", truncate=14, horizon=20,
                                  out=str(tmp_path)))
    written = json.loads((tmp_path / "report.json").read_text())["profiles"]
    hexes = 0
    for key in ("hinf", "delta"):
        for row, out in zip(report["profiles"][key]["rows"], written[key]["rows"]):
            if isinstance(out[3], str):
                assert out[3] == hex(row[3])
                assert row[3] >= 10**4300
                hexes += 1
            else:
                assert out[3] == row[3]
    assert hexes
    assert main(["report", "--preset", "sec54", "--truncate", "14", "--horizon", "20",
                 "--out", str(tmp_path)]) == EXIT_OK


def _old_fmt(x) -> str:
    # the CSV cell writer with its own nan and inf branches; kept as the
    # oracle of _fmt and _Texts.csv
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
    # the old report writer's value pass, fed to json.dumps; kept as the
    # oracle of _Texts.json
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.12g}")
        return _old_fmt(obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, int) and not isinstance(obj, bool):
        try:
            int.__repr__(obj)
        except ValueError:  # past the decimal limit: the exact hex string
            return hex(obj)
    return obj


def _oracle_json(obj) -> str:
    return json.dumps(_json_ready(obj), indent=2, sort_keys=True)


class _Text(str):
    def __str__(self):
        return "not the text"


# leaves a report never holds: subclasses of float, int and str, and
# objects of no JSON type
_UNKNOWN_LEAVES = [np.float64(1e12), enum.IntEnum("E", "a b").b, _Text("x\u00e9"),
                   Path("a/b"), complex(1, -2), range(3)]
_SHARED = 2.5


# floats whose 12-digit text and shortest repr differ in form: integral
# values, values past 1e11 where %.12g turns to an exponent and repr does
# not, and values near 1e-5 and 1e-4 where both switch
_FLOATS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 1e16, 1e-5, 2**-1074, 1e-4, 1e11, 1e12]),
    st.integers(-2**60, 2**60).map(float),
    st.floats(min_value=1e11, max_value=1e17, exclude_max=True),
    st.floats(min_value=-1e17, max_value=-1e11, exclude_min=True),
    st.floats(min_value=5e-6, max_value=2e-4))
# a CSV cell is a float's by isinstance, so numpy's float64 is one too
_CSV_FLOATS = st.one_of(_FLOATS, st.floats().map(np.float64))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _FLOATS,
    st.integers(), st.integers(min_value=2**64).map(lambda k: k ** 40),
    st.text(), st.text(st.characters(codec="utf-8"), max_size=4),
    st.sampled_from(["\"\\\n\t\x00\x7f", "\u00e9\u4e2d\U0001f600", "\ud800"]))
# one odd item in an otherwise uniform column: a non-finite float, or an
# int past the decimal limit (written as hex)
_ODD_LEAVES = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.integers(min_value=0).map(lambda k: 10 ** 4300 + k))


@st.composite
def _tables(draw, leaves, odd):
    # rows of one length, each a list or a tuple; every column draws its
    # items from one strategy of leaves, and some put one odd item among them
    width = draw(st.integers(min_value=1, max_value=4))
    height = draw(st.integers(min_value=1, max_value=5))
    columns = []
    for _ in range(width):
        column = draw(st.lists(draw(leaves), min_size=height, max_size=height))
        if draw(st.booleans()):
            column[draw(st.integers(min_value=0, max_value=height - 1))] = draw(odd)
        columns.append(column)
    return [draw(st.sampled_from([list, tuple]))(row) for row in zip(*columns)]


_JSON_COLUMNS = st.sampled_from([
    _FLOATS, st.floats(allow_nan=False, allow_infinity=False), st.integers(),
    st.integers(min_value=2**64).map(lambda k: k ** 40), st.booleans(),
    st.none(), st.text(max_size=3)])
_JSON_DOCS = st.recursive(
    st.one_of(_JSON_SCALARS, st.just([-0.0, 0.0]),
              # one float object in several lists
              _FLOATS.map(lambda x: [[x], [x, x], {"x": x}, (x,)]),
              _tables(_JSON_COLUMNS, _ODD_LEAVES)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=150)
@given(doc=_JSON_DOCS)
# columns that start with one object and are equal after it, but not the
# same objects: a shared text would be wrong
@example(doc={"a": [_SHARED, 0.0, 1], "b": [_SHARED, -0.0, True], "c": [_SHARED, 0.0, 1.0]})
def test_json_text_equals_the_json_dumps_route(doc):
    assert _Texts().json(doc) == _oracle_json(doc)


@pytest.mark.parametrize("leaf", _UNKNOWN_LEAVES, ids=lambda x: type(x).__name__)
@pytest.mark.parametrize("place", [lambda x: x, lambda x: {"k": x}, lambda x: [1.5, x],
                                   lambda x: [x, x], lambda x: [(x, 1), (x, 2)]],
                         ids=["alone", "value", "mixed", "column", "table"])
def test_json_text_refuses_a_leaf_of_another_type(leaf, place):
    # as json.dumps does: a subclass is not its base, and there is no str
    # fallback
    with pytest.raises(TypeError, match=type(leaf).__name__):
        _Texts().json(place(leaf))


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
def test_json_text_refuses_a_key_that_is_not_str(key):
    with pytest.raises(TypeError, match=type(key).__name__):
        _Texts().json({key: 1})


_CSV_CELLS = st.one_of(st.none(), st.booleans(), _CSV_FLOATS, st.integers(),
                       st.text(max_size=4), st.sampled_from([Path("a/b"), (1, 2)]))


_CSV_COLUMNS = st.sampled_from([
    _CSV_FLOATS, st.floats(allow_nan=False, allow_infinity=False), st.integers(),
    st.integers(min_value=2**64).map(lambda k: k ** 40), st.none(), _CSV_CELLS])


# rows of one width: every table the program writes (the sums, the profile
# grids and the oracle's 6-tuples) is rectangular
_CSV_ROWS = st.integers(min_value=1, max_value=6).flatmap(
    lambda width: st.lists(st.lists(_CSV_CELLS, min_size=width, max_size=width)
                           .map(tuple), max_size=6))


@settings(max_examples=60)
@given(rows=st.one_of(_CSV_ROWS,
                      _tables(_CSV_COLUMNS, st.sampled_from([math.nan, math.inf, -math.inf]))))
def test_write_csv_equals_the_isinstance_route(rows):
    assert _Texts().csv(["a", "b"], list(zip(*rows))) == "\n".join(
        ["a,b"] + [",".join(_old_fmt(x) for x in row) for row in rows]) + "\n"
    assert [_fmt(x) for row in rows for x in row] \
        == [_old_fmt(x) for row in rows for x in row]


_FOUR_STATES = ({"kind": "finite",
                 "matrix": [[1, 1, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1], [1, 1, 0, 1]]},
                {"memory": 2, "default": -1.0, "table": [
                    {"word": list(w), "value": v} for w, v in (
                        ((1, 1), -0.7), ((1, 2), -0.3), ((1, 3), -1.0),
                        ((2, 2), -0.5), ((2, 3), -0.7), ((3, 1), -1.9),
                        ((3, 2), -0.5), ((3, 4), -0.8), ((4, 1), -1.4),
                        ((4, 2), -1.9), ((4, 4), -0.3))]})


# the full 2-shift with weights past the float range: 1e+308 cells and
# +inf Birkhoff maxima (z_phi) beside -inf empty cells
_FULL2_HUGE = ({"kind": "finite", "matrix": [[1, 1], [1, 1]]},
               {"memory": 2, "default": 0.0, "table": [
                   {"word": list(w), "value": 1e308} for w in ((1, 1), (1, 2), (2, 1))]})


@pytest.mark.parametrize("case", ["renewal-ones", "sec53", "finite", "finite-grid",
                                  "huge-weights", "renewal-ones-csv", "hinf"])
def test_written_files_are_the_oracle_rendering_of_the_report(tmp_path, case):
    out = tmp_path / "out"
    if case == "renewal-ones-csv":
        cfg = RunConfig(preset="renewal-ones", horizon=160, out=str(out), format="csv")
    elif case in ("finite", "finite-grid", "huge-weights"):
        specs = _write_specs(tmp_path, *(_FULL2_HUGE if case == "huge-weights"
                                         else _FOUR_STATES))
        grid = {"q": [1, 2, 3], "M": [2, 4, 8]} if case == "finite-grid" else {}
        cfg = RunConfig(shift=specs[1], potential=specs[3], out=str(out),
                        horizon=8 if case == "huge-weights" else 24, **grid)
    elif case == "sec53":
        from cmshift import zeta
        C = 1.5 / zeta(1.5049).value
        cfg = RunConfig(preset=f"sec53(beta=1.5049,C={C!r})", horizon=50, out=str(out))
    else:
        cfg = RunConfig(preset="renewal-ones", horizon=160, out=str(out))
    if case == "hinf":
        # the hinf subcommand writes the entropy profile alone
        from cmshift.cli import _Run
        from cmshift.infinity import hinf_profile
        assert main(["hinf", "--preset", "renewal-ones", "--horizon", "160",
                     "--out", str(out)]) == EXIT_OK
        hp = hinf_profile(_Run(cfg).profile_graph[0], cfg.q, cfg.M, cfg.horizon)
        expected, profiles = {}, {"hinf": hp.rows}
    else:
        report = run_report(cfg)
        seq = report["sequences"]
        expected = {"report.json": _oracle_json(report)}
        if cfg.format == "csv":
            expected["sums.csv"] = "\n".join(
                ["n,logZ,logZstar"] + [",".join(map(_old_fmt, r)) for r in
                                       zip(seq["n"], seq["logZ"], seq["logZstar"])])
        else:
            expected["sums.json"] = _oracle_json(
                {k: seq[k] for k in ("n", "logZ", "logZstar")})
        profiles = {key: report["profiles"][key]["rows"] for key in ("hinf", "delta")}
    for key, rows in profiles.items():
        expected[f"profile_{key}.csv"] = "\n".join(
            ["n,M,q,log_z,z_phi"]
            + [",".join(_old_fmt(r[i]) for i in (0, 1, 2, 4, 5)) for r in rows])
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (out / name).read_text() == text + "\n", name


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_renders_each_column_once(tmp_path, monkeypatch, fmt):
    # the files of one report share one rendering of each column in each
    # form: the delta profile's n, M, q, count and log_count are the entropy
    # profile's (one fill), and the sums are the sequences of report.json
    import cmshift.cli

    rendered = {"cells": [], "json": []}
    cells, json_texts = cmshift.cli._cell_texts, cmshift.cli._Texts._json_texts
    monkeypatch.setattr(cmshift.cli, "_cell_texts",
                        lambda col: rendered["cells"].append(col) or cells(col))
    monkeypatch.setattr(cmshift.cli._Texts, "_json_texts",
                        lambda self, col: rendered["json"].append(col)
                        or json_texts(self, col))
    report = run_report(RunConfig(preset="renewal-ones", horizon=240, out=str(tmp_path),
                                  format=fmt))

    def renders(col):  # of a column with these values, in each form
        return [sum(list(c) == list(col) for c in rendered[form])
                for form in ("cells", "json")]

    seq = report["sequences"]
    assert [renders(seq[k]) for k in ("n", "logZ", "logZstar")] == [[1, 1]] * 3
    hinf, delta = (list(zip(*report["profiles"][k]["rows"])) for k in ("hinf", "delta"))
    assert hinf[:5] == delta[:5] and hinf[5] == (None,) * len(hinf[5])
    assert [renders(col) for col in delta] + [renders(hinf[5])] == [[1, 1]] * 7


_OUT_ARGS = {
    "report": ["report", "--preset", "sec52-entry", "--horizon", "12"],
    "hinf": ["hinf", "--preset", "renewal-ones", "--horizon", "12"],
    "oracle": ["oracle", "--preset", "renewal-ones", "--truncate", "5", "--horizon", "12",
               "--M", "2,3", "--q", "1"],
}


# the last file each subcommand writes
_OUT_LAST = {"report": "report.json", "hinf": "profile_hinf.csv", "oracle": "oracle.csv"}


@pytest.mark.parametrize("command,out,reason", [
    ("report", "file", "File exists"), ("report", "file/sub", "Not a directory"),
    ("report", "taken", "Is a directory"), ("report", "stale", "Is a directory"),
    ("hinf", "file", "File exists"), ("hinf", "taken", "Is a directory"),
    ("oracle", "file", "File exists"), ("oracle", "taken", "Is a directory")])
def test_an_out_that_cannot_be_written_is_a_config_error(tmp_path, capsys, command,
                                                         out, reason):
    # an existing file, a path through one, and a directory where the file a
    # subcommand writes last goes: exit 2 with the path and the OS reason,
    # not a traceback; no file of the run is left behind, and the sums.json
    # of an earlier run keeps its bytes
    (tmp_path / "file").write_text("")
    for name in ("taken", "stale"):
        (tmp_path / name / _OUT_LAST[command]).mkdir(parents=True)
    (tmp_path / "stale" / "sums.json").write_text("an earlier run\n")
    assert main([*_OUT_ARGS[command], "--out", str(tmp_path / out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot ") and str(tmp_path / out) in err \
        and err.rstrip().endswith(reason), err
    assert [p.name for p in (tmp_path / "taken").iterdir()] == [_OUT_LAST[command]]
    assert sorted(p.name for p in (tmp_path / "stale").iterdir()) \
        == sorted([_OUT_LAST[command], "sums.json"])
    assert (tmp_path / "stale" / "sums.json").read_text() == "an earlier run\n"


def test_config_error_exit_codes(capsys, tmp_path):
    assert main(["report", "--preset", "sec52-entry", "--horizon", "0"]) \
        == EXIT_CONFIG
    assert main(["report", "--preset", "nope-such-preset"]) == EXIT_CONFIG
    # unknown keys in a config document are rejected
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"preset": "sec52-entry", "horizont": 10}))
    assert main(["report", "--config", str(cfgfile)]) == EXIT_CONFIG
    # a config path that names no readable text file
    (tmp_path / "bytes.json").write_bytes(b"\xff\xfe")
    for path in ("", str(tmp_path), str(tmp_path / "bytes.json")):
        assert main(["report", "--preset", "sec52-entry", "--config", path]) == EXIT_CONFIG


@pytest.mark.parametrize("doc", [
    {"tol": "abc"}, {"tol": float("nan")}, {"horizon": "x"}, {"horizon": 40.0},
    {"horizon": True}, {"M": 5}, {"M": ["2"]}, {"q": [1.5]}, {"truncate": "5"},
    {"log2": 1}, {"format": 7}, {"out": 3}, "not a document", [1, 2]])
def test_malformed_config_values_are_config_errors(doc, tmp_path, capsys):
    if isinstance(doc, dict):
        doc = dict({"preset": "sec52-entry", "horizon": 12}, **doc)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["report", "--config", str(cfgfile)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command, grid", [
    ("hinf", ["--M", "2,4,8,8"]), ("report", ["--q", "1,1"]),
    ("oracle", ["--M", "2,2"]), ("report", ["--config", None])])
def test_repeated_grid_values_are_config_errors(command, grid, tmp_path, capsys):
    # a repeated top M would serve as its own neighbouring M, and every
    # repeated value would write its rows twice
    if grid[-1] is None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"preset": "renewal-ones", "horizon": 12,
                                       "M": [4, 2, 4]}))
        argv = [command, "--config", str(cfgfile)]
    else:
        argv = [command, "--preset", "renewal-ones", "--horizon", "12", *grid]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: M and q grid values must be distinct\n"


@pytest.mark.parametrize("command,horizon,least", [
    ("report", 3, 5), ("report", 4, 5), ("pressure", 3, 5), ("pressure", 4, 5),
    ("spr", 3, 5), ("spr", 4, 5), ("hinf", 3, 4)])
def test_short_horizon_is_a_config_error(command, horizon, least, capsys):
    code = main([command, "--preset", "sec52-entry", "--truncate", "5",
                 "--horizon", str(horizon)])
    assert code == EXIT_CONFIG
    assert f"horizon must be >= {least}" in capsys.readouterr().err


@pytest.mark.parametrize("command,horizon", [("hinf", 4), ("oracle", 3),
                                             ("oracle", 4)])
def test_shortest_accepted_horizons_run(command, horizon):
    assert main([command, "--preset", "sec52-entry", "--truncate", "5",
                 "--horizon", str(horizon), "--M", "2", "--q", "1"]) == EXIT_OK


def test_flags_override_config_keys(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"preset": "sec52-entry", "horizon": 12}))
    for overridden, flags in (
            (["--preset", "renewal-ones", "--horizon", "80"],
             ["--preset", "renewal-ones", "--horizon", "80"]),
            (["--horizon", "24"], ["--preset", "sec52-entry", "--horizon", "24"]),
            ([], ["--preset", "sec52-entry", "--horizon", "12"])):
        assert main(["pressure", "--config", str(cfgfile), *overridden]) == EXIT_OK
        merged = capsys.readouterr().out
        assert main(["pressure", *flags]) == EXIT_OK
        assert merged == capsys.readouterr().out
    assert merged == "pressure: 0 ± 0 (window (7, 12))\n"


def test_tol_is_refused_as_a_flag_and_as_a_config_key(tmp_path, capsys):
    # no verdict read it, so it is gone from the options and from report.json
    with pytest.raises(SystemExit) as exc:
        main(["report", "--preset", "sec52-entry", "--horizon", "12", "--tol", "0.5"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --tol 0.5" in capsys.readouterr().err
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"preset": "sec52-entry", "horizon": 12, "tol": 1e-9}))
    assert main(["report", "--config", str(cfgfile)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown config keys ['tol']\n"
    report = run_report(RunConfig(preset="sec52-entry", horizon=12))
    assert "tol" not in report["config"]
    assert report["tolerances"] == {"spr_tol": report["spr"]["tol"]}


def test_pressure_prints_its_fit_without_solving_the_analytic_root(monkeypatch, capsys):
    # the root of this preset lies beyond the series budget; `pressure`
    # prints only the fit, so it neither solves nor refuses the root
    import cmshift.thermo as thermo

    def never(*args, **kwargs):
        raise AssertionError("pressure solved an analytic root it does not print")

    monkeypatch.setattr(thermo, "RenewalSeries", never)
    assert main(["pressure", "--preset", "sec53(beta=1.05,C=0.072878)",
                 "--horizon", "40"]) == EXIT_OK
    assert capsys.readouterr().out == \
        "pressure: -0.0295160788899 ± 0.0039800252721 (window (21, 40))\n"


def test_runconfig_strict_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"preset": "sec52-entry", "bogus": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"preset": "sec52-entry", "M": []})


def test_shift_and_potential_spec_files(tmp_path, capsys):
    shift = {"kind": "bouquet", "a": {"form": "ones"}, "truncate_len": 8}
    pot = {"memory": 2, "default": 0.0, "scheme": "bouquet_entry",
           "scheme_params": {"C": 0.831907372580707, "beta": 3.0},
           "table": []}
    (tmp_path / "shift.json").write_text(json.dumps(shift))
    (tmp_path / "pot.json").write_text(json.dumps(pot))
    code = main(["report", "--shift", str(tmp_path / "shift.json"),
                 "--potential", str(tmp_path / "pot.json"),
                 "--horizon", "16"])
    assert code == EXIT_OK


def test_malformed_spec_files_give_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"memory": 2}))
    assert main(["report", "--shift", str(bad), "--potential", str(pot)]) \
        == EXIT_CONFIG
    # unknown key inside the shift spec
    bad.write_text(json.dumps({"kind": "bouquet", "a": {"form": "ones"},
                               "truncate_len": 4, "extra": 1}))
    assert main(["report", "--shift", str(bad), "--potential", str(pot)]) \
        == EXIT_CONFIG


def test_finite_shift_report(tmp_path):
    shift = {"kind": "finite", "matrix": [[1, 1], [1, 1]]}
    pot = {"memory": 1, "default": 0.0, "table": []}
    (tmp_path / "shift.json").write_text(json.dumps(shift))
    (tmp_path / "pot.json").write_text(json.dumps(pot))
    code = main(["report", "--shift", str(tmp_path / "shift.json"),
                 "--potential", str(tmp_path / "pot.json"), "--horizon", "16",
                 "--q", "2", "--M", "2"])
    assert code == EXIT_OK


def _write_specs(tmp_path, shift, potential):
    (tmp_path / "shift.json").write_text(json.dumps(shift))
    (tmp_path / "pot.json").write_text(json.dumps(potential))
    return ["--shift", str(tmp_path / "shift.json"),
            "--potential", str(tmp_path / "pot.json")]


_FULL2 = {"kind": "finite", "matrix": [[1, 1], [1, 1]]}
_ONES = {"kind": "bouquet", "a": {"form": "ones"}, "truncate_len": 8}


@pytest.mark.parametrize("shift,pot,error", [
    (_FULL2, {"memory": 1, "default": 0.0,
              "table": [{"word": [1], "value": -0.3},
                        {"word": [2], "value": math.nan}]},
     "potential table value must not be NaN"),
    (_FULL2, {"memory": 1, "default": math.nan, "table": []},
     "potential default must not be NaN"),
    (_ONES, {"memory": 2, "scheme": "bouquet_entry",
             "scheme_params": {"C": math.nan, "beta": 3.0}},
     "scheme constant C must not be NaN"),
    (_ONES, {"memory": 2, "scheme": "bouquet_entry",
             "scheme_params": {"C": 0.5, "beta": math.nan}},
     "scheme exponent beta must not be NaN"),
    (_FULL2, {"memory": 1, "default": "abc", "table": []},
     "potential default must be a number, got 'abc'"),
], ids=["table-value", "default", "scheme-C", "scheme-beta", "not-a-number"])
def test_nan_weights_are_config_errors(shift, pot, error, tmp_path, capsys):
    # NaN compares with no weight, so a max over it drops its words unseen;
    # the infinities keep their meaning
    specs = _write_specs(tmp_path, shift, pot)
    assert main(["report", *specs, "--horizon", "12"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {error}\n"


_GEOM = {"kind": "bouquet", "a": {"form": "geometric", "r": 2, "a1": 1},
         "truncate_len": 6}
_MEM1 = {"memory": 1, "default": 0.0, "table": []}


@pytest.mark.parametrize("shift,pot,error", [
    (_FULL2, {"memory": "x"}, "potential memory must be an integer, got 'x'"),
    (dict(_ONES, a={"form": "list", "values": ["a"]}), _MEM1,
     "list-form loop count in 'values' must be an integer, got 'a'"),
    (dict(_GEOM, a={"form": "geometric", "r": "x"}), _MEM1,
     "geometric ratio 'r' must be an integer, got 'x'"),
    (dict(_GEOM, a={"form": "geometric", "r": 2, "a1": "x"}), _MEM1,
     "loop count 'a1' must be an integer, got 'x'"),
    (dict(_GEOM, a={"form": "geometric", "r": 0, "a1": 1}), _MEM1,
     "geometric ratio must be >= 1"),
    (dict(_GEOM, a={"form": "geometric", "r": 2, "a1": -1}), _MEM1,
     "loop counts must be non-negative"),
    (dict(_ONES, a="ones"), _MEM1,
     "shift spec field 'a' must be a JSON object, got 'ones'"),
    (dict(_ONES, truncate_len="8"), _MEM1,
     "bouquet 'truncate_len' must be an integer, got '8'"),
    (_FULL2, {"memory": 1, "table": "zz"},
     "potential table must be a list of entries, got 'zz'"),
    (_FULL2, {"memory": 1, "table": ["zz"]},
     "potential table entry must be a JSON object, got 'zz'"),
    (_FULL2, {"memory": 1, "table": [{"word": 1, "value": 0.5}]},
     "potential table word must be a list of states, got 1"),
    (_ONES, {"memory": 2, "scheme": "bouquet_entry", "scheme_params": "C"},
     "potential scheme_params must be a JSON object, got 'C'"),
], ids=["memory", "list-value", "ratio", "a1", "ratio-range", "a1-range",
        "a-not-object", "truncate-len", "table", "table-entry", "word",
        "scheme-params"])
def test_malformed_spec_fields_are_config_errors(shift, pot, error, tmp_path, capsys):
    # every malformed field ends in exit 2 with a message naming it, never a
    # traceback
    specs = _write_specs(tmp_path, shift, pot)
    assert main(["report", *specs, "--horizon", "12"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {error}\n"


def test_report_h_top_past_the_float_range(tmp_path, capsys):
    # ratio 2**600: (a(1) + r)**2 is past the float range, and h_top's closed
    # form holds r only through a(1)/r and log r
    shift = dict(_GEOM, a={"form": "geometric", "r": 2**600, "a1": 1}, truncate_len=3)
    specs = _write_specs(tmp_path, shift, {"memory": 2, "scheme": "bouquet_entry",
                                           "scheme_params": {"C": 0.5, "beta": 2}})
    assert main(["report", *specs, "--horizon", "12"]) == EXIT_OK
    assert "h_top: 416.369520161" in capsys.readouterr().out.splitlines()


def test_crc_without_low_to_low_words_is_skipped(tmp_path, capsys):
    # on a 6-cycle the base state returns only at multiples of 6, so no word
    # of the fit window n = 2..5 starts and ends low
    cycle = [[int(j == (i + 1) % 6) for j in range(6)] for i in range(6)]
    specs = _write_specs(tmp_path, {"kind": "finite", "matrix": cycle},
                         {"memory": 1, "default": -0.3, "table": []})
    out = tmp_path / "out"
    assert main(["report", *specs, "--horizon", "5", "--out", str(out)]) == EXIT_OK
    crc = json.loads((out / "report.json").read_text())["crc"]
    assert crc == {"skipped": "no low-to-low word of finite weight in the fit "
                              "window n = 2..5"}


def test_crc_with_low_to_low_words_at_one_length_is_skipped(tmp_path, capsys):
    # the 6-cycle returns to its base state only at n = 6, 12: the fit window
    # n = 7..12 holds one finite point, which gives no slope
    cycle = [[int(j == (i + 1) % 6) for j in range(6)] for i in range(6)]
    specs = _write_specs(tmp_path, {"kind": "finite", "matrix": cycle},
                         {"memory": 1, "default": -0.3,
                          "table": [{"word": [2], "value": 0.5}]})
    out = tmp_path / "out"
    assert main(["report", *specs, "--horizon", "12", "--out", str(out)]) == EXIT_OK
    crc = json.loads((out / "report.json").read_text())["crc"]
    assert crc == {"skipped": "low-to-low words of finite weight at only one "
                              "length in the fit window n = 7..12"}
    assert "crc_lambda" not in capsys.readouterr().out


_CYCLE6 = ({"kind": "finite",
            "matrix": [[int(j == (i + 1) % 6) for j in range(6)] for i in range(6)]},
           {"memory": 1, "default": 0.0, "table": []})


@pytest.mark.parametrize("N", [6, 8, 11])
@pytest.mark.parametrize("command", ["pressure", "spr", "report"])
def test_a_pressure_fit_from_one_length_is_a_config_error(tmp_path, capsys, command, N):
    # the 6-cycle has Z_6 = 1 and no other Z_n > 0 below n = 12: every
    # subcommand that fits the pressure stops with exit 2, and writes nothing
    specs = _write_specs(tmp_path, *_CYCLE6)
    out = tmp_path / "out"
    assert main([command, *specs, "--horizon", str(N), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"config error: the pressure fit: only n = 6 of 1..{N} has a finite log Z_n, "
        f"and one length fits no pressure; pass a --horizon longer than {N}\n")


def test_the_6_cycle_fits_at_5_and_12(tmp_path, capsys):
    # no Z_n > 0 up to n = 5 is the all-zero estimate; Z_6 and Z_12 fit P = 0
    specs = _write_specs(tmp_path, *_CYCLE6)
    for N, pressure, spr in (
            (5, "pressure: -inf ± inf (window (1, 5))",
             "spr: inconclusive (slope nan, pressure -inf, tol 0): the pressure is not finite"),
            (12, "pressure: 0 ± 0 (window (6, 12))",
             "spr: holds (slope -inf, pressure 0, tol 0): finite graph")):
        assert main(["pressure", *specs, "--horizon", str(N)]) == EXIT_OK
        assert main(["spr", *specs, "--horizon", str(N)]) == EXIT_OK
        assert main(["report", *specs, "--horizon", str(N)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [pressure, spr]


def _run_python(code: str, *args: str) -> "subprocess.CompletedProcess":
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})


def test_list_bouquet_report_does_not_import_scipy(tmp_path):
    # h_top of a finite list family is a bisection; nothing in a report
    # pulls in scipy
    shift = {"kind": "bouquet", "a": {"form": "list", "values": [1, 1, 0, 0, 1]},
             "truncate_len": 5}
    specs = _write_specs(tmp_path, shift, {"memory": 2, "default": -0.2, "table": []})
    code = ("import json, sys\n"
            "from cmshift.cli import main\n"
            f"assert main(['report', *{specs!r}, '--horizon', '12', "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "assert 'h_top' in json.load(open(sys.argv[1]))\n"
            "print('scipy' in sys.modules)\n")
    run = _run_python(code, str(tmp_path / "out" / "report.json"))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_numpy_stays_off_the_import_path(tmp_path):
    # numpy serves only the bouquet composition fill: the CLI imports without
    # it, and a finite report, pressure and spr run with its import blocked
    run = _run_python("import sys, cmshift.cli; print('numpy' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"
    specs = _write_specs(tmp_path, *_FOUR_STATES)
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from cmshift.cli import main\n"
            f"assert main(['report', *{specs!r}, '--horizon', '24', "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "for cmd in ('pressure', 'spr'):\n"
            "    assert main([cmd, '--preset', 'sec53(beta=2)', '--horizon', '40']) == 0\n"
            "print(sys.modules['numpy'])\n")
    run = _run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "None"
    assert (tmp_path / "out" / "report.json").exists()


def test_bouquet_report_loads_numpy_for_its_fill(tmp_path):
    code = ("import sys\n"
            "from cmshift.cli import main\n"
            "assert main(['report', '--preset', 'renewal-ones', '--horizon', '40']) == 0\n"
            "print('numpy' in sys.modules)\n")
    run = _run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "True"


def test_oracle_module_loads_only_for_the_oracle_subcommand():
    # the enumerations are compiled only when `cmshift oracle` runs: neither
    # the package, the CLI nor any other subcommand imports cmshift.oracle
    code = ("import sys\n"
            "import cmshift\n"
            "from cmshift.cli import main\n"
            "print('loaded', 'cmshift.oracle' in sys.modules)\n"
            "for argv in (['report', '--preset', 'sec52-entry', '--horizon', '12'],\n"
            "             ['pressure', '--preset', 'sec52-entry', '--horizon', '12'],\n"
            "             ['spr', '--preset', 'sec53(beta=3,C=auto)', '--horizon', '12'],\n"
            "             ['hinf', '--preset', 'sec52-entry', '--truncate', '5',\n"
            "              '--horizon', '12']):\n"
            "    assert main(argv) == 0\n"
            "print('loaded', 'cmshift.oracle' in sys.modules)\n"
            "assert main(['oracle', '--preset', 'renewal-ones', '--truncate', '5',\n"
            "             '--horizon', '12', '--M', '2,3', '--q', '1']) == 0\n"
            "print('loaded', 'cmshift.oracle' in sys.modules)\n")
    run = _run_python(code)
    assert run.returncode == 0, run.stderr
    assert [line for line in run.stdout.splitlines() if line.startswith("loaded ")] \
        == ["loaded False", "loaded False", "loaded True"]


def test_power_root_out_of_series_reach_is_refused(capsys):
    # C is about 1.5 / zeta(1.05), so the root sits near 2.8e-10 (mpmath),
    # where Li_1.05 needs far more than the 300000-term budget.  The partial
    # sums stay below 1/C, so no sign is known there and the report refuses
    # instead of judging against the budget's edge (P = 8.03e-5, "transient")
    t0 = time.perf_counter()
    assert main(["report", "--preset", "sec53(beta=1.05,C=0.072878)",
                 "--horizon", "40"]) == EXIT_REFUSAL
    assert time.perf_counter() - t0 < 8.0
    err = capsys.readouterr().err
    assert "pressure root out of reach" in err and "300000 terms" in err


@pytest.mark.parametrize("preset", ["sec53(beta=2.4948,C=1.1164790335744308)",
                                    "sec53(beta=4,C=100)"])
def test_return_sum_at_the_root_reads_one(tmp_path, preset):
    # the class is read at the root with the series tolerance the root was
    # solved at, so the return series there prints 1 to 12 digits
    assert main(["report", "--preset", preset, "--horizon", "40",
                 "--out", str(tmp_path)]) == EXIT_OK
    recurrence = json.loads((tmp_path / "report.json").read_text())["recurrence"]
    assert recurrence["class"] == "strongly-positive-recurrent"
    assert abs(recurrence["return_sum"] - 1.0) <= 1e-12


def test_a_family_without_length_one_loops_has_no_closed_form(tmp_path, capsys):
    # sec53 with a1 = 0 has no first return of length 1; the closed form of
    # the family with one (P = 0.496302605715, strongly positive recurrent)
    # is not its own, so its P is the exact root of Z*_1..Z*_25, as for a
    # file bouquet
    preset = "sec53(beta=3,C=1.5,a1=0)"
    assert main(["report", "--preset", preset, "--horizon", "60",
                 "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["sequences"]["logZstar"][0] == "-inf"
    assert "recurrence" not in report
    capsys.readouterr()
    assert main(["spr", "--preset", preset, "--horizon", "60"]) == EXIT_OK
    assert capsys.readouterr().out == \
        "spr: holds (slope -inf, pressure -0.244580498645, tol 1e-06)\n"


@pytest.mark.parametrize("beta, kind", [(2.01, "positive-recurrent"),
                                        (1.01, "null-recurrent"),
                                        (1.0000015, "null-recurrent")])
def test_the_boundary_zeta_near_one_certifies_a_relative_tolerance(tmp_path, beta, kind):
    # zeta(1.01) is about 100: an absolute 1e-13 is below its float slop, a
    # relative one is not, so the root (beta = 1.01) and the boundary mean
    # zeta(beta - 1) (beta = 2.01) are summed and the report exits 0; C=auto
    # certifies zeta(beta) relative to its size too, so at beta = 1.0000015
    # (zeta about 6.7e5) the preset builds
    assert main(["report", "--preset", f"sec53(beta={beta},C=auto)", "--horizon", "40",
                 "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert (report["pressure"]["analytic"], report["recurrence"]["class"]) == (0.0, kind)


def _negative_zeros(obj, path=""):
    if isinstance(obj, float):
        return [path] if obj == 0.0 and math.copysign(1.0, obj) < 0 else []
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _negative_zeros(v, f"{path}/{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _negative_zeros(v, f"{path}[{i}]")]
    return []


@pytest.mark.parametrize("preset", ["renewal-ones", "sec53(beta=3,C=auto)"])
def test_reports_write_no_negative_zero(tmp_path, preset):
    # a flat CRC profile (renewal-ones) and a boundary at log x = 0 give
    # lambda_q and pstar 0.0, not -0.0
    assert main(["report", "--preset", preset, "--horizon", "60",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert _negative_zeros(json.loads((tmp_path / "report.json").read_text())) == []


def test_scheme_with_a_default_weight_sums_every_edge(tmp_path):
    # the loop edges that carry no scheme weight weigh the default, so the
    # scheme's loop totals are not the loops' weights: the transfer DP sums
    # them, as the brute force does
    shift = {"kind": "bouquet", "a": {"form": "ones"}, "truncate_len": 5}
    pot = {"memory": 2, "default": -1.0, "scheme": "bouquet_entry",
           "scheme_params": {"C": 0.5, "beta": 2.0}}
    _write_specs(tmp_path, shift, pot)
    report = run_report(RunConfig(shift=str(tmp_path / "shift.json"),
                                  potential=str(tmp_path / "pot.json"), horizon=12))
    T = load_shift(tmp_path / "shift.json")
    brute = partition_sums_bruteforce(T, load_potential(tmp_path / "pot.json", T), ROOT, 12)
    assert report["sequences"]["method"] == "transfer-dp"
    assert report["sequences"]["logZstar"] == pytest.approx(brute.log_zstar, abs=1e-12)
    assert f"{report['pressure']['value']:.12g}" == "-0.64232752359"


def test_file_bouquet_past_its_truncation_uses_the_exact_root(tmp_path, capsys):
    # with N >= L the report holds every first return Z*_1..Z*_L, so P is
    # the root of their finite sum (-1.04364, not the fit's -1.1227), and
    # the weights vanish past L: spr and ucs hold; below L the loop totals
    # give the same closed form, and only the fitted pressure moves
    shift = {"kind": "bouquet", "a": {"form": "ones"}, "truncate_len": 30}
    pot = {"memory": 2, "scheme": "bouquet_entry", "scheme_params": {"C": 0.1, "beta": 3}}
    specs = _write_specs(tmp_path, shift, pot)
    assert main(["report", *specs, "--horizon", "40", "--out", str(tmp_path / "out")]) \
        == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pressure"]["analytic"] == pytest.approx(-1.04364427942, abs=1e-11)
    assert (report["spr"]["verdict"], report["ucs"]) == ("holds", "holds")
    assert report["induced"]["pstar"] == "inf"
    capsys.readouterr()
    assert main(["spr", *specs, "--horizon", "40"]) == EXIT_OK
    assert capsys.readouterr().out == \
        "spr: holds (slope -inf, pressure -1.04364427942, tol 1e-06)\n"
    assert main(["report", *specs, "--horizon", "20", "--out", str(tmp_path / "short")]) \
        == EXIT_OK
    short = json.loads((tmp_path / "short" / "report.json").read_text())
    assert short["pressure"]["analytic"] == report["pressure"]["analytic"]
    assert short["pressure"]["value"] == pytest.approx(-0.906023015471, abs=1e-11)
    assert short["spr"] == report["spr"]
    assert (short["induced"], short["ucs"]) == (report["induced"], "holds")


def test_bouquet_without_loop_totals_runs_the_transfer_dp(tmp_path, capsys):
    # a truncated bouquet is a finite graph: its sums come from the transfer
    # DP at the full horizon, and the fitted P converges to log rho(W)
    shift = {"kind": "bouquet", "a": {"form": "list", "values": [1, 1, 0, 0, 1]},
             "truncate_len": 5}
    pot = {"memory": 2, "default": -0.2,
           "table": [{"word": ["r", "r"], "value": -1.0},
                     {"word": ["r", "v(2,1,1)"], "value": -0.5},
                     {"word": ["v(5,1,4)", "r"], "value": 0.3}]}
    specs = _write_specs(tmp_path, shift, pot)
    for N in (18, 200):
        out = tmp_path / f"out{N}"
        assert main(["report", *specs, "--horizon", str(N), "--out", str(out)]) \
            == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["sequences"]["method"] == "transfer-dp"
        assert len(report["sequences"]["logZ"]) == N
    assert report["pressure"]["value"] == pytest.approx(0.138577021020, abs=1e-9)


def test_report_fills_one_profile_grid_per_q(tmp_path, monkeypatch, capsys):
    # a bouquet potential without loop totals sends the weighted grid through
    # the state sweep and the unweighted one through the composition fill;
    # the report fits both profiles from the weighted grid alone
    import cmshift.infinity

    fills = []
    for name in ("_composition_fill", "_count_B_sweep"):
        fill = getattr(cmshift.infinity, name)
        monkeypatch.setattr(cmshift.infinity, name,
                            lambda *a, _fill=fill, _name=name:
                            fills.append(_name) or _fill(*a))
    shift = {"kind": "bouquet", "a": {"form": "list", "values": [1, 1, 0, 0, 1]},
             "truncate_len": 5}
    pot = {"memory": 2, "default": -0.2,
           "table": [{"word": ["r", "v(2,1,1)"], "value": -0.5}]}
    specs = _write_specs(tmp_path, shift, pot)
    for q, want in (("1", ["_count_B_sweep"]), ("1,2", ["_count_B_sweep"] * 2)):
        fills.clear()
        assert main(["report", *specs, "--horizon", "12", "--q", q]) == EXIT_OK
        assert fills == want, q
    assert "hinf: " in capsys.readouterr().out


_TAU1_DOMINANT = ({"kind": "bouquet", "a": {"form": "ones"}, "truncate_len": 40},
                  {"memory": 2, "scheme": "bouquet_entry",
                   "scheme_params": {"C": 2, "beta": 0}})


@pytest.mark.parametrize("case, N, q, tables, recurrences, lines", [
    # zero potential: the table settles after column 6 and crc reads it
    ("renewal-ones", 240, "1", [(120, 7)], 0, ["crc_lambda: 0"]),
    # tau(k) = log 2 for every k: one part more always pays, so the table
    # runs to column jmax and crc takes its own recurrence
    ("tau1", 240, "1", [(120, 121)], 1,
     ["crc_lambda: -0.69314718056", "delta: -0.534624731194"]),
    # no q = 1: the sweep and crc's state DP need no table
    ("renewal-ones", 40, "2", [], 1, []),
    ("renewal-ones", 40, "2,1", [(20, 2)], 0, []),
])
def test_report_fills_one_loop_table(tmp_path, monkeypatch, capsys, case, N, q, tables,
                                     recurrences, lines):
    # a bouquet report fills its best loop sums at most once, up to the
    # grid's largest visit cap jmax = (N + 1) // min(M), for the delta fill
    # and crc together, and never past jmax; "recurrence" counts crc's own
    # DP (the bouquet recurrence or the state DP)
    import cmshift.infinity

    calls, recurrence = [], cmshift.thermo._max_birkhoff_low_to_low
    best_sums = cmshift.infinity._best_sums
    monkeypatch.setattr(cmshift.infinity, "_best_sums",
                        lambda lengths, tau, N, jmax:
                        calls.append((jmax, best_sums(lengths, tau, N, jmax))) or calls[-1][1])
    monkeypatch.setattr(cmshift.thermo, "_max_birkhoff_low_to_low",
                        lambda *a: calls.append("recurrence") or recurrence(*a))
    args = ["--preset", "renewal-ones"] if case == "renewal-ones" \
        else _write_specs(tmp_path, *_TAU1_DOMINANT)
    assert main(["report", *args, "--horizon", str(N), "--q", q]) == EXIT_OK
    assert [(c[0], len(c[1])) for c in calls if c != "recurrence"] == tables
    assert calls.count("recurrence") == recurrences
    out = capsys.readouterr().out.splitlines()
    assert all(line in out for line in lines)


def test_chi_per_builds_no_periodic_words_at_any_memory(tmp_path, monkeypatch, capsys):
    # the full 3-shift has 3^12 > 500000 periodic words of period 13 through
    # each state.  Every potential is an edge weight on the state graph or on
    # its block graph, so chi_per runs the max-plus DP and builds no periodic
    # word list at any memory
    import cmshift.oracle

    def never(*args, **kwargs):
        raise AssertionError("periodic words were enumerated")

    monkeypatch.setattr(cmshift.oracle, "periodic_points", never)
    shift = {"kind": "finite", "matrix": [[1, 1, 1]] * 3}
    (tmp_path / "shift.json").write_text(json.dumps(shift))
    argv = ["report", "--shift", str(tmp_path / "shift.json"),
            "--potential", str(tmp_path / "pot.json"), "--horizon", "13",
            "--q", "1", "--M", "2", "--out", str(tmp_path / "out")]
    for memory in (1, 3, 4):
        (tmp_path / "pot.json").write_text(
            json.dumps({"memory": memory, "default": 0.0, "table": []}))
        assert main(argv) == EXIT_OK
        assert "chi_per: 0\n" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["chi_per"] == {"period": 1, "value": 0.0}


def test_memory3_weights_run_every_edge_weight_dp(tmp_path, capsys):
    # a weighted memory-3 potential is an edge weight on the 2-block graph:
    # the transfer sums, chi_per, the contraction profile and the delta grid
    # all run there and equal an enumeration of the words
    from cmshift import FiniteShift, Plain
    from cmshift.numerics import linear_fit, tail_window
    from cmshift.oracle import partition_sums_bruteforce
    from cmshift.specio import load_potential

    shift = {"kind": "finite", "matrix": [[1, 1, 1]] * 3}
    (tmp_path / "shift.json").write_text(json.dumps(shift))
    argv = ["report", "--shift", str(tmp_path / "shift.json"),
            "--potential", str(tmp_path / "pot.json"), "--horizon", "6",
            "--q", "1", "--M", "2", "--out", str(tmp_path / "out")]
    (tmp_path / "pot.json").write_text(json.dumps(
        {"memory": 3, "default": -0.5,
         "table": [{"word": ["1", "2", "3"], "value": 0.25}]}))
    assert main(argv) == EXIT_OK
    text = (tmp_path / "out" / "report.json").read_text()
    report = json.loads(text)
    assert report["sequences"]["method"] == "transfer-dp"
    T = FiniteShift(shift["matrix"])
    phi = load_potential(tmp_path / "pot.json", T)
    brute = partition_sums_bruteforce(T, phi, Plain(1), 6)
    assert report["sequences"]["logZ"] == pytest.approx(brute.log_z, abs=1e-11)
    assert report["sequences"]["logZstar"] == pytest.approx(brute.log_zstar, abs=1e-11)
    # the 3-cycle 123 averages (0.25 - 0.5 - 0.5) / 3
    assert report["chi_per"] == {"period": 3, "value": -0.25}
    assert "memory <= 2" not in text and "skipped" not in text

    # S_n of a memory-3 potential reads the (n+2)-words
    low = {Plain(1)}

    def scored(n):
        for w in enumerate_words(T, n + 2):
            yield w, math.fsum(phi.weight(w[i:i + 3]) for i in range(n))

    s = [max(v for w, v in scored(n) if w[0] in low and w[n] in low) for n in range(1, 7)]
    win = list(tail_window(6))
    lam = -linear_fit(win, [s[n - 1] for n in win]).slope
    assert report["crc"]["lambda_q"] == pytest.approx(lam, abs=1e-11)
    assert report["crc"]["C_q"] == pytest.approx(max(s[n - 1] + n * lam for n in win),
                                                 abs=1e-11)
    rows = report["profiles"]["delta"]["rows"]
    assert [r[:3] for r in rows] == [[n, 2, 1] for n in range(1, 7)]
    for n, _, _, count, _, z_phi in rows:
        best = {}
        for w, v in scored(n):
            if w[0] in low and w[n] in low and sum(x in low for x in w[:n]) * 2 <= n + 1:
                best[w[:n + 1]] = max(best.get(w[:n + 1], -math.inf), v)
        assert count == len(best)
        assert z_phi == pytest.approx(max(best.values()) / n, abs=1e-11)
    assert report["profiles"]["delta"]["estimate"] == max(r[5] for r in rows[-4:])


def test_oracle_names_the_period_of_an_undefined_word_weight(tmp_path, capsys):
    # the root self-loop weighs +inf and the edge back from v(2,1,1) -inf:
    # the period-3 word (r, r, v(2,1,1)) holds both
    shift = {"kind": "bouquet", "a": {"form": "list", "values": [1, 1]},
             "truncate_len": 2}
    (tmp_path / "shift.json").write_text(json.dumps(shift))
    (tmp_path / "pot.json").write_text(
        '{"memory": 2, "table": [{"word": ["r", "r"], "value": Infinity}, '
        '{"word": ["v(2,1,1)", "r"], "value": -Infinity}]}')
    specs = ["--shift", str(tmp_path / "shift.json"),
             "--potential", str(tmp_path / "pot.json")]
    assert main(["oracle", *specs, "--truncate", "2", "--horizon", "6"]) == EXIT_REFUSAL
    assert "the weight of a period-3 word through r is undefined" \
        in capsys.readouterr().err
    # the transfer sums raise the same error at the same period
    for command in ("pressure", "spr", "report"):
        assert main([command, *specs, "--horizon", "6"]) == EXIT_REFUSAL
        assert "refused: transfer sums: the weight of a period-3 word through r " \
            "is undefined" in capsys.readouterr().err


def test_preset_argument_errors_name_the_argument(capsys):
    # an argument of the wrong type, NaN or a fractional loop count is a
    # config error naming the argument
    for expr, name in (("sec53(beta=[1,2])", "beta"), ("sec53(C=[1])", "C"),
                       ("sec54(psi=3)", "psi"), ("sec53(a1=1.5)", "a1"),
                       ("sec53(C=nan)", "C"), ("sec54(psi=[0,nan])", "psi")):
        assert main(["report", "--preset", expr, "--horizon", "8"]) == EXIT_CONFIG
        assert f"preset argument {name} must be" in capsys.readouterr().err
    # a root near log C = 690.8, where e^{-p} underflows past the root's
    # bracket, is found
    for command in ("report", "spr", "pressure"):
        assert main([command, "--preset", "sec53(C=1e300)", "--horizon", "40"]) \
            == EXIT_OK
        assert "690.775527898" in capsys.readouterr().out


def test_infinite_pressure_leaves_spr_inconclusive(tmp_path, capsys):
    # the root self-loop weighs +inf, so every Z_n is +inf and so is P; no
    # verdict is judged against a stand-in pressure of 0
    shift = {"kind": "bouquet", "a": {"form": "list", "values": [1, 1]},
             "truncate_len": 2}
    (tmp_path / "shift.json").write_text(json.dumps(shift))
    (tmp_path / "pot.json").write_text(
        '{"memory": 2, "table": [{"word": ["r", "r"], "value": Infinity}]}')
    specs = ["--shift", str(tmp_path / "shift.json"),
             "--potential", str(tmp_path / "pot.json"), "--horizon", "6"]
    assert main(["pressure", *specs]) == EXIT_OK
    assert capsys.readouterr().out.startswith("pressure: inf ")
    assert main(["spr", *specs]) == EXIT_OK
    assert capsys.readouterr().out.startswith(
        "spr: inconclusive (slope nan, pressure inf, tol 0): the pressure is not finite")
    assert main(["report", *specs, "--out", str(tmp_path / "out")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pressure: inf\n" in out and "spr: inconclusive\n" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["spr"] == {"verdict": "inconclusive", "slope": "nan", "tol": 0.0,
                             "reason": "the pressure is not finite"}
    assert report["ucs"] == "inconclusive"  # chi_per = P = +inf


@pytest.mark.parametrize("sign", [1, -1])
def test_chi_per_past_the_float_range_is_exact_not_a_traceback(tmp_path, capsys, sign):
    # three windows of the full 2-shift weigh +-1e308, so a periodic sum over
    # two of them leaves the float range.  chi_per compares the exact sums:
    # with +1e308 the orbit 12 (sum 2e308, past the float range) ties the
    # loop 11 at mean 1e308, and the shorter period wins; with -1e308 the
    # loop 22 at weight 0 is the supremum
    pot = {"memory": 2, "default": 0.0,
           "table": [{"word": w, "value": sign * 1e308} for w in ([1, 1], [1, 2], [2, 1])]}
    specs = _write_specs(tmp_path, _FULL2, pot)
    assert main(["report", *specs, "--horizon", "8", "--out", str(tmp_path / "out")]) \
        == EXIT_OK
    assert f"chi_per: {'1e+308' if sign > 0 else '0'}\n" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["chi_per"] == {"period": 1, "value": 1e308 if sign > 0 else 0.0}


def test_report_counts_a_delta_window_of_plus_inf_cells(tmp_path, capsys):
    # the counted cells of the +1e308 input read +inf: that is evidence, so
    # delta is +inf, inconclusive against the P = +inf of the same report
    pot = {"memory": 2, "default": 0.0,
           "table": [{"word": w, "value": 1e308} for w in ([1, 1], [1, 2], [2, 1])]}
    specs = _write_specs(tmp_path, _FULL2, pot)
    assert main(["report", *specs, "--horizon", "8", "--out", str(tmp_path / "out")]) \
        == EXIT_OK
    out = capsys.readouterr().out
    assert "delta: inf\ndelta_plus_hinf: inf\n" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    delta = report["profiles"]["delta"]
    assert (delta["estimate"], delta["band"], delta["ci_verdict"]) \
        == ("inf", 0.0, "inconclusive")
    # chi_per = 1e308 is below P = +inf, but an infinite P judges nothing:
    # ucs is inconclusive, like delta and spr in the same report
    assert "pressure: inf\n" in out and "ucs: inconclusive\n" in out
    assert (report["ucs"], report["spr"]["verdict"]) == ("inconclusive", "inconclusive")


def test_report_on_a_divergent_power_tail_exits_0(tmp_path, capsys):
    # beta <= 1: the induced series at 0 diverges, as spr, pressure and hinf
    # on the same preset already take it
    out = tmp_path / "out"
    assert main(["report", "--preset", "sec53(beta=0.5,C=0.1)", "--horizon", "12",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["induced"]["value_at_0"] == "inf"


def test_parser_is_built_once_and_calls_share_no_list(monkeypatch, capsys):
    import cmshift.cli as climod

    seen = []

    def fake_run_report(cfg):
        seen.append(list(cfg.M))
        cfg.M.append(99)  # a caller that mutates its config
        cfg.q.append(99)
        return {"summary": {}}

    monkeypatch.setattr(climod, "run_report", fake_run_report)
    parser = climod._parser()
    for _ in range(2):
        assert main(["report", "--preset", "sec52-entry"]) == EXIT_OK
    assert seen == [[2, 4, 8], [2, 4, 8]]
    assert climod._parser() is parser
    assert main(["presets"]) == main(["presets"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out[:len(out) // 2] == out[len(out) // 2:]
    with pytest.raises(SystemExit):
        main(["report", "--horizon", "x"])


def test_oracle_subcommand_passes(tmp_path, capsys):
    code = main(["oracle", "--preset", "renewal-ones", "--truncate", "5",
                 "--horizon", "12", "--M", "2,3", "--q", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "all rows pass" in capsys.readouterr().out
    assert (tmp_path / "oracle.csv").exists()


def test_oracle_notes_a_clipped_horizon_on_stderr(capsys):
    # standard output is the table of n <= 12 either way; only a horizon
    # past the cap adds the note
    argv = ["oracle", "--preset", "renewal-ones", "--truncate", "4", "--M", "2"]
    assert main(argv + ["--horizon", "12"]) == EXIT_OK
    at_cap = capsys.readouterr()
    assert main(argv + ["--horizon", "20"]) == EXIT_OK
    clipped = capsys.readouterr()
    assert at_cap.err == ""
    assert clipped.out == at_cap.out and clipped.out.endswith("all rows pass\n")
    assert clipped.err == ("note: oracle compares n <= _ORACLE_HORIZON_CAP = 12; "
                           "--horizon 20 was clipped\n")


def test_oracle_refuses_large_truncation(capsys):
    code = main(["oracle", "--preset", "sec52-entry", "--truncate", "12"])
    assert code == EXIT_REFUSAL


_ONES5_POT = {"memory": 2, "scheme": "bouquet_entry", "scheme_params": {"C": 0.5, "beta": 2.0}}


@pytest.mark.parametrize("default, method", [(None, "renewal-dp"), (-1.0, "transfer-dp")])
def test_oracle_runs_on_a_bouquet_spec(tmp_path, capsys, default, method):
    # a spec's truncation is its truncate_len, and its DP side is the run's
    # own sums: the renewal over the scheme's loop totals, or the transfer DP
    # when the loop edges outside the scheme weigh a default
    from cmshift.cli import _Run

    pot = dict(_ONES5_POT) if default is None else dict(_ONES5_POT, default=default)
    specs = _write_specs(tmp_path, dict(_ONES, truncate_len=5), pot)
    assert main(["oracle", *specs, "--horizon", "12", "--M", "2,3", "--q", "1,2",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("rows: 72  ") and out.endswith("all rows pass\n")
    assert (tmp_path / "out" / "oracle.csv").read_text().count("\n") == 73
    cfg = RunConfig(shift=specs[1], potential=specs[3], horizon=12)
    assert _Run(cfg).sums.method == method
    rows, ok = compare_oracle(cfg)
    assert ok and [r[:2] for r in rows[:24:2]] == [("logZ", n) for n in range(1, 13)]


def test_oracle_refuses_a_spec_past_its_truncation_cap(tmp_path, capsys):
    specs = _write_specs(tmp_path, dict(_ONES, truncate_len=30), _ONES5_POT)
    assert main(["oracle", *specs, "--horizon", "12"]) == EXIT_REFUSAL
    assert capsys.readouterr().err == (
        "refused: oracle comparisons need a truncate_len <= _ORACLE_TRUNCATE_CAP = 6 "
        "(brute force is exponential); the spec has 30\n")
    # a finite shift has no truncation to cap: it is not a bouquet, with or
    # without --truncate
    specs = _write_specs(tmp_path, _FULL2, {"memory": 1, "default": 0.0, "table": []})
    for truncate in ([], ["--truncate", "5"]):
        assert main(["oracle", *specs, "--horizon", "8", *truncate]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "config error: oracle comparisons run on bouquet presets/specs\n"


def test_pressure_subcommand(capsys):
    assert main(["pressure", "--preset", "sec52-entry", "--horizon", "30"]) \
        == EXIT_OK
    assert "pressure:" in capsys.readouterr().out


def test_spr_subcommand(capsys):
    assert main(["spr", "--preset", "sec53(beta=3,C=auto)", "--horizon", "200"]) \
        == EXIT_OK
    assert "spr: fails" in capsys.readouterr().out


def test_hinf_subcommand(tmp_path, capsys):
    code = main(["hinf", "--preset", "sec52-entry", "--truncate", "20",
                 "--horizon", "24", "--M", "4,8", "--q", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "profile_hinf.csv").exists()


def test_log2_display_rescales(capsys):
    main(["report", "--preset", "sec52-entry", "--horizon", "24", "--log2"])
    out = capsys.readouterr().out
    # chi_per = -log 2 displays as -1 in base-2 units
    assert "chi_per: -1" in out


@pytest.mark.parametrize("name, L", ORACLE_INPUTS + [("full3", m) for m in (1, 2, 3)])
def test_the_oracle_walks_weigh_each_window_once(oracle_input, name, L):
    # every window a walk weighs is weighed once per call: memory 2 on the
    # oracle's inputs, memory L = 1-3 on the full 3-shift, where the cells
    # walk refuses memory 3 without weighing
    if name == "full3":
        T, phi, a, N = FiniteShift([[1] * 3] * 3), Potential(L, {}, -0.5), Plain(1), 6
    else:
        (T, phi), a, N = oracle_input(name, L), ROOT, 12
    weight, seen = Potential.weight, Counter()

    def counted(self, window):
        seen[tuple(window)] += 1
        return weight(self, window)

    with patch.object(Potential, "weight", counted):
        partition_sums_bruteforce(T, phi, a, N)
        assert seen and max(seen.values()) == 1
        seen.clear()
        with contextlib.suppress(EnumerationRefusal):
            _bruteforce_cells(T, phi, 1, [2, 3], N)
    assert max(seen.values(), default=1) == 1 and bool(seen) == (phi.memory <= 2)


def test_the_oracle_walks_run_no_dp_helper(monkeypatch, tmp_path):
    # compare_oracle's DP side indexes graphs and pushes counts (the
    # max-plus push serves chi_per and crc, which it does not run); the two
    # walks it runs beside them call none of the three helpers
    import sys

    import cmshift.oracle as oracle

    inside, calls = [False], []
    for owner, name in ((cmshift.shift, "index_graph"), (cmshift.numerics, "count_push"),
                        (cmshift.numerics, "maxplus_push")):
        helper = getattr(owner, name)

        def spy(*args, _helper=helper, _name=name, **kwargs):
            calls.append((_name, inside[0]))
            return _helper(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("cmshift")]:
            if getattr(module, name, None) is helper:
                monkeypatch.setattr(module, name, spy)
    for name in ("partition_sums_bruteforce", "_bruteforce_cells"):
        def walk(*args, _walk=getattr(oracle, name), **kwargs):
            inside[0] = True
            try:
                return _walk(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(oracle, name, walk)
    specs = _write_specs(tmp_path, *ONES5)
    for cfg in (RunConfig(preset="sec52-mid", truncate=5, horizon=12, M=[2, 3]),
                RunConfig(shift=specs[1], potential=specs[3], horizon=12, M=[2, 3])):
        assert compare_oracle(cfg)[1]
    assert {name for name, _ in calls} == {"index_graph", "count_push"}
    assert not [call for call in calls if call[1]]


def test_compare_oracle_rows_structure():
    cfg = RunConfig(preset="renewal-ones", truncate=4, horizon=8, M=[2], q=[1])
    rows, ok = compare_oracle(cfg)
    assert ok
    quantities = {r[0] for r in rows}
    assert "logZ" in quantities and "logZstar" in quantities
    assert any(q.startswith("z_n(") for q in quantities)


def test_oracle_mismatch_exits_with_invariant_code(monkeypatch, capsys):
    import cmshift.cli as climod
    import cmshift.oracle

    def fake_compare(cfg):
        return [("logZ", 1, 0.0, 1.0, 1.0, "FAIL")], False

    monkeypatch.setattr(cmshift.oracle, "compare_oracle", fake_compare)
    code = climod.main(["oracle", "--preset", "renewal-ones", "--truncate", "4"])
    assert code == 4
    assert "invariant breach" in capsys.readouterr().err


# -- in-place writer ------------------------------------------------------------------------

def _files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("command,args,horizons", [
    ("report", ["--preset", "sec52-entry", "--format", "json"], (60, 40, 60)),
    ("report", ["--preset", "sec52-entry", "--format", "csv"], (60, 40, 60)),
    ("hinf", ["--preset", "sec52-entry", "--truncate", "20", "--M", "4,8"], (32, 24, 32)),
    ("oracle", ["--preset", "renewal-ones", "--truncate", "5", "--M", "2,3"], (12, 6, 12)),
])
def test_out_files_rewritten_in_place_equal_fresh_runs(tmp_path, capsys, command,
                                                       args, horizons):
    # each file shrinks and then grows again in the same directory; a stale
    # tail from the longer run, or a missing cut, would differ from the file
    # that a run into a fresh directory writes
    shared = tmp_path / "shared"
    for i, N in enumerate(horizons):
        fresh = tmp_path / f"fresh-{i}"
        for d in (shared, fresh):
            assert main([command, *args, "--horizon", str(N), "--out", str(d)]) == EXIT_OK
        assert _files(shared) == _files(fresh), N
    sizes = [len(b) for b in _files(tmp_path / "fresh-0").values()]
    assert sizes != [len(b) for b in _files(tmp_path / "fresh-1").values()]


@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(old=st.binary(max_size=300),
       text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=200))
@example(old=b"x" * 100, text="")
@example(old=b"", text="abc\n")
def test_write_text_equals_write_text_into_a_fresh_file(tmp_path, old, text):
    fresh = tmp_path / "fresh"
    fresh.unlink(missing_ok=True)
    fresh.write_text(text)
    path = tmp_path / "old"
    path.write_bytes(old)
    _write_out(RunConfig(out=str(tmp_path)), {"old": text})
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_write_text_gives_a_new_file_the_mode_of_write_text(tmp_path, umask):
    previous = os.umask(umask)
    try:
        (tmp_path / "a").write_text("x")
        _write_out(RunConfig(out=str(tmp_path)), {"b": "x"})
    finally:
        os.umask(previous)
    assert (tmp_path / "b").stat().st_mode == (tmp_path / "a").stat().st_mode
    # an existing file keeps its mode, as under Path.write_text
    for name in ("a", "b"):
        (tmp_path / name).chmod(0o640)
    (tmp_path / "a").write_text("yy")
    _write_out(RunConfig(out=str(tmp_path)), {"b": "yy"})
    assert (tmp_path / "b").stat().st_mode == (tmp_path / "a").stat().st_mode


# -- spr on closed-form families --------------------------------------------------------------

def _closed_form_presets():
    from cmshift import zeta

    beta = 2.5
    return (["sec52-entry", "sec52-exit", "sec52-mid", "renewal-ones", "sec53(C=1e300)"]
            + [f"sec53(beta={beta},C={f / zeta(beta).value!r})" for f in (0.6, 1.0, 1.5)])


def _spr_line(verdict, P) -> str:
    return (f"spr: {verdict.verdict} (slope {_fmt(verdict.slope)}, "
            f"pressure {_fmt(P)}, tol {_fmt(verdict.tol)})"
            + (f": {verdict.reason}" if verdict.reason else ""))


def _refuse_sums(monkeypatch):
    import cmshift.thermo as thermo

    def refuse(*args, **kwargs):
        raise AssertionError("spr on a closed form needs no Z_n or fit")

    monkeypatch.setattr(thermo, "partition_sums_renewal", refuse)
    monkeypatch.setattr(thermo, "pressure_estimate", refuse)


@pytest.mark.parametrize("preset", _closed_form_presets())
def test_spr_on_a_closed_form_reads_only_zstar_and_the_analytic_pressure(
        monkeypatch, capsys, preset):
    from cmshift import thermo
    from cmshift.families import build_preset, log_weight_sequence

    weights = build_preset(preset).weights
    P = thermo.RenewalSeries(weights).pressure
    expected = {}
    for N in (5, 40, 200):
        sums = thermo.partition_sums_renewal(log_wstar=log_weight_sequence(weights, N), N=N)
        expected[N] = _spr_line(thermo.spr_check(sums.log_zstar, P), P)
    _refuse_sums(monkeypatch)
    for N in (5, 40, 200):
        assert main(["spr", "--preset", preset, "--horizon", str(N)]) == EXIT_OK
        assert capsys.readouterr().out == expected[N] + "\n"
    assert main(["spr", "--preset", preset, "--horizon", "4"]) == EXIT_CONFIG
    assert "horizon must be >= 5" in capsys.readouterr().err


def test_spr_refuses_an_out_of_reach_root_without_the_sums(monkeypatch, capsys):
    _refuse_sums(monkeypatch)
    assert main(["spr", "--preset", "sec53(beta=1.05,C=0.072878)",
                 "--horizon", "40"]) == EXIT_REFUSAL
    err = capsys.readouterr().err
    assert err.startswith("refused: analytic pressure: ")
    assert "pressure root out of reach" in err


# the bouquet of ROADMAP item 15: truncation 30, bouquet_entry at C = 0.1, beta = 3
_ONES30 = (dict(_ONES, truncate_len=30),
           {"memory": 2, "scheme": "bouquet_entry", "scheme_params": {"C": 0.1, "beta": 3}})


@pytest.mark.parametrize("source, horizon, calls, line", [
    # sec54's 16 tabulated returns are all it knows; its P is their fit
    ("sec54", 40, ["partition_sums_renewal", "pressure_estimate"],
     "spr: holds (slope -inf, pressure 0.526503217493, tol 0): "
     "only the tabulated returns are known"),
    # a finite graph is SPR; its slope stays as a cross-check
    ("full2", 12, ["partition_sums_transfer", "pressure_estimate"],
     "spr: holds (slope 0, pressure 0.69314718056, tol 0): finite graph")])
def test_spr_without_a_closed_form_goes_through_the_sums(monkeypatch, tmp_path, capsys,
                                                         source, horizon, calls, line):
    import cmshift.thermo as thermo

    if source == "sec54":
        argv = ["--preset", "sec54"]
    else:
        argv = _write_specs(tmp_path, _FULL2, {"memory": 1, "default": 0.0, "table": []})
    seen = []
    for name in ("partition_sums_renewal", "partition_sums_transfer", "pressure_estimate"):
        real = getattr(thermo, name)
        monkeypatch.setattr(thermo, name, lambda *a, real=real, name=name, **k:
                            seen.append(name) or real(*a, **k))
    assert main(["spr", *argv, "--horizon", str(horizon)]) == EXIT_OK
    assert seen == calls
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("horizon", [20, 30, 40])
def test_spr_on_loop_totals_reads_the_first_returns_without_the_sums(
        monkeypatch, tmp_path, capsys, horizon):
    # a bouquet with loop totals has its first returns Z*_1..Z*_30 in closed
    # form at every N, below its truncation too: P is their exact root, and
    # no partition sum is built
    argv = _write_specs(tmp_path, *_ONES30)
    _refuse_sums(monkeypatch)
    assert main(["spr", *argv, "--horizon", str(horizon)]) == EXIT_OK
    assert capsys.readouterr().out == \
        "spr: holds (slope -inf, pressure -1.04364427942, tol 1e-06)\n"


def _block_matrix(T, phi):
    # the weighted block graph of the transfer DP: the words of length
    # k = max(m - 1, 1), and u -> v of weight e^phi when v continues u
    m = phi.memory
    blocks = enumerate_words(T, max(m - 1, 1)).words
    W = np.zeros((len(blocks), len(blocks)))
    for i, u in enumerate(blocks):
        for j, v in enumerate(blocks):
            if u[1:] == v[:-1] and is_admissible(T, u + v[-1:]):
                W[i, j] = math.exp(phi.weight((u + v[-1:])[:m]))
    return blocks, W


def _rho(W, idx) -> float:
    return max(abs(np.linalg.eigvals(W[np.ix_(idx, idx)])), default=0.0)


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_finite_graph_is_spr_by_perron_frobenius(data):
    # a transitive 1-6 state graph of period d (a cycle through every state,
    # and chords that keep each step d-periodic), a memory 1-3 potential with
    # some -inf windows, so that the weighted support may be reducible
    S = data.draw(st.integers(min_value=1, max_value=6))
    d = data.draw(st.sampled_from([k for k in range(1, S + 1) if S % k == 0]))
    matrix = [[int(j == (i + 1) % S or (j - i - 1) % d == 0 and data.draw(st.booleans()))
               for j in range(S)] for i in range(S)]
    T = FiniteShift(matrix)
    memory = data.draw(st.integers(min_value=1, max_value=3))
    finite = st.floats(min_value=-3, max_value=1)
    weights = st.one_of(finite, finite, finite, st.just(-math.inf))
    table = [{"word": [str(s) for s in w], "value": data.draw(weights)}
             for w in enumerate_words(T, memory).words if data.draw(st.booleans())]
    pot = {"memory": memory, "default": data.draw(finite), "table": table}
    # a closed walk through an anchor block stays in that block's class C;
    # C without the anchor's blocks has a strictly smaller Perron root
    phi = parse_potential_spec(pot, T)
    blocks, W = _block_matrix(T, phi)
    reach = W > 0
    for k in range(len(blocks)):
        reach |= reach[:, [k]] & reach[[k], :]
    anchor = {i for i, u in enumerate(blocks) if u[0] == T.state_of_order(1)}
    classes = {tuple(j for j in range(len(blocks)) if reach[i, j] and reach[j, i])
               for i in anchor if reach[i, i]}
    for C in classes:
        assert _rho(W, [j for j in C if j not in anchor]) < _rho(W, list(C))
    if classes:
        assert max(_rho(W, [j for j in C if j not in anchor]) for C in classes) \
            < max(_rho(W, list(C)) for C in classes)
    # spr holds at every horizon with a finite P, and is inconclusive without
    with tempfile.TemporaryDirectory() as tmp:
        shift, potential = _write_specs(Path(tmp), {"kind": "finite", "matrix": matrix},
                                        pot)[1::2]
        for N in range(5, 13):
            run = _Run(RunConfig(shift=shift, potential=potential, horizon=N))
            finite = [n for n, v in enumerate(run.sums.log_z, 1) if math.isfinite(v)]
            if len(finite) == 1 and 2 * finite[0] > N:  # one length fits no P
                with pytest.raises(ConfigError, match="one length fits no pressure"):
                    run.spr
                continue
            spr = run.spr
            if math.isfinite(run.P):  # some Z_n > 0: the anchor lies on a weighted cycle
                assert classes
                assert (spr.verdict, spr.tol, spr.reason) == ("holds", 0.0, "finite graph")
            else:
                assert (spr.verdict, spr.reason) == ("inconclusive",
                                                     "the pressure is not finite")


def test_the_40_state_ladder_reads_holds(tmp_path, capsys):
    # a finite graph is SPR however small its gap: the 40-state ladder
    # (r = 0.3, u = d = 0.5; gap about 3.5e-4) once read inconclusive at
    # N = 60 and fails at N = 240
    K, (r, u, d) = 40, (0.3, 0.5, 0.5)
    matrix = [[int(j == i + 1 or j == i - 1 or i == j == 0) for j in range(K)]
              for i in range(K)]
    table = [{"word": [1, 1], "value": math.log(r)}]
    for i in range(1, K):
        table += [{"word": [i, i + 1], "value": math.log(u)},
                  {"word": [i + 1, i], "value": math.log(d)}]
    specs = _write_specs(tmp_path, {"kind": "finite", "matrix": matrix},
                         {"memory": 2, "default": 0.0, "table": table})
    for N in (60, 240):
        assert main(["spr", *specs, "--horizon", str(N)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("spr: holds (") and out.endswith(", tol 0): finite graph\n")


# -- exit-code fuzz --------------------------------------------------------------------------

def _leaf_types(doc) -> set:
    # the types of the leaves of a loaded JSON document; every key is a str
    if isinstance(doc, dict):
        assert all(isinstance(k, str) for k in doc)
        doc = list(doc.values())
    if isinstance(doc, list):
        return set().union(*map(_leaf_types, doc))
    return {type(doc)}


def _fuzz_system(data):
    # a transitive 1-6 state matrix (a cycle through every state, sometimes
    # nothing else) with its spec, a list bouquet with a(1) <= 1, or the spec
    # alone of a geometric bouquet of ratio up to 2**600 (past the float
    # range), which may have no loop (a(1) = 0 at truncation 1)
    kind = data.draw(st.sampled_from(["finite", "list", "geometric"]))
    if kind == "geometric":
        r = data.draw(st.sampled_from([2, 3, 2**64, 2**600]))
        a1 = data.draw(st.integers(min_value=0, max_value=1))
        L = data.draw(st.integers(min_value=1, max_value=4))
        spec = {"kind": "bouquet", "a": {"form": "geometric", "r": r, "a1": a1},
                "truncate_len": L}
        return None, spec
    if kind == "finite":
        S = data.draw(st.integers(min_value=1, max_value=6))
        pure = data.draw(st.booleans())
        matrix = [[int(j == (i + 1) % S or (not pure and data.draw(st.booleans())))
                   for j in range(S)] for i in range(S)]
        return FiniteShift(matrix), {"kind": "finite", "matrix": matrix}
    L = data.draw(st.integers(min_value=1, max_value=5))
    values = [data.draw(st.integers(min_value=0, max_value=1))] + [
        data.draw(st.integers(min_value=0, max_value=2)) for _ in range(L - 1)]
    if not any(values):
        values[-1] = 1
    spec = {"kind": "bouquet", "a": {"form": "list", "values": values},
            "truncate_len": L}
    return BouquetShift(LoopCountFamily("list", values=tuple(values)), L), spec


def _fuzz_potential(data, T):
    # weighted or zero potentials of memory 1-3, or 1-4 on at most 4 states;
    # a bouquet scheme on a geometric bouquet (T None), whose r**n loops of
    # length n enumerate_words refuses to list for a table (_BRANCH_CAP)
    if T is None:
        return {"memory": 2, "scheme": data.draw(st.sampled_from(sorted(_SCHEMES))),
                "scheme_params": {"C": data.draw(st.sampled_from([0.5, 1.0, 2.0])),
                                  "beta": data.draw(st.sampled_from([0, 2, 3]))}}
    memory = data.draw(st.sampled_from([1, 2, 3, 4] if T.state_count() <= 4 else [1, 2, 3]))
    weights = st.integers(min_value=-24, max_value=8).map(lambda k: k / 8)
    if data.draw(st.booleans()):
        return {"memory": memory, "default": 0.0, "table": []}
    table = [{"word": [str(s) for s in w], "value": data.draw(weights)}
             for w in enumerate_words(T, memory).words if data.draw(st.booleans())]
    return {"memory": memory, "default": data.draw(weights), "table": table}


_PRESET_VALUES = st.sampled_from(["3", "2", "0", "-1", "1.5", "1e300", "1e-300", "inf",
                                  "nan", "auto", "abc", "[]", "[1,2]", "[0,0.5]", "[x]"])


def _fuzz_preset(data):
    # a preset expression, well formed or not: any name, positional and
    # keyword arguments of any kind, brackets that may not close
    name = data.draw(st.sampled_from(["sec52-entry", "sec52-mid", "sec53", "sec54",
                                      "renewal-ones", "sec99"]))
    args = data.draw(st.lists(st.one_of(
        _PRESET_VALUES,
        st.tuples(st.sampled_from(["beta", "C", "a1", "psi", "x"]), _PRESET_VALUES)
        .map("=".join)), max_size=3))
    text = f"{name}({','.join(args)})" if args or data.draw(st.booleans()) else name
    return data.draw(st.sampled_from([text, text, text[:-1], text + ")", " " + text]))


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exit_codes_fuzz(data):
    # every input ends in a documented exit code, without a traceback, and
    # within 10 s; no memory-3 or memory-4 report has a memory skip
    memory = None
    if data.draw(st.booleans()):
        source = ["--preset", _fuzz_preset(data)]
        truncate = data.draw(st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
        if truncate is not None:
            source += ["--truncate", str(truncate)]
        commands = ["report", "pressure", "spr", "hinf", "oracle"]
    else:
        T, shift = _fuzz_system(data)
        pot = _fuzz_potential(data, T)
        memory = pot["memory"]
        commands = ["report", "pressure", "spr", "hinf"]
    command = data.draw(st.sampled_from(commands))
    horizon = data.draw(st.sampled_from(range(1, 41)))
    small = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2)
    q, M = data.draw(small), data.draw(small)
    with tempfile.TemporaryDirectory() as tmp:
        if memory is not None:
            source = _write_specs(Path(tmp), shift, pot)
        argv = [command, *source, "--horizon", str(horizon),
                "--q", ",".join(map(str, q)), "--M", ",".join(map(str, M))]
        if command in ("report", "hinf"):
            argv += ["--out", str(Path(tmp) / "out")]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        elapsed = time.perf_counter() - start
        report = Path(tmp) / "out" / "report.json"
        if command == "report" and code == EXIT_OK and memory in (3, 4):
            assert "memory <= 2" not in report.read_text(), argv
        if report.exists():  # str keys, JSON leaves, no bare NaN or Infinity
            doc = json.loads(report.read_text(),
                             parse_constant=lambda c: pytest.fail(f"bare {c}: {argv}"))
            assert _leaf_types(doc) <= {float, int, str, bool, type(None)}, argv
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_REFUSAL, EXIT_INVARIANT), argv
    assert elapsed < 10.0, (argv, elapsed)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_keeps_the_exit_code(unbuffered):
    # the reader closes the pipe before the child prints: the summary lines
    # go nowhere, and the report still exits 0 with nothing on stderr, whether
    # the lines meet the broken pipe as they are printed or at the last flush
    import subprocess
    import sys

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "cmshift.cli", "report", "--preset",
                              "sec53(beta=3,C=auto)", "--horizon", "40"],
                             stdout=write_end, stderr=subprocess.PIPE, text=True,
                             timeout=120, env=env)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (EXIT_OK, "")


# -- the graph stage ------------------------------------------------------------------------

def _count_graph_calls(monkeypatch) -> Counter:
    # index_graph in every module that imports it, and IndexedGraph.weighted
    import sys

    from cmshift.shift import IndexedGraph

    calls = Counter()
    index, weighted = cmshift.shift.index_graph, IndexedGraph.weighted

    def spy_index(*args, **kwargs):
        calls["index_graph"] += 1
        return index(*args, **kwargs)

    def spy_weighted(graph, phi):
        calls["weighted"] += 1
        return weighted(graph, phi)

    for module in [m for key, m in sys.modules.items() if key.startswith("cmshift")]:
        if getattr(module, "index_graph", None) is index:
            monkeypatch.setattr(module, "index_graph", spy_index)
    monkeypatch.setattr(IndexedGraph, "weighted", spy_weighted)
    return calls


_FOUR_M3 = {"memory": 3, "default": -0.5, "table": [
    {"word": list(w), "value": v} for w, v in (
        ((1, 1, 1), 0.25), ((1, 2, 2), -1.5), ((2, 3, 4), 0.125),
        ((3, 4, 4), -0.75), ((4, 4, 1), 0.5), ((4, 2, 3), -2.0))]}
_ZERO1 = {"memory": 1, "default": 0.0, "table": []}


@pytest.mark.parametrize("specs, grid, report, alone", [
    # memory 2: every DP runs on the states
    (_FOUR_STATES, ["--q", "1,2,3", "--M", "2,4,8"], (1, 1),
     {"hinf": (1, 0), "pressure": (1, 1), "spr": (1, 1)}),
    # memory 3: the 2-block graph, and the states for the sweep's counts
    ((_FOUR_STATES[0], _FOUR_M3), ["--q", "1,2", "--M", "1,3"], (2, 1),
     {"hinf": (1, 0), "pressure": (1, 1), "spr": (1, 1)}),
    # a zero potential: the transfer sums count paths, the others weigh
    ((_FULL2, _ZERO1), [], (1, 1), {"hinf": (1, 0), "pressure": (1, 0), "spr": (1, 0)}),
])
def test_a_finite_report_lists_and_weighs_its_graph_once_per_block_length(
        monkeypatch, tmp_path, capsys, specs, grid, report, alone):
    calls = _count_graph_calls(monkeypatch)
    args = [*_write_specs(tmp_path, *specs), "--horizon", "12", *grid]
    assert main(["report", *args]) == EXIT_OK
    assert (calls["index_graph"], calls["weighted"]) == report
    for command, want in alone.items():
        calls.clear()
        assert main([command, *args]) == EXIT_OK
        assert (calls["index_graph"], calls["weighted"]) == want, command
    capsys.readouterr()


_DYADIC = st.integers(-16, 8).map(lambda k: k / 8)


@st.composite
def _stage_inputs(draw):
    # a transitive 1-6 state finite shift (a cycle and random edges) or a
    # list bouquet, and a table potential of memory 1-3 on its words: no
    # scheme, so a bouquet has no loop totals and runs the state DPs
    if draw(st.booleans()):
        S = draw(st.integers(1, 6))
        matrix = [[int(j == (i + 1) % S or draw(st.booleans())) for j in range(S)]
                  for i in range(S)]
        shift = {"kind": "finite", "matrix": matrix}
    else:
        values = [draw(st.integers(0, 1))] + draw(st.lists(st.integers(0, 2), max_size=4))
        if not any(values):
            values[-1] = 1
        shift = {"kind": "bouquet", "a": {"form": "list", "values": values},
                 "truncate_len": len(values)}
    # weights k/8, and in one potential of two some of -0.0, +inf and -inf
    # (a period through both infinities is a refusal of both runs)
    specials = draw(st.sampled_from([(), (-0.0,), (math.inf, -0.0), (-math.inf, -0.0),
                                     (math.inf, -math.inf, -0.0)]))
    weights = st.one_of(_DYADIC, _DYADIC, st.sampled_from(specials)) if specials else _DYADIC
    memory = draw(st.integers(1, 3))
    words = enumerate_words(parse_shift_spec(shift), memory)
    table = [{"word": [repr(s) for s in w], "value": draw(weights)}
             for w in words if draw(st.booleans())]
    potential = {"memory": memory, "default": draw(weights), "table": table}
    q = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    M = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    return shift, potential, q, M, draw(st.integers(5, 12))


def _outcome(cfg):
    try:
        return repr(run_report(cfg))
    except (ConfigError, EnumerationRefusal) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=60)
@given(case=_stage_inputs())
def test_a_report_with_the_graph_stage_equals_one_without_it(case):
    # each DP given the run's graphs returns what it returns alone, where it
    # lists and weighs its own graph: same report, same refusal
    shift, potential, q, M, N = case
    with tempfile.TemporaryDirectory() as tmp:
        _write_specs(Path(tmp), shift, potential)
        cfg = RunConfig(shift=str(Path(tmp) / "shift.json"),
                        potential=str(Path(tmp) / "pot.json"), horizon=N, q=q, M=M)
        staged = _outcome(cfg)
        with patch.object(_Run, "graphs", property(lambda run: None)):
            alone = _outcome(cfg)
    assert staged == alone


def test_a_shared_graph_keeps_each_dp_cap(tmp_path, capsys):
    # the 4,096 states of the ones bouquet at truncation 91 are within the
    # cap of the DPs linear in them, which list the graph, and above the
    # profile sweep's, which refuses the listed graph in its own words
    from cmshift.shift import SWEEP_STATE_CAP

    specs = _write_specs(tmp_path, dict(_ONES, truncate_len=91),
                         {"memory": 2, "default": -0.5,
                          "table": [{"word": ["r", "r"], "value": 0.25}]})
    assert BouquetShift(LoopCountFamily("ones"), 91).state_count() == 4096 > SWEEP_STATE_CAP
    out = tmp_path / "out"
    assert main(["report", *specs, "--horizon", "8", "--q", "1,2", "--out", str(out)]) \
        == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    text = "profile state sweep runs on at most 4000 states (this system has 4096)"
    assert report["profiles"] == {"delta": {"skipped": text}, "hinf": {"skipped": text}}
    assert report["chi_per"]["value"] == 0.25 and "lambda_q" in report["crc"]
    capsys.readouterr()
