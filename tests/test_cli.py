"""Command-line front-end: subcommands, exit codes, byte-stable reports."""

import json
import math
import time

import pytest

from cmshift.cli import (EXIT_CONFIG, EXIT_OK, EXIT_REFUSAL, RunConfig,
                         compare_oracle, main, run_report)
from cmshift.specio import ConfigError

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


def test_config_error_exit_codes(capsys, tmp_path):
    assert main(["report", "--preset", "sec52-entry", "--horizon", "0"]) \
        == EXIT_CONFIG
    assert main(["report", "--preset", "nope-such-preset"]) == EXIT_CONFIG
    # unknown keys in a config document are rejected
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"preset": "sec52-entry", "horizont": 10}))
    assert main(["report", "--config", str(cfgfile)]) == EXIT_CONFIG


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


def test_chi_per_refuses_before_enumerating(tmp_path, monkeypatch, capsys):
    # the full 3-shift has 3^12 > 500000 periodic words of period 13 through
    # each state.  A memory-1 potential is an edge weight, so chi_per runs
    # the max-plus DP and builds no periodic word list at all; a memory-3
    # potential is enumerated, and the count is taken before any word is built
    import cmshift.shift
    import cmshift.thermo

    def never(*args, **kwargs):
        raise AssertionError("periodic words were enumerated")

    monkeypatch.setattr(cmshift.shift, "periodic_points", never)
    monkeypatch.setattr(cmshift.thermo, "periodic_points", never)
    shift = {"kind": "finite", "matrix": [[1, 1, 1]] * 3}
    (tmp_path / "shift.json").write_text(json.dumps(shift))
    argv = ["report", "--shift", str(tmp_path / "shift.json"),
            "--potential", str(tmp_path / "pot.json"), "--horizon", "13",
            "--q", "1", "--M", "2", "--out", str(tmp_path / "out")]
    (tmp_path / "pot.json").write_text(
        json.dumps({"memory": 1, "default": 0.0, "table": []}))
    assert main(argv) == EXIT_OK
    assert "chi_per: 0\n" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["chi_per"] == {"period": 1, "value": 0.0}
    (tmp_path / "pot.json").write_text(
        json.dumps({"memory": 3, "default": 0.0, "table": []}))
    assert main(argv) == EXIT_REFUSAL
    assert "more than 500000 periodic words of period 13" \
        in capsys.readouterr().err


def test_memory3_weights_refuse_edge_weight_dps(tmp_path, capsys):
    # a weighted memory-3 potential has no edge weights for the transfer
    # sums: the report refuses and names the memory limit
    shift = {"kind": "finite", "matrix": [[1, 1, 1]] * 3}
    (tmp_path / "shift.json").write_text(json.dumps(shift))
    argv = ["report", "--shift", str(tmp_path / "shift.json"),
            "--potential", str(tmp_path / "pot.json"), "--horizon", "6",
            "--q", "1", "--M", "2", "--out", str(tmp_path / "out")]
    (tmp_path / "pot.json").write_text(json.dumps({"memory": 3, "default": -0.5}))
    assert main(argv) == EXIT_REFUSAL
    assert "memory <= 2 (got memory 3)" in capsys.readouterr().err
    # a zero memory-3 potential counts paths instead; the contraction
    # profile and the delta grid, which need edge weights, are skipped
    (tmp_path / "pot.json").write_text(json.dumps({"memory": 3, "default": 0.0}))
    assert main(argv) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["chi_per"] == {"period": 1, "value": 0.0}
    assert "memory <= 2" in report["crc"]["skipped"]
    assert "memory <= 2" in report["profiles"]["delta"]["skipped"]
    assert "rows" in report["profiles"]["hinf"]


def test_oracle_subcommand_passes(tmp_path, capsys):
    code = main(["oracle", "--preset", "renewal-ones", "--truncate", "5",
                 "--horizon", "12", "--M", "2,3", "--q", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "all rows pass" in capsys.readouterr().out
    assert (tmp_path / "oracle.csv").exists()


def test_oracle_refuses_large_truncation(capsys):
    code = main(["oracle", "--preset", "sec52-entry", "--truncate", "12"])
    assert code == EXIT_REFUSAL


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


def test_compare_oracle_rows_structure():
    cfg = RunConfig(preset="renewal-ones", truncate=4, horizon=8, M=[2], q=[1])
    rows, ok = compare_oracle(cfg)
    assert ok
    quantities = {r[0] for r in rows}
    assert "logZ" in quantities and "logZstar" in quantities
    assert any(q.startswith("z_n(") for q in quantities)


def test_oracle_mismatch_exits_with_invariant_code(monkeypatch, capsys):
    import cmshift.cli as climod

    def fake_compare(cfg):
        return [("logZ", 1, 0.0, 1.0, 1.0, "FAIL")], False

    monkeypatch.setattr(climod, "compare_oracle", fake_compare)
    code = climod.main(["oracle", "--preset", "renewal-ones", "--truncate", "4"])
    assert code == 4
    assert "invariant breach" in capsys.readouterr().err
