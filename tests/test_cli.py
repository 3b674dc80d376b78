"""CLI surface: subcommands, exit codes, output formats."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import cvswap.analytics
import cvswap.swap
from cvswap import (ConfigFile, ExperimentParams, GainSpec, VarianceReport, montecarlo,
                    run_experiment)
from cvswap.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PHYSICS, EXIT_VERIFY, SWEEP_BLOCK_CELLS,
                        VERIFY_CHUNK, build_parser, main)
from conftest import LAB_INTENSITIES, LAB_R1, LAB_R2


@pytest.fixture
def config_path(tmp_path, lab_config_text):
    path = tmp_path / "bench.yaml"
    path.write_text(lab_config_text)
    return str(path)


def run(argv):
    return main(argv)


def _is_usage_error(argv, capsys, message):
    """``argv`` exits 2 through argparse: its usage, then one error line holding ``message``;
    nothing reads as a config error. Returns the captured output."""
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    assert excinfo.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("usage: cvswap ") and message in err.splitlines()[-1], err
    assert "config error:" not in err and "Traceback" not in err
    return captured


# -- predict ---------------------------------------------------------------------


def test_predict_text_output(config_path, capsys):
    assert run(["predict", "--config", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "g_swap    = 0.740934" in out
    assert "v_plus    = 0.718797" in out
    assert "-1.434 dB" in out
    assert "entangled = yes" in out
    assert "ENL-corrected" in out


def test_predict_json_output(config_path, capsys):
    assert run(["predict", "--config", config_path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    fields = [f.name for f in dataclasses.fields(VarianceReport)]
    assert list(payload)[:len(fields)] == fields  # the report is the head of the payload
    assert payload["g_swap"] == pytest.approx(0.740934, abs=1e-5)
    assert payload["v_plus"] == pytest.approx(0.718797, abs=1e-5)
    assert payload["v_plus"] == payload["v_minus"]
    assert payload["entangled"] is True
    assert payload["g_electronic"] == pytest.approx(7.930, abs=1e-2)
    assert payload["enl_corrected_db_below_snl"]["v_plus"] == pytest.approx(1.572, abs=1e-2)


def test_predict_reports_an_undefined_enl_correction(tmp_path, lab_config_text, capsys):
    # a floor 0.5 dB below SNL sits above V = 0.719: only the corrected depths are undefined
    path = tmp_path / "shallow-floor.yaml"
    path.write_text(lab_config_text.replace("enl_db: 11.3", "enl_db: 0.5"))
    assert run(["predict", "--config", str(path), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["v_plus"] == pytest.approx(0.718797, abs=1e-5)
    assert payload["entangled"] is True
    assert payload["enl_db"] == 0.5
    assert payload["enl_corrected_db_below_snl"] == {"v_plus": None, "v_minus": None}
    assert run(["predict", "--config", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "v_plus    = 0.718797" in out and "entangled = yes" in out
    assert ("ENL-corrected (0.5 dB below SNL): v_plus undefined (at or below the noise floor), "
            "v_minus undefined (at or below the noise floor)") in out


@pytest.mark.parametrize(("config", "lines"), [
    # the e^{+-2r} terms cancel to a V far below six decimals
    ("squeezing: {r1: 10, r2: 10}\n"
     "efficiencies: {xi1_sq: 1, xi2_sq: 1, xi3_sq: 1, xi4_sq: 1, eta_sq: 1}\n"
     "mirror_R: 0.99999999\ngain: {mode: optimal}\n",
     ["v_plus    = 1.06384", "e-08 (-79.731 dB)", "g_swap_opt = 1.000000"]),
    # V near 1e171 would print as a 172-digit integer
    ("squeezing: {r1: 200, r2: 1}\n"
     "efficiencies: {xi1_sq: 0.98, xi2_sq: 0.98, xi3_sq: 0.98, xi4_sq: 0.98, eta_sq: 0.98}\n"
     "mirror_R: 0.98\ngain: {mode: fixed, value: 0.9}\n",
     ["v_plus    = 1.253675e+171 (+1710.982 dB)", "v_minus   = 1.253675e+171",
      "(margin -1.2537e+171)"]),
])
def test_predict_prints_far_values_in_scientific_notation(tmp_path, capsys, config, lines):
    path = tmp_path / "far.yaml"
    path.write_text(config)
    assert run(["predict", "--config", str(path)]) == EXIT_OK
    if any(line.startswith("g_swap_opt") for line in lines):
        assert run(["optimal-gain", "--config", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert all(line in out for line in lines), out
    assert max(map(len, out.splitlines())) < 80


def test_predict_blocked_config(tmp_path, lab_config_text, capsys):
    path = tmp_path / "blocked.yaml"
    path.write_text(lab_config_text + "blocked: true\n")
    assert run(["predict", "--config", str(path), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["v_plus"] == pytest.approx(1.620, abs=1e-3)
    assert payload["entangled"] is False
    assert payload["g_swap"] == 0.0


@pytest.mark.parametrize(("gain", "extra"), [("optimal", ""), ("optimal", "blocked: true\n"),
                                             ("fixed\n  value: 1.6", "")])
def test_predict_json_head_is_the_report_as_asdict(tmp_path, lab_config_text, capsys, gain, extra):
    path = tmp_path / "bench.yaml"
    path.write_text(lab_config_text.replace("mode: optimal", f"mode: {gain}") + extra)
    assert run(["predict", "--config", str(path), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    head = dataclasses.asdict(run_experiment(ConfigFile.load(path).to_params()))
    assert list(payload.items())[:len(head)] == list(head.items())


def test_predict_zero_squeezing_not_entangled(tmp_path, lab_config_text, capsys):
    path = tmp_path / "quiet.yaml"
    path.write_text(
        lab_config_text.replace("r1: 0.564", "r1: 0.0").replace("r2: 0.587", "r2: 0.0")
    )
    assert run(["predict", "--config", str(path), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["v_plus"] >= 1.0 - 1e-12
    assert payload["entangled"] is False


def test_predict_writes_csv(config_path, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run(["predict", "--config", config_path, "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 1
    assert float(rows[0]["v_plus"]) == pytest.approx(0.718797, abs=1e-5)


def test_predict_requires_config(capsys):
    _is_usage_error(["predict"], capsys, "error: the following arguments are required: --config")


def test_predict_missing_file(capsys):
    assert run(["predict", "--config", "/nonexistent/x.yaml"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_predict_bad_yaml(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("squeezing: {r1: [oops\n")
    assert run(["predict", "--config", str(path)]) == EXIT_CONFIG
    assert "syntax error" in capsys.readouterr().err


def test_predict_schema_violation(tmp_path, lab_config_text, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(lab_config_text + "color: blue\n")
    assert run(["predict", "--config", str(path)]) == EXIT_CONFIG
    assert "unknown top-level key" in capsys.readouterr().err


def test_predict_physics_rejection(tmp_path, lab_config_text, capsys):
    # schema-valid but physically unbuildable: feedforward through a sealed mirror
    path = tmp_path / "sealed.yaml"
    path.write_text(
        lab_config_text.replace("mirror_R: 0.98", "mirror_R: 1.0").replace(
            "mode: optimal", "mode: fixed\n  value: 0.5"
        )
    )
    assert run(["predict", "--config", str(path)]) == EXIT_PHYSICS
    assert "physics rejection" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("squeezing", "code", "message"),
    [
        ("r1: .nan", EXIT_CONFIG, "squeezing.r1: expected a finite number"),
        ("r1: .inf", EXIT_CONFIG, "squeezing.r1: expected a finite number"),
        ("r1: 200", EXIT_PHYSICS, "outside floating-point range"),
        ("r1_db: 5000", EXIT_PHYSICS, "outside floating-point range"),
    ],
)
def test_predict_extreme_squeezing_exits_cleanly(
    tmp_path, lab_config_text, capsys, squeezing, code, message
):
    path = tmp_path / "extreme.yaml"
    path.write_text(lab_config_text.replace("r1: 0.564", squeezing))
    assert run(["predict", "--config", str(path)]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


_FIXED = "mode: fixed\n  value: "


@pytest.mark.parametrize(
    "edits",
    [
        [("mode: optimal", _FIXED + "1e300")],                      # the covariance overflows
        [("r2: 0.587", "r2: 1e308"), ("enl_db: 11.3", "blocked: true")],  # inf times 0
        [("mode: optimal", _FIXED + "1.7e308")],                    # the electronic gain is inf
        [("xi1_sq: 0.970", "xi1_sq: 5e-324"), ("mode: optimal", _FIXED + "0.3")],
    ],
    ids=["gain-1e300", "r2-1e308-blocked", "gain-1.7e308", "xi1_sq-5e-324"],
)
@pytest.mark.parametrize(
    "command",
    [["predict"], ["predict", "--json"], ["montecarlo", "--kind", "single_mode_dprime"],
     ["verify"]],
    ids=["predict", "predict-json", "montecarlo", "verify"],
)
def test_non_finite_network_result_exits_3(tmp_path, lab_config_text, capsys, edits, command):
    # the oracle's variances and the electronic gain are never inf or nan
    text = lab_config_text
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "extreme.yaml"
    path.write_text(text)
    argv = command + ["--config", str(path)]
    if command[0] == "montecarlo":
        argv += ["--out", str(tmp_path / "trace.csv")]
    assert run(argv) == EXIT_PHYSICS
    captured = capsys.readouterr()
    assert "result outside floating-point range" in captured.err
    assert "Traceback" not in captured.err
    assert not any(word in captured.out.lower() for word in ("inf", "nan"))


_SQ_KEYS = ("xi1_sq: 0.970", "xi2_sq: 0.950", "xi3_sq: 0.966", "xi4_sq: 0.968", "eta_sq: 0.90")


@pytest.mark.parametrize(
    ("line", "edit", "message"),
    [
        ("r1: 0.564", "r1: -0.1", "squeezing.r1: must be >= 0"),
        ("r1: 0.564", "r1_db: -3", "squeezing depth must be >= 0"),
        *[(line, line.split(":")[0] + f": {bad}", line.split(":")[0] + ": must be in [0, 1]")
          for line in _SQ_KEYS for bad in (-0.1, 1.2)],
        ("mirror_R: 0.98", "mirror_R: -0.5", "mirror_R: must be in [0, 1]"),
        ("mirror_R: 0.98", "mirror_R: 1.5", "mirror_R: must be in [0, 1]"),
        ("mode: optimal", "mode: fixed\n  value: -0.5", "gain.value: must be >= 0"),
        ("enl_db: 11.3", "enl_db: 0", "enl_db must be a positive dB depth"),
        ("enl_db: 11.3", "enl_db: -3", "enl_db must be a positive dB depth"),
        pytest.param("mirror_R: 0.98", "mirror_R: 1" + "0" * 400,
                     "mirror_R: expected a finite number", id="mirror_R-401-digit-integer"),
    ],
)
def test_config_range_error_exits_2(tmp_path, lab_config_text, capsys, line, edit, message):
    path = tmp_path / "range.yaml"
    path.write_text(lab_config_text.replace(line, edit))
    assert run(["predict", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert message in err
    assert "Traceback" not in err


# -- optimal-gain ------------------------------------------------------------------


def test_optimal_gain_command(config_path, capsys):
    assert run(["optimal-gain", "--config", config_path]) == EXIT_OK
    assert "g_swap_opt = 0.740934" in capsys.readouterr().out


def test_optimal_gain_json(config_path, capsys):
    assert run(["optimal-gain", "--config", config_path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["g_swap_opt"] == pytest.approx(0.740934, abs=1e-5)


def test_optimal_gain_through_sealed_mirror_is_physics_rejection(tmp_path, lab_config_text, capsys):
    # the same rule as predict: a gain > 0 needs an electronic gain, and R = 1 has no port
    path = tmp_path / "sealed.yaml"
    path.write_text(lab_config_text.replace("mirror_R: 0.98", "mirror_R: 1"))
    for command in ("optimal-gain", "predict"):
        assert run([command, "--config", str(path)]) == EXIT_PHYSICS
        captured = capsys.readouterr()
        assert "mirror_R = 1 leaves no feedforward port" in captured.err
        assert captured.out == ""


def test_optimal_gain_without_feedforward_reports_no_electronic_gain(
    tmp_path, lab_config_text, capsys
):
    path = tmp_path / "dark.yaml"
    path.write_text(lab_config_text.replace("eta_sq: 0.90", "eta_sq: 0"))
    assert run(["optimal-gain", "--config", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"g_swap_opt": 0.0}


# -- sweep --------------------------------------------------------------------------


def test_sweep_grid(config_path, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert run([
        "sweep", "--config", config_path,
        "--r1", "0.564", "1.0", "--r2", "0.587", "1.0",
        "--steps", "3", "--out", str(out),
    ]) == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 9  # steps squared
    star = [r for r in rows if float(r["r1"]) == 0.564 and float(r["r2"]) == 0.587]
    assert len(star) == 1
    assert float(star[0]["v_snl"]) == pytest.approx(0.719, abs=1e-3)
    assert all(float(r["v_snl"]) > 0 for r in rows)


def test_sweep_unwritable_output_path(config_path, capsys):
    code = run([
        "sweep", "--config", config_path,
        "--r1", "0", "1", "--r2", "0", "1", "--steps", "2",
        "--out", "/nonexistent-dir/grid.csv",
    ])
    assert code == 1
    assert "i/o error" in capsys.readouterr().err


def test_sweep_requires_out_and_steps(config_path, tmp_path, capsys):
    _is_usage_error([
        "sweep", "--config", config_path,
        "--r1", "0", "1", "--r2", "0", "1", "--steps", "3",
    ], capsys, "error: the following arguments are required: --out")
    out = tmp_path / "x.csv"
    _is_usage_error([
        "sweep", "--config", config_path,
        "--r1", "0", "1", "--r2", "0", "1", "--steps", "1", "--out", str(out),
    ], capsys, "error: argument --steps: must be >= 2, got 1")
    assert not out.exists()


def test_sweep_csv_format_and_values(config_path, tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["--r1", "0.0", "1.2", "--r2", "0.3", "0.9", "--steps", "3"]
    assert run(["sweep", "--config", config_path, *argv, "--out", str(out)]) == EXIT_OK
    params = ConfigFile.load(config_path).to_params()
    r1s, r2s = np.linspace(0.0, 1.2, 3), np.linspace(0.3, 0.9, 3)
    values = cvswap.analytics.sweep_surface(params, r1s, r2s)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["r1", "r2", "v_snl"])
    for i, r1 in enumerate(r1s):
        for j, r2 in enumerate(r2s):
            writer.writerow([repr(float(r1)), repr(float(r2)), repr(float(values[i, j]))])
    assert out.read_bytes() == expected.getvalue().encode()
    # the broadcast values may differ from the scalar path only in the last ulp
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    for row in rows:
        r1, r2, value = map(float, row)
        point = replace(params, r1=r1, r2=r2)
        scalar = cvswap.analytics.variance_formula(point, cvswap.analytics.optimal_gain(point))
        assert value == pytest.approx(scalar, rel=1e-12, abs=0.0)


def _csv_writer_grid(params, r1s, r2s) -> bytes:
    """The reference rendering: csv.writer over repr floats of analytics.sweep_surface."""
    values = cvswap.analytics.sweep_surface(params, r1s, r2s)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["r1", "r2", "v_snl"])
    for r1, row in zip(r1s.tolist(), values.tolist()):
        for r2, value in zip(r2s.tolist(), row):
            writer.writerow([repr(r1), repr(r2), repr(value)])
    return expected.getvalue().encode()


@pytest.mark.parametrize(("r1", "r2", "steps", "cells", "partial"), [
    # 2 x 2; zero takes repr's path
    pytest.param(("0.0", "1.5"), ("0.0", "1.5"), 2, "0.0,0.0,", True, id="r10-r20-2-0.0,0.0,"),
    # V >= 1e16 is written in exponent form
    pytest.param(("0", "40"), ("0", "40"), 9, "e+", True, id="r11-r21-9-e+"),
    # a full block of rows, then a partial one
    pytest.param(("0.1", "1.3"), ("0.2", "0.9"), 70, "", True, id="r12-r22-70-"),
    (("0", "1.5"), ("0", "1.5"), 128, "", False),  # four full blocks of 32 rows
    # one block whose values have 0 to 16 digits before the point, and exponent forms
    (("0", "24"), ("0", "24"), 40, "e+16", True),
])
def test_sweep_csv_is_csv_writer_bytes(config_path, tmp_path, r1, r2, steps, cells, partial):
    assert bool(steps % (SWEEP_BLOCK_CELLS // steps)) == partial  # is the last block partial
    out = tmp_path / "grid.csv"
    argv = ["--r1", *r1, "--r2", *r2, "--steps", str(steps), "--out", str(out)]
    assert run(["sweep", "--config", config_path, *argv]) == EXIT_OK
    params = ConfigFile.load(config_path).to_params()
    expected = _csv_writer_grid(params, np.linspace(float(r1[0]), float(r1[1]), steps),
                                np.linspace(float(r2[0]), float(r2[1]), steps))
    assert out.read_bytes() == expected
    assert cells in out.read_text()


@pytest.mark.parametrize(
    ("edit", "axes", "message"),
    [
        (("xi4_sq: 0.968", "xi4_sq: 0"), ("0", "1"), "degenerate gain denominator"),
        pytest.param(None, ("0", "300"),
                     "outside floating-point range (OverflowError: optimal gain is inf or nan)",
                     id="None-axes1-outside floating-point range"),
        (("mirror_R: 0.98", "mirror_R: 1"), ("0", "1"), "mirror_R = 1 leaves no feedforward port"),
    ],
)
def test_sweep_rejects_like_scalar_path(tmp_path, lab_config_text, capsys, edit, axes, message):
    path = tmp_path / "bench.yaml"
    path.write_text(lab_config_text.replace(*edit) if edit else lab_config_text)
    out = tmp_path / "grid.csv"
    assert run([
        "sweep", "--config", str(path), "--r1", *axes, "--r2", "0", "1",
        "--steps", "3", "--out", str(out),
    ]) == EXIT_PHYSICS
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bound", ["nan", "inf"])
def test_sweep_non_finite_axis_is_usage_error(config_path, tmp_path, capsys, bound):
    message = {"nan": "must be >= 0, got nan",
               "inf": f"must be <= {sys.float_info.max} (the largest float)"}[bound]
    out = tmp_path / "grid.csv"
    _is_usage_error([
        "sweep", "--config", config_path, "--r1", "0", "1", "--r2", "0", bound,
        "--steps", "3", "--out", str(out),
    ], capsys, f"error: argument --r2: {message}")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--r1", "--r2"])
def test_sweep_negative_axis_is_usage_error(config_path, tmp_path, capsys, flag):
    out = tmp_path / "grid.csv"
    axes = {"--r1": ["0", "1"], "--r2": ["0", "1"]} | {flag: ["-1", "1"]}
    _is_usage_error([
        "sweep", "--config", config_path, "--r1", *axes["--r1"], "--r2", *axes["--r2"],
        "--steps", "3", "--out", str(out),
    ], capsys, f"error: argument {flag}: must be >= 0, got -1.0")
    assert not out.exists()


# -- verify -------------------------------------------------------------------------


def test_verify_config_point(config_path, capsys):
    assert run(["verify", "--config", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("pass")
    assert "max relative deviation" in out


def test_verify_random_draws(capsys):
    assert run(["verify", "--random", "60", "--seed", "7"]) == EXIT_OK
    assert "60 point(s)" in capsys.readouterr().out


def test_verify_requires_some_input(capsys):
    for argv in (["verify"], ["verify", "--random", "0", "--seed", "3"]):
        _is_usage_error(argv, capsys, "error: needs --config and/or --random N")


def test_verify_detects_corrupted_formula(config_path, capsys, monkeypatch):
    # negative control: a deliberately wrong closed form must be flagged
    true_formula = cvswap.analytics.variance_formula
    monkeypatch.setattr(
        cvswap.analytics, "variance_formula",
        lambda params, g: true_formula(params, g) * 1.000001,
    )
    assert run(["verify", "--config", config_path]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL")
    assert "offending parameter set" in captured.err
    assert '"mirror_R": 0.98' in captured.err
    assert '"mode": "optimal"' in captured.err  # the config's own set, not its batch row


def scalar_draws(seed: int, n: int) -> list[ExperimentParams]:
    """verify's random draws as nine scalar uniform calls per draw, in field order."""
    rng = np.random.default_rng(seed)
    return [
        ExperimentParams(
            r1=rng.uniform(0.0, 1.5), r2=rng.uniform(0.0, 1.5),
            xi1=rng.uniform(0.5, 1.0), xi2=rng.uniform(0.5, 1.0),
            xi3=rng.uniform(0.5, 1.0), xi4=rng.uniform(0.5, 1.0),
            eta=rng.uniform(0.5, 1.0), mirror_R=rng.uniform(0.9, 1.0),
            gain=GainSpec("fixed", rng.uniform(0.0, 1.5)),
        )
        for _ in range(n)
    ]


def _corrupt_one_draw(monkeypatch, index: int) -> ExperimentParams:
    """Make the closed form wrong for draw ``index`` of seed 7 alone; return that draw."""
    target = scalar_draws(7, index + 1)[index]
    true_formula = cvswap.analytics.variance_formula

    def corrupted(params, g_swap):
        value = true_formula(params, g_swap)
        return np.where(params.r1 == target.r1, value * 1.000001, value)

    monkeypatch.setattr(cvswap.analytics, "variance_formula", corrupted)
    return target


def _offending(err: str) -> dict:
    return json.loads(err.split("offending parameter set:", 1)[1])


def test_verify_names_the_failing_draw_past_a_chunk_boundary(capsys, monkeypatch):
    assert VERIFY_CHUNK <= 700  # draw 700 is checked in a later chunk than draw 0
    target = _corrupt_one_draw(monkeypatch, 700)
    assert run(["verify", "--random", "1500", "--seed", "7"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL")
    assert "over 1500 point(s)" in captured.out
    assert _offending(captured.err) == dataclasses.asdict(target)


@pytest.mark.parametrize("index", [3, 700])
def test_verify_with_a_config_names_the_failing_draw(config_path, capsys, monkeypatch, index):
    # draw 3 shares the first build with the config point, one row behind it
    target = _corrupt_one_draw(monkeypatch, index)
    assert run(["verify", "--config", config_path, "--random", "1500", "--seed", "7"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL")
    assert "over 1501 point(s)" in captured.out
    assert _offending(captured.err) == dataclasses.asdict(target)


@pytest.mark.parametrize("extra", [0, 1])
def test_verify_counts_points_across_chunks(capsys, extra):
    n = VERIFY_CHUNK + extra
    assert run(["verify", "--random", str(n), "--seed", "3"]) == EXIT_OK
    assert f"over {n} point(s)" in capsys.readouterr().out


def test_verify_builds_one_network_per_chunk(config_path, capsys, monkeypatch):
    # the config point rides as one more row of the first chunk's build, or alone
    shapes = []
    true_build = cvswap.swap.build_network

    def counted(params):
        shapes.append(params.batch_shape)
        return true_build(params)

    monkeypatch.setattr(cvswap.swap, "build_network", counted)
    for n, builds in ((200, [(201,)]), (0, [()]),
                      (2 * VERIFY_CHUNK + 1, [(VERIFY_CHUNK + 1,), (VERIFY_CHUNK,), (1,)])):
        shapes.clear()
        assert run(["verify", "--config", config_path, "--random", str(n)]) == EXIT_OK
        assert shapes == builds
        assert f"over {n + 1} point(s)" in capsys.readouterr().out


_EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example.yaml"


def _edited_example(path: Path, edits) -> str:
    """``configs/example.yaml`` with each ``(old, new)`` text edit applied, written to ``path``."""
    text = _EXAMPLE_CONFIG.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path.write_text(text)
    return str(path)


def _one_point_line(params: ExperimentParams, n_points: int) -> str:
    """verify's line when ``params``, built and checked as one point, is the worst point."""
    v_plus, v_minus, g_swap = cvswap.swap.verification_variances(params)
    expected = cvswap.analytics.variance_formula(params, g_swap)
    deviation = max(abs(v_plus - expected) / abs(expected), abs(v_minus - expected) / abs(expected))
    return (f"pass: max relative deviation {deviation:.3e} over {n_points} point(s) "
            f"(tolerance 1e-09)\n")


_OPTIMAL = "mode: optimal"


@pytest.mark.parametrize(("edits", "draws"), [
    ((), 0),
    ((("# blocked: true", "blocked: true"),), 0),
    (((_OPTIMAL, "mode: fixed\n  value: 1.6"),), 0),
    ((("mirror_R: 0.98", "mirror_R: 0.9999999"),), 0),
    ((("mirror_R: 0.98", "mirror_R: 0.9999999"),), 5),  # the worst of the six points
    ((("r1: 0.564", "r1: 0.6"),), 0),  # numpy's exp would move this closed form's last bit
], ids=["example", "blocked", "fixed-1.6", "R-0.9999999", "R-0.9999999-random-5", "r1-0.6"])
def test_verify_config_point_keeps_its_one_point_deviation(tmp_path, capsys, edits, draws):
    path = _edited_example(tmp_path / "point.yaml", edits)
    assert run(["verify", "--config", path, "--random", str(draws)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == _one_point_line(ConfigFile.load(path).to_params(), draws + 1)
    assert captured.err == ""


_COVARIANCE_OVERFLOW = ("physics rejection: result outside floating-point range "
                        "(OverflowError: covariance is inf or nan)\n")

# rejected configs (edits to configs/example.yaml) and verify's one line of stderr
_REJECTED = [
    ((("mirror_R: 0.98", "mirror_R: 1"),),
     "physics rejection: mirror_R = 1 leaves no feedforward port\n"),
    ((("xi1_sq: 0.970", "xi1_sq: 0"), (_OPTIMAL, "mode: fixed\n  value: 0.7")),
     "physics rejection: eta and xi1 must be > 0 to set an electronic gain\n"),
    ((("r1: 0.564", "r1: 200"), ("r2: 0.587", "r2: 1")),
     "physics rejection: result outside floating-point range "
     "(OverflowError: optimal gain evaluates to nan)\n"),
    # exp(4 r1) past the float range: inf, silently, in the network as in the closed form
    ((("r1: 0.564", "r1: 400"), ("# blocked: true", "blocked: true")), _COVARIANCE_OVERFLOW),
    (((_OPTIMAL, "mode: fixed\n  value: 1e300"),), _COVARIANCE_OVERFLOW),
    # 2 r overflows to inf: silently, for one point and in a batch
    ((("r2: 0.587", "r2: 1e308"), ("# blocked: true", "blocked: true")), _COVARIANCE_OVERFLOW),
    # the feedforward port sqrt(1 - R) eta xi1 underflows to 0: a division by zero, silently
    ((("xi1_sq: 0.970", "xi1_sq: 5e-324"), ("eta_sq: 0.90", "eta_sq: 5e-324"),
      ("mirror_R: 0.98", "mirror_R: 0.99999999"), (_OPTIMAL, "mode: fixed\n  value: 0.5")),
     "physics rejection: result outside floating-point range "
     "(OverflowError: electronic gain is inf or nan)\n"),
]

# runs each argv of the JSON list in argv[1] through main, in one interpreter
_RUN_EACH = """\
import contextlib, io, json, sys
from cvswap.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


@pytest.mark.parametrize("python_warnings", [None, "error"])
def test_verify_rejected_config_keeps_exit_and_message(tmp_path, python_warnings):
    # a fresh interpreter with Python's own warning filters: a warning is printed
    # (the first time) into the captured stderr, or raised under "error"
    argvs, expected = [], []
    for i, (edits, message) in enumerate(_REJECTED):
        path = _edited_example(tmp_path / f"rejected{i}.yaml", edits)
        for extra in ([], ["--random", "5"]):
            argvs.append(["verify", "--config", path, *extra])
            expected.append([EXIT_PHYSICS, "", message])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cvswap.__file__))
    if python_warnings:
        env["PYTHONWARNINGS"] = python_warnings
    done = subprocess.run([sys.executable, "-c", _RUN_EACH, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert json.loads(done.stdout) == expected


# runs each argv of the JSON list in argv[1] through main, in one interpreter, noting after
# each whether PyYAML has been imported
_RUN_NOTING_YAML = """\
import contextlib, io, json, sys
from cvswap.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue(), "yaml" in sys.modules])
print(json.dumps(results))
"""


def test_pyyaml_is_imported_only_for_a_flow_style_config_or_a_sidecar(tmp_path, capsys):
    config, flow = str(_EXAMPLE_CONFIG), tmp_path / "flow.yaml"
    flow.write_text(yaml.safe_dump(yaml.safe_load(_EXAMPLE_CONFIG.read_text()),
                                   default_flow_style=True))
    block_form = [["predict", "--config", config], ["predict", "--json", "--config", config],
                  ["optimal-gain", "--config", config],
                  ["verify", "--config", config, "--random", "3"],
                  ["sweep", "--config", config, "--r1", "0", "1", "--r2", "0", "1",
                   "--steps", "3", "--out", str(tmp_path / "grid.csv")]]
    trace = tmp_path / "trace.csv"
    sessions = [[*block_form, ["predict", "--config", str(flow)]],
                [["montecarlo", "--config", config, "--kind", "correlated", "--points", "5",
                  "--seed", "1", "--out", str(trace)]]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cvswap.__file__)))
    results = []
    for argvs in sessions:  # each in a fresh interpreter
        done = subprocess.run([sys.executable, "-c", _RUN_NOTING_YAML, json.dumps(argvs)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        results += json.loads(done.stdout)
    assert [imported for *_, imported in results] == [False] * 5 + [True, True]
    for argv, (code, out, _) in zip([*block_form, ["predict", "--config", config]], results):
        assert code == EXIT_OK and out != "" and main(argv) == EXIT_OK
        assert out == capsys.readouterr().out
    assert results[-1][0] == EXIT_OK
    expected = montecarlo.render_trace(ConfigFile.load(config).to_params(), "correlated", 5, 1)
    sidecar = trace.with_suffix(".meta.yaml").read_text()
    assert sidecar == yaml.safe_dump(expected.metadata, sort_keys=True)
    db = [10.0 * math.log10(power) for power in expected.powers]
    assert trace.read_text().splitlines()[1:] == [f"{i},{v!r}" for i, v in enumerate(db)]


def test_verify_negative_random_with_config_is_usage_error(config_path, capsys):
    captured = _is_usage_error(["verify", "--config", config_path, "--random", "-5"], capsys,
                               "error: argument --random: must be >= 0, got -5")
    assert captured.out == ""


def test_verify_negative_random_alone_is_usage_error(capsys):
    _is_usage_error(["verify", "--random", "-5"], capsys,
                    "error: argument --random: must be >= 0, got -5")


def test_verify_negative_seed_is_usage_error(capsys):
    _is_usage_error(["verify", "--random", "3", "--seed", "-1"], capsys,
                    "error: argument --seed: must be >= 0, got -1")


# -- montecarlo ----------------------------------------------------------------------


def test_montecarlo_writes_deterministic_csv(config_path, tmp_path, capsys):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    base = [
        "montecarlo", "--config", config_path, "--kind", "snl",
        "--points", "5", "--n-per-point", "200", "--seed", "3",
    ]
    assert run(base + ["--out", str(out1)]) == EXIT_OK
    assert run(base + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "t1.meta.yaml").exists()
    assert "pooled noise power" in capsys.readouterr().out


def test_montecarlo_unknown_kind_is_usage_error(config_path, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run([
            "montecarlo", "--config", config_path, "--kind", "nope",
            "--out", str(tmp_path / "t.csv"),
        ])
    assert excinfo.value.code == 2


def test_montecarlo_requires_out(config_path, capsys):
    _is_usage_error(["montecarlo", "--config", config_path, "--kind", "snl"], capsys,
                    "error: the following arguments are required: --out")


@pytest.mark.parametrize("flag", ["--points", "--n-per-point"])
def test_montecarlo_zero_count_is_usage_error(config_path, tmp_path, capsys, flag):
    out = tmp_path / "t.csv"
    _is_usage_error([
        "montecarlo", "--config", config_path, "--kind", "snl",
        flag, "0", "--out", str(out),
    ], capsys, f"error: argument {flag}: must be >= 1, got 0")
    assert not out.exists()


def test_montecarlo_negative_seed_is_usage_error(config_path, tmp_path, capsys):
    out = tmp_path / "t.csv"
    _is_usage_error([
        "montecarlo", "--config", config_path, "--kind", "snl",
        "--points", "2", "--seed", "-1", "--out", str(out),
    ], capsys, "error: argument --seed: must be >= 0, got -1")
    assert not out.exists()


def test_montecarlo_huge_averaging_depth_needs_no_samples(config_path, tmp_path):
    # each point is one draw from the law of the average, at any depth
    out = tmp_path / "t.csv"
    assert run([
        "montecarlo", "--config", config_path, "--kind", "snl",
        "--points", "5", "--n-per-point", "1000000000000", "--out", str(out),
    ]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 5 and all(math.isfinite(float(db)) for _, db in rows)


@pytest.mark.parametrize("argv, flag", [
    (["montecarlo", "--kind", "snl", "--n-per-point", str(10**400)], "--n-per-point"),
    (["montecarlo", "--kind", "snl", "--points", str(2**62)], "--points"),
    (["sweep", "--r1", "0", "1", "--r2", "0", "1", "--steps", str(2**62)], "--steps"),
])
def test_count_past_the_platform_limit_is_usage_error(config_path, tmp_path, capsys,
                                                       argv, flag):
    # rejected by argparse, before anything is allocated or written
    out = tmp_path / "out.csv"
    _is_usage_error([*argv, "--config", config_path, "--out", str(out)], capsys,
                    f"error: argument {flag}: must be <= ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["montecarlo", "--kind", "snl", "--points", str(10**12)],
    ["sweep", "--r1", "0", "1", "--r2", "0", "1", "--steps", "1000000"],
])
def test_count_past_the_memory_limit_exits_1(config_path, tmp_path, argv):
    import resource  # POSIX only

    def cap_address_space():
        # the run asks for terabytes; the cap makes that fail at once, never swap
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = os.path.dirname(os.path.dirname(cvswap.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = tmp_path / "out.csv"
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from cvswap.cli import main; sys.exit(main())",
         *argv, "--config", config_path, "--out", str(out)],
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("out of memory: Unable to allocate ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("gain", ["1e153", "6e153", "1.02e154"])
def test_montecarlo_near_the_float_range_is_finite_or_exits_3(tmp_path, lab_config_text,
                                                              capsys, gain):
    # V is 1.6e306, 5.9e307 and 1.7e308: the sampled power is finite, or exit 3 with no file
    path = tmp_path / "huge.yaml"
    path.write_text(lab_config_text.replace("mode: optimal", _FIXED + gain))
    out = tmp_path / "trace.csv"
    code = run(["montecarlo", "--config", str(path), "--kind", "correlated",
                "--points", "20", "--out", str(out)])
    captured = capsys.readouterr()
    if gain == "1.02e154":
        assert code == EXIT_PHYSICS
        assert captured.err == ("physics rejection: result outside floating-point range "
                                "(OverflowError: trace power evaluates to inf)\n")
        assert not out.exists() and not out.with_suffix(".meta.yaml").exists()
        return
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 20 and all(math.isfinite(float(db)) for _, db in rows)
    pooled = re.search(r"pooled noise power (\S+) dB", captured.out)
    assert pooled is not None and math.isfinite(float(pooled.group(1)))


def test_predict_enl_correction_outside_float_range_exits_3(tmp_path, lab_config_text, capsys):
    # V = 1.708e308 is finite, but its ENL-corrected depth is not
    path = tmp_path / "huge.yaml"
    path.write_text(lab_config_text.replace("mode: optimal", _FIXED + "1.02e154"))
    for extra in ([], ["--json"]):
        assert run(["predict", "--config", str(path), *extra]) == EXIT_PHYSICS
        captured = capsys.readouterr()
        assert "result outside floating-point range" in captured.err
        assert "ENL-corrected depth evaluates to -inf" in captured.err
        assert "closed form" not in captured.err
        assert captured.out == ""


# -- every config number at its edges ----------------------------------------------

_EDGES = (0.0, 5e-324, 1e-8, 0.5, 1 - 1e-8, 1.0, 1 + 1e-7, 2.0, 177.0, 179.0, 356.0, 1e300, -0.0)
_UNIT_EDGES = tuple(x for x in _EDGES if 0 <= x <= 1)
_POSITIVE_EDGES = tuple(x for x in _EDGES if x > 0)
_NON_FINITE_TEXT = re.compile(r"(?i)\b(inf|infinity|nan)\b")


@st.composite
def _edge_configs(draw):
    """A config whose every number is an edge value; half of them keep every range."""
    edge = st.sampled_from(_EDGES)
    in_range = draw(st.booleans())
    unit = st.sampled_from(_UNIT_EDGES) if in_range else edge
    gain = draw(st.just({"mode": "optimal"})
                | st.sampled_from(_EDGES + (1e153, 6e153, 1.02e154)).map(
                    lambda value: {"mode": "fixed", "value": value}))
    config = {
        "squeezing": {"r1": draw(edge), "r2": draw(edge)},
        "efficiencies": {key: draw(unit)
                         for key in ("xi1_sq", "xi2_sq", "xi3_sq", "xi4_sq", "eta_sq")},
        "mirror_R": draw(unit),
        "gain": gain,
        "blocked": draw(st.booleans()),
    }
    enl_db = draw(st.none() | (st.sampled_from(_POSITIVE_EDGES) if in_range else edge))
    if enl_db is not None:
        config["enl_db"] = enl_db
    return config


def _lab_config(gain: float, **intensities) -> dict:
    efficiencies = {**LAB_INTENSITIES, **intensities}
    mirror_R = efficiencies.pop("mirror_R")
    return {"squeezing": {"r1": LAB_R1, "r2": LAB_R2}, "efficiencies": efficiencies,
            "mirror_R": mirror_R, "gain": {"mode": "fixed", "value": gain}, "enl_db": 11.3}


@settings(derandomize=True, deadline=None)
@example(config=_lab_config(6e153), r_bounds=[0.0, 0.5, 0.0, 0.5])  # the trace overflowed
@example(config=_lab_config(1.02e154), r_bounds=[0.0, 0.5, 0.0, 0.5])  # the ENL depth did
@example(config=_lab_config(0.5, xi1_sq=5e-324, eta_sq=5e-324, mirror_R=1 - 1e-8),
         r_bounds=[0.0, 0.5, 0.0, 0.5])  # the feedforward port underflowed to 0
@given(config=_edge_configs(), r_bounds=st.lists(st.sampled_from(_EDGES), min_size=4,
                                                 max_size=4))
def test_edge_configs_exit_cleanly_and_print_no_inf_or_nan(tmp_path_factory, config, r_bounds):
    workdir = tmp_path_factory.mktemp("edges")
    path = workdir / "edge.yaml"
    path.write_text(json.dumps(config))  # a JSON document is a YAML 1.2 document
    out = workdir / "out.csv"
    bounds = [repr(b) for b in r_bounds]
    commands = [
        ["predict", "--out", str(out)], ["predict", "--json"], ["optimal-gain"], ["verify"],
        *(["montecarlo", "--kind", kind, "--points", "3", "--n-per-point", "5", "--out", str(out)]
          for kind in montecarlo.TRACE_KINDS),
        ["sweep", "--r1", *bounds[:2], "--r2", *bounds[2:], "--steps", "3", "--out", str(out)],
    ]
    for command in commands:
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run([*command, "--config", str(path)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PHYSICS, EXIT_VERIFY), command
        # libm's exp past the float range is inf, and the result's check names the quantity
        assert "math range error" not in stderr.getvalue(), (command, stderr.getvalue())
        texts = [stdout.getvalue().replace(str(workdir), "")]
        if code == EXIT_OK and out.exists():
            texts.append(out.read_text())
        assert not any(_NON_FINITE_TEXT.search(text) for text in texts), (command, texts)


# -- any document shape in every slot ----------------------------------------------------

_SLOT_KEYS = ("squeezing", "efficiencies", "mirror_R", "gain", "enl_db", "blocked", "r1",
              "r2_db", "xi1_sq", "eta_sq", "mode", "value")
_JUNK = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.sampled_from((0, 0.5, -1.0, 10**30)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(_SLOT_KEYS) | st.text(max_size=3) | st.none() | st.booleans() | st.integers(),
        inner, max_size=3),
    max_leaves=6)
# stderr's first words for each exit code but 0, whose stderr is empty
_STDERR_PREFIXES = {1: ("i/o error: ", "out of memory: "), 2: ("config error: ",),
                    3: ("physics rejection: ",), 4: ("offending parameter set:",)}


_LAB_DOCUMENT = {**_lab_config(0.74), "gain": {"mode": "optimal"}, "blocked": False}


def _slots(value, path=()):
    """The key path of every slot in a document, the root ``()`` first."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _slots(child, (*path, key))


def _spoiled(draw, doc, path):
    """``doc`` with junk in the slot at ``path``, that slot's key dropped, or an unknown key
    beside it; unchanged where an earlier spoiling removed the path."""
    if not path:
        return draw(_JUNK)
    key, *rest = path
    if not isinstance(doc, dict) or key not in doc:
        return doc
    doc = dict(doc)
    if rest:
        doc[key] = _spoiled(draw, doc[key], rest)
        return doc
    how = draw(st.sampled_from(("junk", "drop", "unknown key")))
    if how == "drop":
        del doc[key]
    else:
        slot = key if how == "junk" else draw(st.sampled_from(_SLOT_KEYS) | st.text(max_size=3))
        doc[slot] = draw(_JUNK)
    return doc


@st.composite
def _shaped_documents(draw):
    """The lab document spoiled in up to three slots, so the lab document itself among them."""
    doc = _LAB_DOCUMENT
    for path in draw(st.lists(st.sampled_from(list(_slots(_LAB_DOCUMENT))), max_size=3)):
        doc = _spoiled(draw, doc, path)
    return doc


@settings(derandomize=True, deadline=None, max_examples=60)
@given(doc=_shaped_documents())
def test_any_document_shape_exits_with_a_documented_line(tmp_path_factory, doc):
    workdir = tmp_path_factory.mktemp("shapes")
    path = workdir / "shape.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    out = str(workdir / "out.csv")
    commands = [["predict", "--json"], ["optimal-gain"], ["verify"],
                ["sweep", "--r1", "0", "1", "--r2", "0", "1", "--steps", "2", "--out", out],
                ["montecarlo", "--kind", "correlated", "--points", "2", "--n-per-point", "5",
                 "--out", out]]
    for command in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run([*command, "--config", str(path)])
        err = err.getvalue()
        assert code in (0, 1, 2, 3, 4) and "Traceback" not in err, (command, err)
        assert err == "" if code == EXIT_OK else err.startswith(_STDERR_PREFIXES[code]), err


# -- parser ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("command", "flag"),
    [("predict", "--seed"), ("optimal-gain", "--out"), ("optimal-gain", "--seed"),
     ("sweep", "--seed"), ("sweep", "--json"), ("verify", "--out"), ("verify", "--json"),
     ("montecarlo", "--json")],
)
def test_subcommand_rejects_flags_it_does_not_read(config_path, tmp_path, command, flag):
    out = ["--out", str(tmp_path / "out.csv")]
    argv = [command, "--config", config_path, *{
        "sweep": ["--r1", "0", "1", "--r2", "0", "1", "--steps", "2", *out],
        "montecarlo": ["--kind", "snl", "--points", "1", "--n-per-point", "10", *out],
    }.get(command, [])]
    assert run(argv) == EXIT_OK
    extra = {"--json": [], "--out": [str(tmp_path / "ignored")], "--seed": ["1"]}[flag]
    with pytest.raises(SystemExit) as excinfo:
        run([*argv, flag, *extra])
    assert excinfo.value.code == 2
    assert not (tmp_path / "ignored").exists()


# a valid command line per subcommand; OUT stands for the output path
_VALID_ARGV = {
    "predict": ["predict"],
    "optimal-gain": ["optimal-gain"],
    "sweep": ["sweep", "--r1", "0", "1", "--r2", "0", "1", "--steps", "3", "--out", "OUT"],
    "verify": ["verify", "--random", "3", "--seed", "0"],
    "montecarlo": ["montecarlo", "--kind", "snl", "--points", "2", "--n-per-point", "5",
                   "--seed", "0", "--out", "OUT"],
}


@pytest.mark.parametrize(("command", "flag", "value"), [
    # each flag's rule: a non-number, then a value outside its range
    ("sweep", "--steps", "x"), ("sweep", "--steps", "1"),
    ("sweep", "--r1", "x"), ("sweep", "--r1", "-1"),
    ("sweep", "--r2", "x"), ("sweep", "--r2", "inf"),
    ("verify", "--random", "x"), ("verify", "--random", "-1"),
    ("verify", "--seed", "x"), ("verify", "--seed", "-1"),
    ("montecarlo", "--points", "x"), ("montecarlo", "--points", "0"),
    ("montecarlo", "--n-per-point", "1e3"),
    pytest.param("montecarlo", "--n-per-point", str(10**400), id="montecarlo---n-per-point-10**400"),
    ("montecarlo", "--seed", "x"), ("montecarlo", "--seed", "-1"),
    # a required flag left out
    ("predict", "--config", None), ("optimal-gain", "--config", None),
    ("sweep", "--config", None), ("sweep", "--out", None),
    ("montecarlo", "--config", None), ("montecarlo", "--out", None),
])
def test_every_flag_rule_is_a_usage_error(config_path, tmp_path, capsys, command, flag, value):
    def valid(out):
        return [str(out) if arg == "OUT" else arg
                for arg in [*_VALID_ARGV[command], "--config", config_path]]

    assert run(valid(tmp_path / "good.csv")) == EXIT_OK
    capsys.readouterr()
    (tmp_path / "bad").mkdir()
    argv = valid(tmp_path / "bad" / "out.csv")
    at = argv.index(flag)
    if value is None:
        del argv[at:at + 2]
        message = f"error: the following arguments are required: {flag}"
    else:
        argv[at + 1] = value
        message = f"error: argument {flag}: "
    _is_usage_error(argv, capsys, message)
    assert not any((tmp_path / "bad").iterdir())


@pytest.mark.parametrize("command", ["predict", "optimal-gain", "sweep", "montecarlo"])
def test_help_shows_required_paths_without_brackets(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        run([command, "--help"])
    assert excinfo.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert " --config PATH" in usage and "[--config PATH]" not in usage
    if command in ("sweep", "montecarlo"):
        assert " --out PATH" in usage and "[--out PATH]" not in usage


def test_parser_is_built_once_and_calls_leak_nothing(config_path, capsys):
    assert build_parser() is build_parser()
    assert run(["verify", "--config", config_path, "--random", "3", "--seed", "5"]) == EXIT_OK
    assert "over 4 point(s)" in capsys.readouterr().out
    assert run(["verify", "--config", config_path]) == EXIT_OK
    assert "over 1 point(s)" in capsys.readouterr().out
    assert run(["predict", "--config", config_path, "--json"]) == EXIT_OK
    json.loads(capsys.readouterr().out)
    assert run(["predict", "--config", config_path]) == EXIT_OK
    assert capsys.readouterr().out.startswith("g_swap    = ")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run([])
    assert excinfo.value.code == 2


def test_help_documents_intensity_convention(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--help"])
    assert excinfo.value.code == 0
    assert "intensities" in capsys.readouterr().out
