"""CLI surface: subcommands, exit codes, output formats."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import replace

import numpy as np
import pytest

import cvswap.analytics
from cvswap import ConfigFile, ExperimentParams, GainSpec
from cvswap.cli import EXIT_CONFIG, EXIT_OK, EXIT_PHYSICS, EXIT_VERIFY, VERIFY_CHUNK, main


@pytest.fixture
def config_path(tmp_path, lab_config_text):
    path = tmp_path / "bench.yaml"
    path.write_text(lab_config_text)
    return str(path)


def run(argv):
    return main(argv)


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
    assert payload["g_swap"] == pytest.approx(0.740934, abs=1e-5)
    assert payload["v_plus"] == pytest.approx(0.718797, abs=1e-5)
    assert payload["v_plus"] == payload["v_minus"]
    assert payload["entangled"] is True
    assert payload["g_electronic"] == pytest.approx(7.930, abs=1e-2)
    assert payload["enl_corrected_db_below_snl"]["v_plus"] == pytest.approx(1.572, abs=1e-2)


def test_predict_blocked_config(tmp_path, lab_config_text, capsys):
    path = tmp_path / "blocked.yaml"
    path.write_text(lab_config_text + "blocked: true\n")
    assert run(["predict", "--config", str(path), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["v_plus"] == pytest.approx(1.620, abs=1e-3)
    assert payload["entangled"] is False
    assert payload["g_swap"] == 0.0


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
    assert run(["predict"]) == EXIT_CONFIG
    assert "requires --config" in capsys.readouterr().err


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


def test_sweep_requires_out_and_steps(config_path, capsys):
    assert run([
        "sweep", "--config", config_path,
        "--r1", "0", "1", "--r2", "0", "1", "--steps", "3",
    ]) == EXIT_CONFIG
    assert run([
        "sweep", "--config", config_path,
        "--r1", "0", "1", "--r2", "0", "1", "--steps", "1", "--out", "/tmp/x.csv",
    ]) == EXIT_CONFIG


def test_sweep_csv_format_and_values(config_path, tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["--r1", "0.0", "1.2", "--r2", "0.3", "0.9", "--steps", "3"]
    assert run(["sweep", "--config", config_path, *argv, "--out", str(out)]) == EXIT_OK
    params = ConfigFile.load(config_path).to_params()
    r1s, r2s = np.linspace(0.0, 1.2, 3), np.linspace(0.3, 0.9, 3)
    grid = cvswap.analytics.sweep_surface(params, r1s, r2s)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["r1", "r2", "v_snl"])
    for i, r1 in enumerate(r1s):
        for j, r2 in enumerate(r2s):
            writer.writerow([repr(float(r1)), repr(float(r2)), repr(float(grid.values[i, j]))])
    assert out.read_bytes() == expected.getvalue().encode()
    # the broadcast values may differ from the scalar path only in the last ulp
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    for row in rows:
        r1, r2, value = map(float, row)
        point = replace(params, r1=r1, r2=r2)
        scalar = cvswap.analytics.variance_formula(point, cvswap.analytics.optimal_gain(point))
        assert value == pytest.approx(scalar, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    ("edit", "axes", "message"),
    [
        (("xi4_sq: 0.968", "xi4_sq: 0"), ("0", "1"), "degenerate gain denominator"),
        (None, ("0", "300"), "outside floating-point range"),
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
def test_sweep_non_finite_axis_is_config_error(config_path, tmp_path, capsys, bound):
    out = tmp_path / "grid.csv"
    assert run([
        "sweep", "--config", config_path, "--r1", "0", "1", "--r2", "0", bound,
        "--steps", "3", "--out", str(out),
    ]) == EXIT_CONFIG
    assert "config error: --r2 bounds must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--r1", "--r2"])
def test_sweep_negative_axis_is_config_error(config_path, tmp_path, capsys, flag):
    out = tmp_path / "grid.csv"
    axes = {"--r1": ["0", "1"], "--r2": ["0", "1"]} | {flag: ["-1", "1"]}
    assert run([
        "sweep", "--config", config_path, "--r1", *axes["--r1"], "--r2", *axes["--r2"],
        "--steps", "3", "--out", str(out),
    ]) == EXIT_CONFIG
    assert f"config error: {flag} bounds must be finite and >= 0" in capsys.readouterr().err
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
    assert run(["verify"]) == EXIT_CONFIG


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


def scalar_draws(seed: int, n: int) -> list[ExperimentParams]:
    """verify's random draws as nine scalar uniform calls per draw, in field order."""
    rng = np.random.default_rng(seed)
    return [
        ExperimentParams(
            r1=rng.uniform(0.0, 1.5), r2=rng.uniform(0.0, 1.5),
            xi1=rng.uniform(0.5, 1.0), xi2=rng.uniform(0.5, 1.0),
            xi3=rng.uniform(0.5, 1.0), xi4=rng.uniform(0.5, 1.0),
            eta=rng.uniform(0.5, 1.0), mirror_R=rng.uniform(0.9, 1.0),
            gain=GainSpec.fixed(rng.uniform(0.0, 1.5)),
        )
        for _ in range(n)
    ]


def test_verify_names_the_failing_draw_past_a_chunk_boundary(capsys, monkeypatch):
    assert VERIFY_CHUNK <= 700  # draw 700 is checked in a later chunk than draw 0
    target = scalar_draws(7, 1500)[700]
    true_formula = cvswap.analytics.variance_formula

    def corrupted(params, g_swap):
        value = true_formula(params, g_swap)
        return np.where(params.r1 == target.r1, value * 1.000001, value)

    monkeypatch.setattr(cvswap.analytics, "variance_formula", corrupted)
    assert run(["verify", "--random", "1500", "--seed", "7"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL")
    assert "over 1500 point(s)" in captured.out
    offending = json.loads(captured.err.split("offending parameter set:", 1)[1])
    assert offending == dataclasses.asdict(target)


@pytest.mark.parametrize("extra", [0, 1])
def test_verify_counts_points_across_chunks(capsys, extra):
    n = VERIFY_CHUNK + extra
    assert run(["verify", "--random", str(n), "--seed", "3"]) == EXIT_OK
    assert f"over {n} point(s)" in capsys.readouterr().out


def test_verify_negative_random_with_config_is_config_error(config_path, capsys):
    assert run(["verify", "--config", config_path, "--random", "-5"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: --random must be >= 0" in captured.err
    assert captured.out == ""


def test_verify_negative_random_alone_is_config_error(capsys):
    assert run(["verify", "--random", "-5"]) == EXIT_CONFIG
    assert "config error: --random must be >= 0" in capsys.readouterr().err


def test_verify_negative_seed_is_config_error(capsys):
    assert run(["verify", "--random", "3", "--seed", "-1"]) == EXIT_CONFIG
    assert "config error: --seed must be >= 0" in capsys.readouterr().err


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


def test_montecarlo_requires_out(config_path):
    assert run(["montecarlo", "--config", config_path, "--kind", "snl"]) == EXIT_CONFIG


@pytest.mark.parametrize("flag", ["--points", "--n-per-point"])
def test_montecarlo_zero_count_is_config_error(config_path, tmp_path, capsys, flag):
    out = tmp_path / "t.csv"
    assert run([
        "montecarlo", "--config", config_path, "--kind", "snl",
        flag, "0", "--out", str(out),
    ]) == EXIT_CONFIG
    assert f"config error: {flag} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_montecarlo_negative_seed_is_config_error(config_path, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run([
        "montecarlo", "--config", config_path, "--kind", "snl",
        "--points", "2", "--seed", "-1", "--out", str(out),
    ]) == EXIT_CONFIG
    assert "config error: --seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


# -- parser ---------------------------------------------------------------------------


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run([])
    assert excinfo.value.code == 2


def test_help_documents_intensity_convention(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--help"])
    assert excinfo.value.code == 0
    assert "intensities" in capsys.readouterr().out
