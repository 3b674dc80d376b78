"""Config schema: strict parsing into the parameter records."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest
import yaml

import cvswap.config
from cvswap import ConfigError, ConfigFile, GainSpec, r_from_db, run_experiment
from cvswap.cli import EXIT_CONFIG, main
from conftest import make_lab_params


def parse(text: str) -> ConfigFile:
    return ConfigFile.loads(text)


def test_parse_reference_config(lab_config_text):
    cfg = parse(lab_config_text)
    params = cfg.to_params()
    assert params.r1 == 0.564
    assert params.xi1 == pytest.approx(math.sqrt(0.970), rel=1e-15)
    assert params.eta == pytest.approx(math.sqrt(0.90), rel=1e-15)
    assert params.mirror_R == 0.98
    assert params.gain.mode == "optimal"
    assert params.enl_db == 11.3
    assert params.channel_blocked is False


def test_parse_db_squeezing_variant():
    cfg = parse(
        """
        squeezing: {r1_db: 4.9, r2_db: 5.1}
        efficiencies: {xi1_sq: 0.97, xi2_sq: 0.95, xi3_sq: 0.966, xi4_sq: 0.968, eta_sq: 0.9}
        mirror_R: 0.98
        gain: {mode: fixed, value: 0.74}
        blocked: true
        """
    )
    params = cfg.to_params()
    assert params.r1 == pytest.approx(r_from_db(4.9), rel=1e-15)
    assert params.gain.value == 0.74
    assert params.channel_blocked is True


def test_db_and_r_inputs_predict_identically():
    template = """
    squeezing: {{{squeezing}}}
    efficiencies: {{xi1_sq: 0.97, xi2_sq: 0.95, xi3_sq: 0.966, xi4_sq: 0.968, eta_sq: 0.9}}
    mirror_R: 0.98
    gain: {{mode: optimal}}
    """
    by_db = parse(template.format(squeezing="r1_db: 4.9, r2_db: 5.1"))
    by_r = parse(
        template.format(
            squeezing=f"r1: {r_from_db(4.9)!r}, r2: {r_from_db(5.1)!r}"
        )
    )
    v_db = run_experiment(by_db.to_params()).v_plus
    v_r = run_experiment(by_r.to_params()).v_plus
    assert v_db == pytest.approx(v_r, rel=1e-12)


def test_unknown_keys_rejected(lab_config_text):
    with pytest.raises(ConfigError, match="unknown top-level key 'color'"):
        parse(lab_config_text + "color: blue\n")
    with pytest.raises(ConfigError, match="efficiencies: unknown key 'xi5_sq'"):
        parse(lab_config_text.replace("xi4_sq: 0.968", "xi4_sq: 0.968\n  xi5_sq: 0.5"))
    with pytest.raises(ConfigError, match="squeezing: unknown key"):
        parse(lab_config_text.replace("r2: 0.587", "r2: 0.587\n  r3: 0.1"))


def test_exactly_one_squeezing_spec(lab_config_text):
    with pytest.raises(ConfigError, match="exactly one of 'r1'"):
        parse(lab_config_text.replace("r1: 0.564", "r1: 0.564\n  r1_db: 4.9"))
    with pytest.raises(ConfigError, match="exactly one of 'r2'"):
        parse(lab_config_text.replace("  r2: 0.587\n", ""))


def test_missing_sections_rejected(lab_config_text):
    with pytest.raises(ConfigError, match="missing required key 'mirror_R'"):
        parse(lab_config_text.replace("mirror_R: 0.98\n", ""))
    with pytest.raises(ConfigError, match="missing key 'eta_sq'"):
        parse(lab_config_text.replace("  eta_sq: 0.90\n", ""))


def test_value_validation():
    base = """
    squeezing: {{r1: 0.5, r2: 0.5}}
    efficiencies: {{xi1_sq: {xi1}, xi2_sq: 0.95, xi3_sq: 0.966, xi4_sq: 0.968, eta_sq: 0.9}}
    mirror_R: {r}
    gain: {gain}
    """
    with pytest.raises(ConfigError, match=r"xi1_sq: must be in \[0, 1\]"):
        parse(base.format(xi1=1.4, r=0.98, gain="{mode: optimal}"))
    with pytest.raises(ConfigError, match=r"mirror_R: must be in \[0, 1\]"):
        parse(base.format(xi1=0.97, r=1.5, gain="{mode: optimal}"))
    with pytest.raises(ConfigError, match="fixed mode requires 'value'"):
        parse(base.format(xi1=0.97, r=0.98, gain="{mode: fixed}"))
    with pytest.raises(ConfigError, match="optimal mode takes no 'value'"):
        parse(base.format(xi1=0.97, r=0.98, gain="{mode: optimal, value: 0.5}"))
    with pytest.raises(ConfigError, match="gain.mode"):
        parse(base.format(xi1=0.97, r=0.98, gain="{mode: loud}"))
    with pytest.raises(ConfigError, match="expected a number"):
        parse(base.format(xi1="high", r=0.98, gain="{mode: optimal}"))
    with pytest.raises(ConfigError, match=r"squeezing.r1: must be >= 0"):
        parse(base.format(xi1=0.97, r=0.98, gain="{mode: optimal}").replace("r1: 0.5", "r1: -0.5"))


def test_enl_and_blocked_validation(lab_config_text):
    with pytest.raises(ConfigError, match="enl_db"):
        parse(lab_config_text.replace("enl_db: 11.3", "enl_db: -3"))
    with pytest.raises(ConfigError, match="blocked"):
        parse(lab_config_text + "blocked: maybe\n")


def test_syntax_error_reported_with_location():
    with pytest.raises(ConfigError, match="config syntax error"):
        parse("squeezing: {r1: [unclosed\n")
    with pytest.raises(ConfigError, match=r"^config syntax error: (.|\n)*line 2, column 10"):
        parse("squeezing:\n  r1: 0.5: 0.6\n")


class _PureLoader(yaml.SafeLoader):
    """PyYAML's pure-Python loader, whose marks carry source snippets."""


@pytest.mark.parametrize("loader", ["default", "pure"])
@pytest.mark.parametrize(("text", "where"), [
    ("squeezing: {? [a, b] : 1}\n", "line 1, column 15"),  # an unhashable key
    ("squeezing:\n  r1: 0.5\n r2: 0.6\n", "line 3, column 2"),  # r2 mis-indented
    ("squeezing: \x07\n", "position 11"),  # a control character
], ids=["unhashable", "indent", "control"])
def test_syntax_error_is_one_line_naming_the_file(tmp_path, monkeypatch, capsys, loader,
                                                  text, where):
    if loader == "pure":
        monkeypatch.setattr(cvswap.config, "_Loader", _PureLoader)
    path = tmp_path / "broken.yaml"
    path.write_text(text)
    assert main(["predict", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: config syntax error: ") and err.count("\n") == 1
    assert err.endswith(f' in "{path}", {where}\n'), err


@pytest.mark.parametrize(("encoding", "code"),
                         [("utf-8", 0), ("latin-1", EXIT_CONFIG), ("utf-16", EXIT_CONFIG)])
def test_config_is_read_as_utf8(lab_config_text, tmp_path, capsys, encoding, code):
    # UTF-16 with a byte-order mark is legal YAML, but config files are UTF-8
    path = tmp_path / "accent.yaml"
    path.write_bytes(f"# café\n{lab_config_text}".encode(encoding))
    assert main(["predict", "--config", str(path)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(f"config error: cannot read config {path}: 'utf-8' codec "
                              "can't decode byte") and err.count("\n") == 1, err


def test_parser_runs_on_libyaml_when_pyyaml_has_it():
    from cvswap.config import _Loader

    if yaml.__with_libyaml__:
        assert issubclass(_Loader, yaml.CSafeLoader)
    else:
        assert issubclass(_Loader, yaml.SafeLoader)
    assert issubclass(_Loader, yaml.constructor.SafeConstructor)


def test_root_must_be_mapping():
    with pytest.raises(ConfigError, match="mapping"):
        parse("- a\n- b\n")


def test_json_document_also_parses():
    cfg = parse(
        '{"squeezing": {"r1": 0.5, "r2": 0.5}, '
        '"efficiencies": {"xi1_sq": 0.97, "xi2_sq": 0.95, "xi3_sq": 0.966, '
        '"xi4_sq": 0.968, "eta_sq": 0.9}, "mirror_R": 0.98, "gain": {"mode": "optimal"}}'
    )
    assert cfg.to_params().mirror_R == 0.98


@pytest.mark.parametrize(
    ("mode", "value", "message"),
    [("loud", None, "gain.mode: expected 'optimal' or 'fixed', got 'loud'"),
     ("fixed", None, "gain: fixed mode requires 'value'"),
     ("optimal", 0.5, "gain: optimal mode takes no 'value'")],
)
def test_gain_spec_owns_the_config_messages(mode, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GainSpec(mode, value)


def test_json_exponent_floats_parse():
    cfg = parse(
        '{"squeezing": {"r1_db": 4.9e0, "r2": 5.87E-1}, '
        '"efficiencies": {"xi1_sq": 9.7e-1, "xi2_sq": 0.95, "xi3_sq": 0.966, '
        '"xi4_sq": 0.968, "eta_sq": 9e-1}, "mirror_R": 0.98, '
        '"gain": {"mode": "fixed", "value": 7e-1}, "enl_db": 1e1}'
    )
    params = cfg.to_params()
    assert params.gain == GainSpec("fixed", 0.7)
    assert params.enl_db == 10.0
    assert params.r2 == 0.587
    assert params.r1 == r_from_db(4.9)
    assert params.eta == math.sqrt(0.9)
    # the exponent floats are this parser's own: PyYAML's loaders are unchanged
    assert yaml.safe_load("value: 1e-3") == {"value": "1e-3"}


def test_yaml_exponent_gain_value_parses(lab_config_text):
    text = lab_config_text.replace("mode: optimal", "mode: fixed\n  value: 7e-1")
    assert parse(text).to_params().gain == GainSpec("fixed", 0.7)


@pytest.mark.parametrize(("line", "key"), [("r1: 0.564", "r1_db"), ("r2: 0.587", "r2_db")])
def test_negative_db_squeezing_names_its_key(lab_config_text, line, key):
    with pytest.raises(ConfigError, match=rf"^squeezing\.{key}: squeezing depth must be >= 0 "
                                          r"dB below SNL, got -1\.0$"):
        parse(lab_config_text.replace(line, f"{key}: -1.0"))


@pytest.mark.parametrize(
    ("mutation", "changes"),
    [
        (lambda t: t, {}),  # r-specified, optimal gain, enl present
        (lambda t: t.replace("r1: 0.564", "r1_db: 4.9"), {"r1": r_from_db(4.9)}),
        (lambda t: t.replace("mode: optimal", "mode: fixed\n  value: 0.74"),
         {"gain": GainSpec("fixed", 0.74)}),
        (lambda t: t + "blocked: true\n", {"channel_blocked": True}),
        (lambda t: t.replace("enl_db: 11.3\n", ""), {"enl_db": None}),
    ],
    ids=["r", "r_db", "fixed_gain", "blocked", "no_enl"],
)
def test_parse_documents_to_params(lab_config_text, mutation, changes):
    expected = replace(make_lab_params(enl_db=11.3), **changes)
    assert parse(mutation(lab_config_text)).to_params() == expected


@pytest.mark.parametrize("line", ["mirror_R: 0.98", "enl_db: 11.3"])
def test_huge_integer_is_config_error(lab_config_text, line):
    key = line.split(":")[0]
    with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
        parse(lab_config_text.replace(line, f"{key}: 1{'0' * 400}"))
    # past Python's 4300-digit limit the YAML reader itself rejects the integer, at its mark
    with pytest.raises(ConfigError, match="config syntax error") as raised:
        ConfigFile.loads(lab_config_text.replace(line, f"{key}: {'1' * 5000}"), "huge.yaml")
    assert re.search(r' in "huge\.yaml", line \d+, column \d+$', str(raised.value))
    assert "sys." not in str(raised.value) and "\n" not in str(raised.value)


def test_date_past_the_calendar_is_config_error_at_its_mark(lab_config_text):
    # YAML 1.1 reads 2001-13-14 as a date, and the date constructor raises ValueError
    with pytest.raises(ConfigError, match=r'^config syntax error: month must be in 1\.\.12 '
                                          r'in "bad\.yaml", line \d+, column 11$'):
        ConfigFile.loads(lab_config_text.replace("mirror_R: 0.98", "mirror_R: 2001-13-14"),
                         "bad.yaml")


# -- documents nested too deep ----------------------------------------------------------

# four ways to nest a document 100,000 levels deep; libyaml composes each level by C
# recursion, which overflows an 8 MB stack near 25,000 levels
_DEEP_DOCUMENTS = [
    "squeezing: " + "[" * 100_000,
    "squeezing: " + "{a: " * 100_000,
    "- " * 100_000,
    "? " * 100_000,
]

# runs ``predict --config PATH`` through main for each path in argv, in one interpreter
_PREDICT_EACH = """\
import contextlib, io, json, sys
from cvswap.cli import main
results = []
for path in sys.argv[1:]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append([main(["predict", "--config", path]), err.getvalue()])
print(json.dumps(results))
"""


def test_deeply_nested_documents_are_config_errors(tmp_path):
    # in a child interpreter, so that a stack overflow fails this test, not the suite
    paths = []
    for i, text in enumerate(_DEEP_DOCUMENTS):
        paths.append(str(tmp_path / f"deep{i}.yaml"))
        (tmp_path / f"deep{i}.yaml").write_text(text + "\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cvswap.__file__)))
    done = subprocess.run([sys.executable, "-c", _PREDICT_EACH, *paths],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stderr == "", (done.returncode, done.stderr)
    for path, (code, err) in zip(paths, json.loads(done.stdout)):
        assert code == EXIT_CONFIG
        assert err.startswith("config error: config syntax error: ") and err.count("\n") == 1
        assert f'in "{path}"' in err


def test_pure_python_parser_nested_too_deep_is_config_error(tmp_path, monkeypatch, capsys):
    # PyYAML without libyaml composes in Python, which runs into the recursion limit
    class PureLoader(yaml.SafeLoader):
        pass

    monkeypatch.setattr(cvswap.config, "_Loader", PureLoader)
    path = tmp_path / "deep.yaml"
    path.write_text("squeezing: " + "[" * 600 + "]" * 600 + "\n")
    assert main(["predict", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: config syntax error: ") and err.count("\n") == 1


def test_nesting_indicators_up_to_the_bound_parse(lab_config_text):
    bound = cvswap.config._MAX_INDICATORS
    spare = bound - sum(map(lab_config_text.count, "[{-?:"))
    assert parse(f"{lab_config_text}# {'-' * spare}\n").to_params() == make_lab_params(enl_db=11.3)
    with pytest.raises(ConfigError, match=f"^config syntax error: over {bound} nesting"):
        parse(f"{lab_config_text}# {'-' * (spare + 1)}\n")


def _aliased_list(levels: int) -> str:
    """A flow list of ``levels`` anchored lists of nine, each level aliasing the one
    before: a few hundred bytes whose repr has 9 ** levels leaves."""
    items = ["&l0 [" + ", ".join(["x"] * 9) + "]"]
    items += [f"&l{i} [" + ", ".join([f"*l{i - 1}"] * 9) + "]" for i in range(1, levels)]
    return "[" + ", ".join(items) + "]"


@pytest.mark.parametrize("levels", [6, 9])
@pytest.mark.parametrize(
    ("slot", "value", "message"),
    [("r1: 0.564", "r1: {}", "squeezing.r1: expected a number, got a list"),
     ("mode: optimal", "mode: {}", "gain.mode: expected 'optimal' or 'fixed', got a list"),
     ("enl_db: 11.3", "enl_db: 11.3\nblocked: {}", "blocked: expected true/false, got a list"),
     ("mirror_R: 0.98", "mirror_R: {{deep: {}}}", "mirror_R: expected a number, got a mapping")],
    ids=["squeezing.r1", "gain.mode", "blocked", "mapping"],
)
def test_aliased_values_are_named_by_kind(lab_config_text, tmp_path, capsys,
                                          levels, slot, value, message):
    # the repr of the six-level value is 3.1 MB; nine levels would be about 2.3 GB
    text = lab_config_text.replace(slot, value.format(_aliased_list(levels)))
    assert text != lab_config_text and len(text) < 1000
    with pytest.raises(ConfigError) as caught:
        parse(text)
    assert str(caught.value) == message
    path = tmp_path / "aliased.yaml"
    path.write_text(text)
    assert main(["predict", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
