"""Config schema: strict parsing into the parameter records."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from cvswap import ConfigError, ConfigFile, GainSpec, r_from_db, run_experiment
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
    ("mutation", "changes"),
    [
        (lambda t: t, {}),  # r-specified, optimal gain, enl present
        (lambda t: t.replace("r1: 0.564", "r1_db: 4.9"), {"r1": r_from_db(4.9)}),
        (lambda t: t.replace("mode: optimal", "mode: fixed\n  value: 0.74"),
         {"gain": GainSpec.fixed(0.74)}),
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
    # past Python's 4300-digit limit the YAML reader itself rejects the integer
    with pytest.raises(ConfigError, match="config syntax error"):
        parse(lab_config_text.replace(line, f"{key}: {'1' * 5000}"))
