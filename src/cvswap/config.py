"""Config-file schema and strict parsing for the CLI.

Documents are YAML (JSON therefore also parses). Efficiencies are quoted as
intensities (xi*_sq, eta_sq) because that is how they are measured;
:meth:`ExperimentParams.from_intensities` takes the square roots. Squeezing
goes in either as a parameter ``r`` or as a dB depth below shot noise,
exactly one per beam. Parsing checks the document's shape and rejects
unknown keys with their path; the value ranges are checked once, by the
parameter records, and a range error is a :class:`ConfigError` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import analytics
from .params import ExperimentParams, GainSpec

__all__ = ["ConfigError", "ConfigFile"]


class ConfigError(Exception):
    """Malformed config document (syntax, schema, or value errors)."""


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: expected a finite number, "
                          "got an integer too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _section(doc: dict, key: str, allowed: set[str]) -> dict:
    section = doc.get(key)
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: expected a mapping")
    for sub in section:
        if sub not in allowed:
            raise ConfigError(f"{key}: unknown key {sub!r}")
    return section


_TOP_KEYS = {"squeezing", "efficiencies", "mirror_R", "gain", "enl_db", "blocked"}
_EFF_KEYS = {"xi1_sq", "xi2_sq", "xi3_sq", "xi4_sq", "eta_sq"}


@dataclass(frozen=True)
class ConfigFile:
    """A parsed experiment config: the parameter set it describes."""

    params: ExperimentParams

    @classmethod
    def from_dict(cls, doc: object) -> ConfigFile:
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a mapping")
        for key in doc:
            if key not in _TOP_KEYS:
                raise ConfigError(f"unknown top-level key {key!r}")
        for key in ("squeezing", "efficiencies", "mirror_R", "gain"):
            if key not in doc:
                raise ConfigError(f"missing required key {key!r}")

        squeezing = _section(doc, "squeezing", {"r1", "r1_db", "r2", "r2_db"})
        given: dict[str, tuple[str, float]] = {}
        for beam in ("r1", "r2"):
            present = [key for key in (beam, beam + "_db") if squeezing.get(key) is not None]
            if len(present) != 1:
                raise ConfigError(f"squeezing: give exactly one of {beam!r} or '{beam}_db'")
            given[beam] = present[0], _number(squeezing[present[0]], f"squeezing.{present[0]}")

        efficiencies = _section(doc, "efficiencies", _EFF_KEYS)
        eff: dict[str, float] = {}
        for key in sorted(_EFF_KEYS):
            if key not in efficiencies:
                raise ConfigError(f"efficiencies: missing key {key!r}")
            eff[key] = _number(efficiencies[key], f"efficiencies.{key}")

        mirror_r = _number(doc["mirror_R"], "mirror_R")

        gain = _section(doc, "gain", {"mode", "value"})
        mode = gain.get("mode")
        if mode not in ("optimal", "fixed"):
            raise ConfigError(f"gain.mode: expected 'optimal' or 'fixed', got {mode!r}")
        if mode == "fixed" and "value" not in gain:
            raise ConfigError("gain: fixed mode requires 'value'")
        if mode == "optimal" and "value" in gain:
            raise ConfigError("gain: optimal mode takes no 'value'")
        value = _number(gain["value"], "gain.value") if mode == "fixed" else None

        enl_db = _number(doc["enl_db"], "enl_db") if "enl_db" in doc else None

        blocked = doc.get("blocked", False)
        if not isinstance(blocked, bool):
            raise ConfigError(f"blocked: expected true/false, got {blocked!r}")

        try:
            r = {beam: analytics.r_from_db(number) if key.endswith("_db") else number
                 for beam, (key, number) in given.items()}
            spec = GainSpec.fixed(value) if mode == "fixed" else GainSpec.optimal()
            params = ExperimentParams.from_intensities(
                **r, **eff, mirror_R=mirror_r, gain=spec, channel_blocked=blocked, enl_db=enl_db
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(params)

    @classmethod
    def loads(cls, text: str) -> ConfigFile:
        try:
            doc = yaml.safe_load(text)
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int of > 4300 digits
            raise ConfigError(f"config syntax error: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path: str | Path) -> ConfigFile:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.loads(text)

    def to_params(self) -> ExperimentParams:
        return self.params
