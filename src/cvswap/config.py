"""Config-file schema and strict parsing for the CLI.

Documents are YAML (JSON therefore also parses). Efficiencies are quoted as
intensities (xi*_sq, eta_sq) because that is how they are measured; the
square roots are taken exactly once, here, when converting to
:class:`ExperimentParams`. Squeezing goes in either as a parameter ``r`` or
as a dB depth below shot noise, exactly one per beam. Unknown keys are
rejected with their path.
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
    number = float(value)
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
    """Parsed experiment config; remembers whether squeezing came in dB or as r."""

    r1: float | None
    r1_db: float | None
    r2: float | None
    r2_db: float | None
    xi1_sq: float
    xi2_sq: float
    xi3_sq: float
    xi4_sq: float
    eta_sq: float
    mirror_R: float
    gain_mode: str
    gain_value: float | None
    enl_db: float | None
    blocked: bool

    # -- parsing -------------------------------------------------------------

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
        pairs: dict[str, float | None] = {}
        for beam in ("r1", "r2"):
            as_r = squeezing.get(beam)
            as_db = squeezing.get(beam + "_db")
            if (as_r is None) == (as_db is None):
                raise ConfigError(f"squeezing: give exactly one of {beam!r} or '{beam}_db'")
            pairs[beam] = None if as_r is None else _number(as_r, f"squeezing.{beam}")
            pairs[beam + "_db"] = None if as_db is None else _number(as_db, f"squeezing.{beam}_db")
            for suffix in ("", "_db"):
                value = pairs[beam + suffix]
                if value is not None and value < 0:
                    raise ConfigError(f"squeezing.{beam}{suffix}: must be >= 0, got {value}")

        efficiencies = _section(doc, "efficiencies", _EFF_KEYS)
        eff: dict[str, float] = {}
        for key in sorted(_EFF_KEYS):
            if key not in efficiencies:
                raise ConfigError(f"efficiencies: missing key {key!r}")
            value = _number(efficiencies[key], f"efficiencies.{key}")
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"efficiencies.{key}: must be in [0, 1], got {value}")
            eff[key] = value

        mirror_r = _number(doc["mirror_R"], "mirror_R")
        if not 0.0 <= mirror_r <= 1.0:
            raise ConfigError(f"mirror_R: must be in [0, 1], got {mirror_r}")

        gain = _section(doc, "gain", {"mode", "value"})
        mode = gain.get("mode")
        if mode not in ("optimal", "fixed"):
            raise ConfigError(f"gain.mode: expected 'optimal' or 'fixed', got {mode!r}")
        value: float | None = None
        if mode == "fixed":
            if "value" not in gain:
                raise ConfigError("gain: fixed mode requires 'value'")
            value = _number(gain["value"], "gain.value")
            if value < 0:
                raise ConfigError(f"gain.value: must be >= 0, got {value}")
        elif "value" in gain:
            raise ConfigError("gain: optimal mode takes no 'value'")

        enl_db: float | None = None
        if "enl_db" in doc:
            enl_db = _number(doc["enl_db"], "enl_db")
            if not enl_db > 0:
                raise ConfigError(f"enl_db: must be a positive dB depth, got {enl_db}")

        blocked = doc.get("blocked", False)
        if not isinstance(blocked, bool):
            raise ConfigError(f"blocked: expected true/false, got {blocked!r}")

        return cls(
            r1=pairs["r1"],
            r1_db=pairs["r1_db"],
            r2=pairs["r2"],
            r2_db=pairs["r2_db"],
            xi1_sq=eff["xi1_sq"],
            xi2_sq=eff["xi2_sq"],
            xi3_sq=eff["xi3_sq"],
            xi4_sq=eff["xi4_sq"],
            eta_sq=eff["eta_sq"],
            mirror_R=mirror_r,
            gain_mode=mode,
            gain_value=value,
            enl_db=enl_db,
            blocked=blocked,
        )

    @classmethod
    def loads(cls, text: str) -> ConfigFile:
        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config syntax error: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path: str | Path) -> ConfigFile:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.loads(text)

    # -- output --------------------------------------------------------------

    def to_dict(self) -> dict:
        squeezing: dict[str, float] = {}
        for beam in ("r1", "r2"):
            as_r = getattr(self, beam)
            if as_r is not None:
                squeezing[beam] = as_r
            else:
                squeezing[beam + "_db"] = getattr(self, beam + "_db")
        gain: dict[str, object] = {"mode": self.gain_mode}
        if self.gain_value is not None:
            gain["value"] = self.gain_value
        doc: dict[str, object] = {
            "squeezing": squeezing,
            "efficiencies": {
                "xi1_sq": self.xi1_sq,
                "xi2_sq": self.xi2_sq,
                "xi3_sq": self.xi3_sq,
                "xi4_sq": self.xi4_sq,
                "eta_sq": self.eta_sq,
            },
            "mirror_R": self.mirror_R,
            "gain": gain,
        }
        if self.enl_db is not None:
            doc["enl_db"] = self.enl_db
        if self.blocked:
            doc["blocked"] = True
        return doc

    def to_params(self) -> ExperimentParams:
        r1 = self.r1 if self.r1 is not None else analytics.r_from_db(self.r1_db)
        r2 = self.r2 if self.r2 is not None else analytics.r_from_db(self.r2_db)
        if self.gain_mode == "fixed":
            gain = GainSpec.fixed(self.gain_value)
        else:
            gain = GainSpec.optimal()
        try:
            return ExperimentParams.from_intensities(
                r1=r1,
                r2=r2,
                xi1_sq=self.xi1_sq,
                xi2_sq=self.xi2_sq,
                xi3_sq=self.xi3_sq,
                xi4_sq=self.xi4_sq,
                eta_sq=self.eta_sq,
                mirror_R=self.mirror_R,
                gain=gain,
                channel_blocked=self.blocked,
                enl_db=self.enl_db,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
