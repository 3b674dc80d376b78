"""Config-file schema and strict parsing for the CLI.

Documents are YAML, read with YAML 1.2's floats (``1e-3`` is a number, not a
string); JSON therefore also parses. A block-form document is read line by
line, and PyYAML is imported only for a document of any other form.
Efficiencies are quoted as intensities (xi*_sq, eta_sq) because that is how
they are measured; :meth:`ExperimentParams.from_intensities` takes the
square roots. Squeezing goes in either as a parameter ``r`` or as a dB depth
below shot noise, exactly one per beam. Parsing checks the document's shape
and rejects unknown keys with their path; the value ranges are checked once,
by the parameter records, and a range error is a :class:`ConfigError` too.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path

from . import analytics
from .params import ExperimentParams, GainSpec, shown

__all__ = ["ConfigError", "ConfigFile"]


class ConfigError(Exception):
    """Malformed config document (syntax, schema, or value errors)."""


@functools.cache
def _loader() -> type:
    """PyYAML's safe loader, on libyaml where built with it, plus YAML 1.2 floats (1.1 reads
    ``1e-3`` as a string), built on the first document that is not block form."""
    import yaml

    class Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
        pass  # on this subclass only: PyYAML's own loaders keep their resolvers and constructors

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"), list("-+0123456789."))

    def construct_marked(loader, node):
        """An int or a date as PyYAML builds it, but a ValueError (past Python's 4300-digit
        limit, past the calendar) is a ConstructorError at the node, without int()'s advice."""
        try:
            return yaml.constructor.SafeConstructor.yaml_constructors[node.tag](loader, node)
        except ValueError as exc:
            problem = str(exc).partition(";")[0]  # drops "; use sys.set_int_max_str_digits() ..."
            raise yaml.constructor.ConstructorError(None, None, problem, node.start_mark) from exc

    for tag in ("int", "timestamp"):
        Loader.add_constructor("tag:yaml.org,2002:" + tag, construct_marked)
    return Loader


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {shown(value)}")
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


# a document nests no deeper than its count of YAML's nesting indicators [ { - ? :, and
# libyaml composes each level by C recursion: an 8 MB stack overflows near 25,000 levels
_MAX_INDICATORS = 2000

_TOP_KEYS = {"squeezing", "efficiencies", "mirror_R", "gain", "enl_db", "blocked"}
_EFF_KEYS = {"xi1_sq", "xi2_sq", "xi3_sq", "xi4_sq", "eta_sq"}
_SQUEEZING_KEYS = {"r1", "r1_db", "r2", "r2_db"}
_GAIN_KEYS = {"mode", "value"}
_SCHEMA_KEYS = _TOP_KEYS | _EFF_KEYS | _SQUEEZING_KEYS | _GAIN_KEYS

# a block-form line in printable ASCII: indent, a schema key, a value that YAML 1.1 and _loader()
# read alike (a decimal, an integer short of octal and of 19 digits, a word), a comment
_BLOCK_LINE = re.compile(r"( *)(?:(\w+):(?: +(?:([-+]?[0-9]+\.[0-9]*(?:[eE][-+]?[0-9]+)?)"
                         r"|([-+]?(?:0|[1-9][0-9]{0,17}))|(true|false|optimal|fixed)))?)?"
                         r"(?:(?:^| +)#[ -~]*)?", re.ASCII)
_BOOLS = {"true": True, "false": False}


def _block_form(text: str) -> dict | None:
    """``yaml.load(text, Loader=_loader())`` if every line is a :data:`_BLOCK_LINE` of one
    mapping at most two deep, else None: PyYAML reads every other document."""
    doc, block, indent = {}, None, None
    for line in text.split("\n"):
        if (match := _BLOCK_LINE.fullmatch(line)) is None:
            return None
        spaces, key, decimal, integer, word = match.groups()
        if key is None:  # a blank or comment line
            continue
        value = float(decimal) if decimal else int(integer) if integer else _BOOLS.get(word, word)
        if not spaces:  # a top-level key: a value, or a block of children below
            mapping, block, indent = doc, {} if value is None else None, None
        elif block is None or value is None or spaces != (indent := indent or spaces):
            return None  # not a child of a block, or not at its one indent
        else:
            mapping = block
        if key not in _SCHEMA_KEYS or key in mapping:  # YAML 1.1 reads a key on: as True
            return None
        mapping[key] = block if value is None else value
    return doc if doc and {} not in doc.values() else None  # an empty block is None in YAML


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

        squeezing = _section(doc, "squeezing", _SQUEEZING_KEYS)
        r: dict[str, float] = {}
        for beam in ("r1", "r2"):
            present = [key for key in (beam, beam + "_db") if squeezing.get(key) is not None]
            if len(present) != 1:
                raise ConfigError(f"squeezing: give exactly one of {beam!r} or '{beam}_db'")
            key = present[0]
            number = _number(squeezing[key], f"squeezing.{key}")
            try:
                r[beam] = analytics.r_from_db(number) if key.endswith("_db") else number
            except ValueError as exc:
                raise ConfigError(f"squeezing.{key}: {exc}") from exc

        efficiencies = _section(doc, "efficiencies", _EFF_KEYS)
        eff: dict[str, float] = {}
        for key in sorted(_EFF_KEYS):
            if key not in efficiencies:
                raise ConfigError(f"efficiencies: missing key {key!r}")
            eff[key] = _number(efficiencies[key], f"efficiencies.{key}")

        mirror_r = _number(doc["mirror_R"], "mirror_R")

        gain = _section(doc, "gain", _GAIN_KEYS)
        value = _number(gain["value"], "gain.value") if "value" in gain else None

        enl_db = _number(doc["enl_db"], "enl_db") if "enl_db" in doc else None

        blocked = doc.get("blocked", False)
        if not isinstance(blocked, bool):
            raise ConfigError(f"blocked: expected true/false, got {shown(blocked)}")

        try:
            spec = GainSpec(gain.get("mode"), value)
            params = ExperimentParams.from_intensities(
                **r, **eff, mirror_R=mirror_r, gain=spec, channel_blocked=blocked, enl_db=enl_db
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(params)

    @classmethod
    def loads(cls, text: str, path: str | Path = "<unicode string>") -> ConfigFile:
        """The config in ``text``; a syntax error is one line naming ``path``."""
        if len(text) > _MAX_INDICATORS and sum(map(text.count, "[{-?:")) > _MAX_INDICATORS:
            raise ConfigError(f"config syntax error: over {_MAX_INDICATORS} nesting "
                              f'indicators ([ {{ - ? :), too deep to parse in "{path}"')
        if (doc := _block_form(text)) is None:
            import yaml
            try:  # RecursionError: a deep document on pure-Python PyYAML
                doc = yaml.load(text, Loader=_loader())
            except (yaml.YAMLError, RecursionError) as exc:
                # one line naming the file: the problem at its mark, or a ReaderError, lines joined
                mark = getattr(exc, "problem_mark", None)
                detail = (f'{exc.problem} in "{path}", line {mark.line + 1}, column '
                          f'{mark.column + 1}' if mark else
                          str(exc).replace('\n  in "<unicode string>"', f' in "{path}"'))
                raise ConfigError(f"config syntax error: {detail}") from exc
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path: str | Path) -> ConfigFile:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.loads(text, path)

    def to_params(self) -> ExperimentParams:
        return self.params
