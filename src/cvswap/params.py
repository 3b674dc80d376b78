"""Parameter and result records for the swapping experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXP_MAX = math.log(np.finfo(float).max)  # math.exp is finite here and raises one ulp above

# ``np.any`` / ``np.all`` take about 3 us on a plain bool, and a one-point
# network build makes about 30 such checks; these take 0.1 us there.


def any_draw(mask) -> bool:
    """Whether a condition holds: a bool for one point, any draw of a bool array."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def every_draw(mask) -> bool:
    """Whether a condition holds: a bool for one point, every draw of a bool array."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) else bool(mask)


def finite(quantity: str, value):
    """``value``, or an OverflowError naming ``quantity`` if it or any draw is inf or nan:
    the one check of every route's result. A numpy scalar comes back a built-in float."""
    if type(value) is float:  # math.isfinite: np.isfinite takes about 2 us on a scalar
        if not math.isfinite(value):
            raise OverflowError(f"{quantity} evaluates to {value}")
    elif not np.isfinite(value).all():
        raise OverflowError(f"{quantity} is inf or nan")
    return value if type(value) is float or getattr(value, "ndim", 0) else float(value)


def exp(x):
    """libm's ``exp``, silently inf past the float range (:func:`finite` checks the result):
    a float, or an array entry by entry, as numpy's differs in the last ulp on some inputs."""
    if type(x) is float or not isinstance(x, np.ndarray):  # a float skips isinstance (60 ns)
        return math.inf if x > EXP_MAX else math.exp(x)
    x = np.where(x > EXP_MAX, math.inf, x)
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def shown(value) -> str:
    """``repr`` of a scalar, the kind of a list or mapping: YAML aliases blow up its repr."""
    return {list: "a list", dict: "a mapping"}.get(type(value)) or repr(value)


@dataclass(frozen=True)
class GainSpec:
    """Feedforward gain policy: the closed-form optimum, or a fixed g_swap.

    A fixed gain is a float, or an array with one gain per draw of a batch.
    """

    mode: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("optimal", "fixed"):
            raise ValueError(f"gain.mode: expected 'optimal' or 'fixed', got {shown(self.mode)}")
        if self.mode == "fixed":
            if self.value is None:
                raise ValueError("gain: fixed mode requires 'value'")
            check_gain("gain.value:", self.value)
        elif self.value is not None:
            raise ValueError("gain: optimal mode takes no 'value'")


def check_unit(name: str, value) -> None:
    """Reject a value (or any draw of a batch) outside [0, 1], nan included."""
    if not every_draw((0.0 <= value) & (value <= 1.0)):
        raise ValueError(f"{name}: must be in [0, 1], got {value}")


def check_gain(label: str, value) -> None:
    """Reject a gain (or any draw of a batch) below 0, nan included: one rule for every gain."""
    if not every_draw(value >= 0):
        raise ValueError(f"{label} must be >= 0, got {value}")


def _shape(value) -> tuple[int, ...]:
    return getattr(value, "shape", ())


_NUMERIC_FIELDS = ("r1", "r2", "xi1", "xi2", "xi3", "xi4", "eta", "mirror_R")


@dataclass(frozen=True)
class ExperimentParams:
    """Full parameter set of the swap bench.

    ``xi1..xi4`` and ``eta`` are *amplitude* transmissions/efficiencies;
    quoted intensity values go through :meth:`from_intensities`. ``xi1``
    applies to both beams sent to the Bell measurement, ``xi2`` to the beam
    kept for displacement, ``xi3``/``xi4`` to the two verified beams, and
    ``eta`` to every detector. ``mirror_R`` is the intensity reflectivity of
    the coupling mirror that merges the modulated beam.

    A batch of parameter draws holds equal-length 1-D arrays in the eight
    numeric fields (``r1`` ... ``mirror_R``); ``channel_blocked`` and a fixed
    gain's value are then a scalar shared by every draw or an array of the
    same length. Every check applies to each draw.
    """

    r1: float
    r2: float
    xi1: float
    xi2: float
    xi3: float
    xi4: float
    eta: float
    mirror_R: float
    gain: GainSpec = GainSpec("optimal")
    channel_blocked: bool = False
    enl_db: float | None = None

    def __post_init__(self) -> None:
        batch = self.batch_shape
        shapes = {_shape(getattr(self, name)) for name in _NUMERIC_FIELDS}
        shapes |= {_shape(self.channel_blocked), _shape(self.gain.value)} - {()}
        if len(batch) > 1 or shapes != {batch}:
            raise ValueError("parameter fields must be floats or equal-length 1-D arrays, "
                             f"got shapes {sorted(shapes)}")
        for name in _NUMERIC_FIELDS[:2]:
            value = getattr(self, name)
            if not every_draw(value >= 0):
                raise ValueError(f"squeezing.{name}: must be >= 0, got {value}")
        for name in _NUMERIC_FIELDS[2:]:
            check_unit(name, getattr(self, name))
        if self.enl_db is not None and not every_draw(self.enl_db > 0):
            raise ValueError(f"enl_db must be a positive dB depth below SNL, got {self.enl_db}")

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """``()`` for one parameter point, ``(n,)`` for a batch of n draws."""
        return _shape(self.r1)

    def one_point(self, user: str) -> None:
        """Reject a batch of draws: ``user`` takes one parameter point."""
        if self.batch_shape:
            raise ValueError(f"{user} takes one parameter point, not a batch of draws")

    def as_dict(self) -> dict:
        """The fields by name, ``gain`` as a nested dict and a numpy scalar as the Python
        number it equals: ``dataclasses.asdict`` without its recursive deep copy."""
        fields = {**vars(self), "gain": dict(vars(self.gain))}
        for record in (fields, fields["gain"]):
            record.update({k: v.item() for k, v in record.items() if isinstance(v, np.generic)})
        return fields

    @classmethod
    def from_intensities(cls, *, xi1_sq: float, xi2_sq: float, xi3_sq: float, xi4_sq: float,
                         eta_sq: float, **fields) -> ExperimentParams:
        """Build from intensity efficiencies (the convention instruments quote); every
        other field goes to the record by name, with the record's defaults."""
        intensities = {"xi1": xi1_sq, "xi2": xi2_sq, "xi3": xi3_sq, "xi4": xi4_sq, "eta": eta_sq}
        for name, value in intensities.items():
            check_unit(f"{name}_sq", value)
        return cls(**{name: math.sqrt(value) for name, value in intensities.items()}, **fields)


@dataclass(frozen=True)
class VarianceReport:
    """Verification-stage output in SNL units; its fields lead ``predict --json``, in order.

    ``gain_mode`` is "optimal", "fixed" or "blocked". The dB fields are 10*log10 of
    ``v_plus`` (amplitude sum) and ``v_minus`` (phase difference), negative below shot
    noise; ``entangled`` requires both strictly below 1.
    """

    g_swap: float
    gain_mode: str
    v_plus: float
    v_minus: float
    v_plus_db: float
    v_minus_db: float
    entangled: bool
    margin: float  # 1 - max(v_plus, v_minus), see analytics.duan_verdict
