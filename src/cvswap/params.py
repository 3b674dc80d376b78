"""Parameter and result records for the swapping experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ``np.any`` / ``np.all`` take about 3 us on a plain bool, and a one-point
# network build makes about 30 such checks; these take 0.1 us there.


def any_draw(mask) -> bool:
    """Whether a condition holds: a bool for one point, any draw of a bool array."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def every_draw(mask) -> bool:
    """Whether a condition holds: a bool for one point, every draw of a bool array."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) else bool(mask)


@dataclass(frozen=True)
class GainSpec:
    """Feedforward gain policy: the closed-form optimum, or a fixed g_swap.

    A fixed gain is a float, or an array with one gain per draw of a batch.
    """

    mode: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("optimal", "fixed"):
            raise ValueError(f"gain mode must be 'optimal' or 'fixed', got {self.mode!r}")
        if self.mode == "fixed":
            if self.value is None:
                raise ValueError("fixed gain requires a value")
            if not every_draw(self.value >= 0):
                raise ValueError(f"gain.value: must be >= 0, got {self.value}")
        elif self.value is not None:
            raise ValueError("optimal gain takes no value")

    @classmethod
    def optimal(cls) -> GainSpec:
        return cls("optimal")

    @classmethod
    def fixed(cls, g_swap: float) -> GainSpec:
        return cls("fixed", float(g_swap))


def check_unit(name: str, value) -> None:
    """Reject a value (or any draw of a batch) outside [0, 1], nan included."""
    if not every_draw((0.0 <= value) & (value <= 1.0)):
        raise ValueError(f"{name}: must be in [0, 1], got {value}")


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
    gain: GainSpec = GainSpec.optimal()
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

    @classmethod
    def from_intensities(
        cls,
        *,
        r1: float,
        r2: float,
        xi1_sq: float,
        xi2_sq: float,
        xi3_sq: float,
        xi4_sq: float,
        eta_sq: float,
        mirror_R: float,
        gain: GainSpec | None = None,
        channel_blocked: bool = False,
        enl_db: float | None = None,
    ) -> ExperimentParams:
        """Build from intensity efficiencies (the convention instruments quote)."""
        for name, value in (
            ("xi1_sq", xi1_sq),
            ("xi2_sq", xi2_sq),
            ("xi3_sq", xi3_sq),
            ("xi4_sq", xi4_sq),
            ("eta_sq", eta_sq),
        ):
            check_unit(name, value)
        return cls(
            r1=r1,
            r2=r2,
            xi1=math.sqrt(xi1_sq),
            xi2=math.sqrt(xi2_sq),
            xi3=math.sqrt(xi3_sq),
            xi4=math.sqrt(xi4_sq),
            eta=math.sqrt(eta_sq),
            mirror_R=mirror_R,
            gain=gain if gain is not None else GainSpec.optimal(),
            channel_blocked=channel_blocked,
            enl_db=enl_db,
        )


@dataclass(frozen=True)
class VarianceReport:
    """Verification-stage output variances in SNL units, with verdict.

    ``v_plus`` is the amplitude-sum variance, ``v_minus`` the phase-difference
    variance; the dB fields are 10*log10 of the linear values (negative means
    below shot noise). ``entangled`` requires both strictly below 1.
    """

    v_plus: float
    v_minus: float
    v_plus_db: float
    v_minus_db: float
    entangled: bool
    margin: float  # 1 - max(v_plus, v_minus), see analytics.duan_verdict
    g_swap_used: float
