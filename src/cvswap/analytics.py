"""Closed-form variance and gain expressions, unit conversions, verdicts.

Everything here is pure arithmetic on :class:`ExperimentParams`; the
first-principles network in :mod:`cvswap.swap` must agree with
:func:`variance_formula` to high precision, which is the central
cross-check of the whole package (``cvswap verify``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import ExperimentParams, any_draw, every_draw

_LN10 = math.log(10.0)


def variance_formula(params: ExperimentParams, g_swap):
    """Verification-stage variance (SNL units) at normalized feedforward gain ``g_swap``.

    Identical for the amplitude-sum and phase-difference channels. On a batch
    of draws ``g_swap`` holds one gain per draw and the result one variance
    per draw.
    """
    feedforward = _check_gains(params, g_swap)
    if params.batch_shape:
        with np.errstate(**_RAISE):
            return _variance(params, params.r1, params.r2, g_swap, feedforward, np)
    return _finite(_variance(params, params.r1, params.r2, g_swap, feedforward, math))


def optimal_gain(params: ExperimentParams) -> float:
    """Normalized gain minimizing :func:`variance_formula`; 0 when nothing is squeezed.

    Takes one parameter point, not a batch of draws.
    """
    return _finite(_optimal_gain(params, params.r1, params.r2, math))


# -- the closed form ----------------------------------------------------------
#
# Written once for scalar, grid and batch use: the parameters are either
# floats (with xp = math) or arrays that broadcast against each other (with
# xp = numpy). Either way a result outside floating-point range is an
# ArithmeticError: scalar callers check the result (float * and / overflow to
# inf silently), array callers evaluate under np.errstate(**_RAISE).

_RAISE = dict(divide="raise", over="raise", invalid="raise")


def _finite(value: float) -> float:
    """``value`` as a built-in float, or OverflowError if it is inf or nan."""
    value = float(value)
    if not math.isfinite(value):
        raise OverflowError(f"closed form evaluates to {value}")
    return value


def _check_gains(params: ExperimentParams, g_swap):
    """Reject gains the closed form cannot take; return where the gain is nonzero."""
    if any_draw(g_swap < 0):
        raise ValueError(f"g_swap must be >= 0, got {np.min(g_swap)}")
    feedforward = g_swap > 0
    if any_draw(feedforward & (params.xi1 == 0)):
        raise ValueError("xi1 = 0 with nonzero gain: feedforward noise term diverges")
    return feedforward


def _variance(params: ExperimentParams, r1, r2, g_swap, feedforward, xp):
    """The verification-stage variance.

    The closed form keeps its specific efficiency dressing on purpose; do not
    "simplify" it, the network oracle guards the transcription.
    ``feedforward`` says where the gain is nonzero (see :func:`_check_gains`).
    """
    x1, x2, x3, x4 = params.xi1, params.xi2, params.xi3, params.xi4
    eta = params.eta
    sqrt_r = xp.sqrt(params.mirror_R)
    exp = xp.exp

    v = (0.25 * (eta * x3 - g_swap * eta * x4) ** 2 * exp(2.0 * r1)
         + 0.25 * (sqrt_r * eta * x2 * x4 - g_swap * eta * x4) ** 2 * exp(2.0 * r2)
         + 0.25 * (eta * x3 + g_swap * eta * x4) ** 2 * exp(-2.0 * r1)
         + 0.25 * (sqrt_r * eta * x2 * x4 + g_swap * eta * x4) ** 2 * exp(-2.0 * r2)
         + (1.0 - eta**2)
         + 0.5 * eta**2 * (2.0 - x3**2 - x4**2)
         + 0.5 * eta**2 * (1.0 - params.mirror_R * x2**2) * x4**2)
    if any_draw(feedforward):
        # xi1 = 0 only on draws without feedforward (see _check_gains), whose
        # term is then 0 / 1 rather than 0 / 0
        v = v + g_swap**2 * (1.0 - eta**2 * x1**2) * x4**2 / (x1**2 + (x1 == 0))
    return v


def _optimal_gain(params: ExperimentParams, r1, r2, xp):
    """The gain minimizing :func:`_variance` at each (r1, r2)."""
    if params.xi4 == 0:
        raise ValueError("degenerate gain denominator (xi4 = 0): no beam to displace")
    exp = xp.exp
    e2r1, e2r2 = exp(2.0 * r1), exp(2.0 * r2)
    e4r1, e4r2 = exp(4.0 * r1), exp(4.0 * r2)
    sqrt_r = math.sqrt(params.mirror_R)
    eta_sq = params.eta**2
    xi1_sq = params.xi1**2

    numerator = eta_sq * ((e4r1 - 1.0) * e2r2 * params.xi3
                          + e2r1 * (e4r2 - 1.0) * sqrt_r * params.xi2 * params.xi4) * xi1_sq
    denominator = (4.0 * exp(2.0 * (r1 + r2))
                   + eta_sq * (e2r1 + e2r2
                               + exp(4.0 * r1 + 2.0 * r2)
                               + exp(2.0 * r1 + 4.0 * r2)
                               - 4.0 * exp(2.0 * (r1 + r2))) * xi1_sq) * params.xi4
    return numerator / denominator


def gain_to_electronic(g_swap, params: ExperimentParams):
    """Electronic gain g realizing a normalized g_swap = sqrt(1-R)/sqrt(2) * eta * xi1 * g.

    Elementwise on a batch of draws. A zero ``g_swap`` maps to 0 and needs
    no feedforward port, so such a draw may have mirror_R = 1.
    """
    unused = g_swap == 0.0
    if not every_draw(unused | (params.mirror_R < 1.0)):
        raise ValueError("mirror_R = 1 leaves no feedforward port")
    if not every_draw(unused | ((params.eta != 0) & (params.xi1 != 0))):
        raise ValueError("eta and xi1 must be > 0 to set an electronic gain")
    port = np.sqrt(1.0 - params.mirror_R) * params.eta * params.xi1
    # a draw without gain divides 0 by port + 1, since its port may be closed
    g = math.sqrt(2.0) * g_swap / (port + unused)
    return g if isinstance(g, np.ndarray) else float(g)


# -- unit conversions --------------------------------------------------------
#
# Two dB conventions coexist, both standard on the bench:
#   * db_from_linear uses signed dB relative to SNL (negative = below shot
#     noise), matching VarianceReport.
#   * r_from_db and enl_correct quote a positive *depth below SNL*, the way
#     squeezing levels are reported: exp(-2r) = 10^(-dB/10).


def db_from_linear(v: float) -> float:
    if not v > 0:
        raise ValueError(f"linear variance must be > 0, got {v}")
    return 10.0 * math.log10(v)


def r_from_db(db: float) -> float:
    if db < 0:
        raise ValueError(f"squeezing depth must be >= 0 dB below SNL, got {db}")
    return db * _LN10 / 20.0


def enl_correct(v_meas_db_below_snl: float, enl_db_below_snl: float) -> float:
    """Remove the electronic-noise floor from a measured suppression depth.

    Both arguments and the result are positive dB below SNL. The floor is
    subtracted in linear units and the remainder renormalized to the
    floor-free shot noise: (V_meas - V_enl) / (1 - V_enl).
    """
    if not enl_db_below_snl > 0:
        raise ValueError(f"ENL must sit strictly below the SNL, got {enl_db_below_snl} dB")
    v_meas = 10.0 ** (-v_meas_db_below_snl / 10.0)
    v_enl = 10.0 ** (-enl_db_below_snl / 10.0)
    if v_meas <= v_enl:
        raise ValueError("measured variance is at or below the electronic noise floor")
    return -10.0 * math.log10((v_meas - v_enl) / (1.0 - v_enl))


_SNL_BOUNDARY_TOL = 1e-12


def duan_verdict(v_plus: float, v_minus: float) -> tuple[bool, float]:
    """Inseparability verdict: both joint variances strictly below shot noise.

    Returns (entangled, margin) with margin = 1 - max(v_plus, v_minus). The
    boundary counts as not entangled, with a 1e-12 guard band so that pure
    float accumulation noise in an exactly-at-SNL chain can never flip the
    verdict.
    """
    if not (v_plus > 0 and v_minus > 0):
        raise ValueError("variances must be > 0")
    worst = max(v_plus, v_minus)
    return worst < 1.0 - _SNL_BOUNDARY_TOL, 1.0 - worst


def preserved_fraction(initial_db: float, swapped_db: float) -> float:
    """Fraction of the initial suppression depth surviving the swap (dB ratio)."""
    if not initial_db > 0:
        raise ValueError(f"initial suppression must be > 0 dB, got {initial_db}")
    return swapped_db / initial_db


# -- sweeps -------------------------------------------------------------------


@dataclass
class SweepGrid:
    """Optimal-gain variance surface over a squeezing-parameter grid."""

    r1_values: np.ndarray
    r2_values: np.ndarray
    values: np.ndarray  # shape (len(r1_values), len(r2_values)), linear SNL units


def sweep_surface(
    params: ExperimentParams,
    r1_axis: Sequence[float],
    r2_axis: Sequence[float],
) -> SweepGrid:
    """Evaluate variance_formula at the per-point optimal gain over the grid.

    One broadcast evaluation of the closed form over ``r1 x r2``.
    """
    r1s = np.asarray(list(r1_axis), dtype=float)
    r2s = np.asarray(list(r2_axis), dtype=float)
    if r1s.size == 0 or r2s.size == 0:
        raise ValueError("sweep axes must be nonempty")
    if not ((r1s >= 0).all() and (r2s >= 0).all()):  # also rejects nan
        raise ValueError("squeezing parameters must be >= 0")
    r1, r2 = r1s[:, None], r2s[None, :]
    with np.errstate(**_RAISE):
        gains = _optimal_gain(params, r1, r2, np)
        feedforward = _check_gains(params, gains)
        values = _variance(params, r1, r2, gains, feedforward, np)
    return SweepGrid(r1s, r2s, values)
