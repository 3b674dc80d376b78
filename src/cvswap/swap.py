"""First-principles assembly of the entanglement-swapping network.

Builds the full chain from :class:`ExperimentParams`: two squeezed pairs,
transmission losses, the joint (Bell) measurement with detector efficiency,
feedforward displacement of the kept beam through a high-reflectivity
mirror, and the verification measurement. Output variances come straight
from the Gaussian model, so this module is the independent oracle against
which the closed form in :mod:`cvswap.analytics` is checked.

Station map (mode labels): the pair (a, b) comes from the first squeezer and
(c, d) from the second; b and c travel to the joint measurement, a and d stay
with the end parties, and d picks up the feedforward displacement before both
a and d are verified together.

:func:`build_network` takes one parameter point or a batch of draws (see
:class:`ExperimentParams`); a batch is one network over the batch axis of
:class:`GaussianModel`, assembled by the same elements in the same order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytics
from .gaussian import GaussianModel
from .params import ExperimentParams, VarianceReport, any_draw

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class NetworkHandles:
    """Labels and measurement forms exposed by :func:`build_network`.

    Compared by identity: the forms are arrays, which have no single truth
    value for a field-by-field ``==``.
    """

    mode_a: str
    mode_dprime: str
    i_plus: np.ndarray        # amplitude-sum photocurrent of the joint measurement
    i_minus: np.ndarray       # phase-difference photocurrent
    victor_plus: np.ndarray   # verification amplitude-sum current
    victor_minus: np.ndarray  # verification phase-difference current
    g_swap: float | np.ndarray  # one per draw on a batch


def snl_network() -> tuple[GaussianModel, np.ndarray]:
    """Two fresh vacua and the joint amplitude-sum current on them."""
    m = GaussianModel.empty().add_vacuum_mode("v1").add_vacuum_mode("v2")
    return m, (m.x_form("v1") + m.x_form("v2")) * (1.0 / _SQRT2)


@functools.cache
def snl_reference() -> float:
    """Shot-noise normalization: the variance of :func:`snl_network`'s current.

    Computed, not assumed, so the verification variances stay correctly
    normalized even if the current convention changes; computed once per
    process, since it depends on no parameter.
    """
    model, form = snl_network()
    return model.variance(form)


def resolve_gain(params: ExperimentParams):
    """Normalized gain actually applied: 0 when blocked, else per the gain spec.

    One gain per draw on a batch of draws, whose gain must be fixed.
    """
    if params.batch_shape:
        if params.gain.mode == "optimal":
            raise ValueError("a batch of draws needs a fixed gain")
        gain = np.where(params.channel_blocked, 0.0, params.gain.value)
        return np.broadcast_to(gain, params.batch_shape)
    if params.channel_blocked:
        return 0.0
    if params.gain.mode == "optimal":
        return analytics.optimal_gain(params)
    return float(params.gain.value)  # type: ignore[arg-type]


def build_network(params: ExperimentParams) -> tuple[GaussianModel, NetworkHandles]:
    """Assemble the swap chain and return the model plus measurement handles."""
    g_swap = resolve_gain(params)

    m = GaussianModel.empty()
    m = m.add_epr_pair(("a", "b"), params.r1)
    m = m.add_epr_pair(("c", "d"), params.r2)

    # transmission to the joint measurement, then the 50:50 mixing
    m = m.loss("b", params.xi1).loss("c", params.xi1)
    m = m.beamsplitter(("b", "c"), 1.0 / _SQRT2)  # b -> sum port, c -> difference port

    # detector efficiency on both outputs, then the two photocurrents;
    # the negative power combiner flips the difference port so that
    # i_minus tracks y_b - y_c
    m = m.loss("b", params.eta).loss("c", params.eta)
    i_plus = m.x_form("b")
    i_minus = -m.y_form("c")

    # the kept beam decays over its own path before the coupling mirror
    m = m.loss("d", params.xi2)

    # modulated auxiliary beam: vacuum fluctuations around a bright mean
    # (the mean only matters for intensity matching, never for variances),
    # displaced by the photocurrents unless the classical channel is cut.
    # The mirror passes d with t = sqrt(R) and the beam with sqrt(1 - t*t),
    # which holds only a few digits of sqrt(1 - R) as R -> 1. The electronic
    # gain is therefore set for the mirror as built, R' = t*t; set for R, it
    # put the oracle 1.2e-9 off at R = 1 - 6e-8 and 12 % off at R = 1 - 1e-15.
    m = m.add_vacuum_mode("beta")
    t_mirror = np.sqrt(params.mirror_R)
    if any_draw(g_swap != 0.0):
        built = replace(params, mirror_R=t_mirror * t_mirror)
        g_electronic = analytics.gain_to_electronic(g_swap, built)
        m = m.displace_by_form("beta", i_plus, i_minus, g_electronic)
    m = m.beamsplitter(("d", "beta"), t_mirror)

    # remaining transmissions and the verification detectors
    m = m.loss("a", params.xi3).loss("d", params.xi4)
    m = m.loss("a", params.eta).loss("d", params.eta)

    k = 1.0 / _SQRT2
    handles = NetworkHandles(
        mode_a="a",
        mode_dprime="d",
        i_plus=i_plus,
        i_minus=i_minus,
        victor_plus=(m.x_form("a") + m.x_form("d")) * k,
        victor_minus=(m.y_form("a") - m.y_form("d")) * k,
        g_swap=g_swap,
    )
    return m, handles


def verification_variances(params: ExperimentParams):
    """SNL-normalized ``(v_plus, v_minus, g_swap)`` of the network oracle.

    ``g_swap`` is the gain applied; on a batch of draws each is one array
    over the draws.
    """
    model, handles = build_network(params)
    norm = snl_reference()
    v_plus = model.variance(handles.victor_plus) / norm
    v_minus = model.variance(handles.victor_minus) / norm
    return v_plus, v_minus, handles.g_swap


def run_experiment(params: ExperimentParams) -> VarianceReport:
    """Build the network and report SNL-normalized verification variances."""
    v_plus, v_minus, g_swap = verification_variances(params)
    entangled, margin = analytics.duan_verdict(v_plus, v_minus)
    return VarianceReport(
        v_plus=v_plus,
        v_minus=v_minus,
        v_plus_db=analytics.db_from_linear(v_plus),
        v_minus_db=analytics.db_from_linear(v_minus),
        entangled=entangled,
        margin=margin,
        g_swap_used=g_swap,
    )


def single_mode_noise(params: ExperimentParams, which: str) -> float:
    """Amplitude-quadrature noise of one verified beam alone, SNL units.

    ``which`` is "a" (the untouched beam) or "dprime" (the displaced beam,
    including whatever feedforward the params apply).
    """
    model, handles = build_network(params)
    if which == "a":
        form = model.x_form(handles.mode_a)
    elif which == "dprime":
        form = model.x_form(handles.mode_dprime)
    else:
        raise ValueError(f"unknown mode {which!r}: expected 'a' or 'dprime'")
    return model.variance(form) / snl_reference()
