"""First-principles assembly of the entanglement-swapping network.

Builds the full chain from :class:`ExperimentParams`: two squeezed pairs,
transmission losses, the joint (Bell) measurement with detector efficiency,
feedforward displacement of the kept beam through a high-reflectivity
mirror, and the verification measurement. Output variances come straight
from the Gaussian model, so this module is the independent oracle against
which the closed form in :mod:`cvswap.analytics` is checked.

Station map (mode labels): the pair (a, b) comes from the first squeezer and
(c, d) from the second; b and c go to the joint measurement, a and d stay with
the end parties, and d picks up the feedforward displacement (d') before both
are verified. :class:`NetworkHandles` holds every form of this map, and
:data:`READ_OUTS` names the one each trace kind reads (see :func:`noise`).

:func:`build_network` takes one parameter point or a batch of draws (see
:class:`ExperimentParams`); a batch is one network over the trailing batch
axis of :class:`GaussianModel`, assembled by the same elements in the same order.
The network is one :class:`GaussianModel` with the batch shape of the
parameters, which no element changes: it is grown in place, one element at a
time, on arrays sized once for the whole network, and frozen read-only when
the last element is in (see :mod:`cvswap.gaussian`). A variance outside
floating-point range is an ``OverflowError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytics
from .gaussian import GaussianModel
from .params import ExperimentParams, VarianceReport, any_draw

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# five modes; two pairs of four sources each, and one vacuum mode and nine
# losses of two each
_NETWORK_MODES, _NETWORK_SOURCES = 5, 28


@dataclass(frozen=True, eq=False)
class NetworkHandles:
    """Measurement forms and applied gain exposed by :func:`build_network`.

    Every read-out of the station map is one of these forms: the joint
    measurement's currents, the verification currents on a and d', and the
    amplitude quadrature of a or d' alone; those on a and d' are masked out of
    ``model``'s rows when read. Compared by identity: the forms are arrays,
    which have no single truth value for a field-by-field ``==``.
    """

    i_plus: np.ndarray          # amplitude-sum photocurrent of the joint measurement
    i_minus: np.ndarray         # phase-difference photocurrent
    g_swap: float | np.ndarray  # one per draw on a batch
    model: GaussianModel        # the frozen network the forms below are read from
    # verification amplitude-sum and phase-difference currents, then the
    # amplitude quadrature of the untouched beam a and of the displaced beam d' alone
    victor_plus = property(lambda self: (self.a + self.dprime) * _SQRT_HALF)
    victor_minus = property(
        lambda self: (self.model.y_form("a") - self.model.y_form("d")) * _SQRT_HALF)
    a = property(lambda self: self.model.x_form("a"))
    dprime = property(lambda self: self.model.x_form("d"))


# each trace kind's NetworkHandles form and whether the channel is cut first; "snl" is 1
READ_OUTS = {"correlated": ("victor_plus", False), "blocked": ("victor_plus", True),
             "single_mode_a": ("a", False), "single_mode_dprime": ("dprime", False), "snl": None}


@functools.cache
def snl_reference() -> float:
    """Shot-noise normalization: the joint amplitude-sum current's variance on two vacua.

    Computed, not assumed, so the verification variances stay correctly
    normalized even if the current convention changes; computed once per
    process, since it depends on no parameter.
    """
    m = GaussianModel(2, 4).add_vacuum_mode("v1").add_vacuum_mode("v2").freeze()
    return m.variance((m.x_form("v1") + m.x_form("v2")) * _SQRT_HALF)


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

    net = GaussianModel(_NETWORK_MODES, _NETWORK_SOURCES, params.batch_shape)
    net.add_epr_pair(("a", "b"), params.r1).add_epr_pair(("c", "d"), params.r2)

    # transmission to the joint measurement, then the 50:50 mixing
    net.loss("b", params.xi1).loss("c", params.xi1)
    net.beamsplitter(("b", "c"), _SQRT_HALF)  # b -> sum port, c -> difference port

    # detector efficiency on both outputs, then the two photocurrents;
    # the negative power combiner flips the difference port so that
    # i_minus tracks y_b - y_c
    net.loss("b", params.eta).loss("c", params.eta)
    i_plus = net.x_form("b")
    i_minus = -net.y_form("c")

    # the kept beam decays over its own path before the coupling mirror
    net.loss("d", params.xi2)

    # modulated auxiliary beam: vacuum fluctuations around a bright mean
    # (the mean only matters for intensity matching, never for variances),
    # displaced by the photocurrents unless the classical channel is cut.
    # The mirror passes d with t = sqrt(R) and the beam with sqrt(1 - t*t),
    # which holds only a few digits of sqrt(1 - R) as R -> 1. The electronic
    # gain is therefore set for the mirror as built, R' = t*t; set for R, it
    # put the oracle 1.2e-9 off at R = 1 - 6e-8 and 12 % off at R = 1 - 1e-15.
    net.add_vacuum_mode("beta")
    t_mirror = np.sqrt(params.mirror_R)
    if any_draw(g_swap != 0.0):
        g_electronic = analytics.electronic_gain(g_swap, t_mirror * t_mirror,
                                                 params.eta, params.xi1)
        net.displace_by_form("beta", i_plus, i_minus, g_electronic)
    net.beamsplitter(("d", "beta"), t_mirror)

    # remaining transmissions and the verification detectors
    net.loss("a", params.xi3).loss("d", params.xi4)
    net.loss("a", params.eta).loss("d", params.eta)
    m = net.freeze()
    return m, NetworkHandles(i_plus=i_plus, i_minus=i_minus, g_swap=g_swap, model=m)


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
    params.one_point("run_experiment")
    v_plus, v_minus, g_swap = verification_variances(params)
    entangled, margin = analytics.duan_verdict(v_plus, v_minus)
    return VarianceReport(
        g_swap=g_swap,
        gain_mode="blocked" if params.channel_blocked else params.gain.mode,
        v_plus=v_plus,
        v_minus=v_minus,
        v_plus_db=analytics.db_from_linear(v_plus),
        v_minus_db=analytics.db_from_linear(v_minus),
        entangled=entangled,
        margin=margin,
    )


def noise(params: ExperimentParams, kind: str):
    """SNL-normalized variance of the read-out :data:`READ_OUTS` names ``kind``."""
    if kind not in READ_OUTS:
        raise ValueError(f"unknown trace kind {kind!r}: expected one of {tuple(READ_OUTS)}")
    if READ_OUTS[kind] is None:
        return 1.0
    handle, blocked = READ_OUTS[kind]
    model, handles = build_network(replace(params, channel_blocked=True) if blocked else params)
    return model.variance(getattr(handles, handle)) / snl_reference()


def single_mode_noise(params: ExperimentParams, which: str) -> float:
    """Amplitude-quadrature noise, in SNL units, of the verified beam named by
    ``which``: the :class:`NetworkHandles` field "a" (the untouched beam) or
    "dprime" (the displaced beam, with whatever feedforward the params apply)."""
    if which not in ("a", "dprime"):
        raise ValueError(f"unknown mode {which!r}: expected 'a' or 'dprime'")
    return noise(params, f"single_mode_{which}")
