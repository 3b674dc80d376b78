"""Stochastic emulation: sampled variances and spectrum-analyzer style traces.

The analysis sideband is one static Gaussian mode per beam, so a "trace" is
not a spectrum: each displayed point is the dB noise power of an average
over ``n_per_point`` squared samples, mimicking what an analyzer pixel shows
at fixed frequency. The default averaging depth is round(RBW / VBW) for the
bench settings 10 kHz / 30 Hz.

A sample of a quadrature form is a linear combination of independent
zero-mean Gaussian sources, so it is itself one Gaussian N(0, V) with
V = sum_i c_i^2 sigma_i^2, the variance the network oracle reports for the
form; the per-source draws are never materialized. The mean of n squared
N(0, V) samples has the exact law V * chi2_n / n, so a trace point is one
Gamma(n/2, scale 2/n) draw scaled by V: its n samples are never drawn, and a
point costs the same at any averaging depth. Scaling by V once keeps a finite
V from overflowing inside the average. Each call seeds one numpy PCG64
generator and draws its points (or chunks) from it in order. Seeded traces
differ from those written by 0.4.0, which drew every sample.

Each file of a trace is written with one ``write``. The CSV rows are formatted
directly, with the bytes ``csv.writer`` gives for ``[index, repr(dB)]``. The
sidecar is a YAML event stream built from the metadata and fed to PyYAML's
emitter (libyaml where PyYAML was built with it), with the bytes of
``yaml.safe_dump(metadata, sort_keys=True)`` but no representer node tree.
Both files keep the bytes of 0.5.0's first writer, which called those two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import swap
from .gaussian import GaussianModel
from .params import ExperimentParams

RBW_HZ = 10_000.0
VBW_HZ = 30.0
DEFAULT_N_PER_POINT = round(RBW_HZ / VBW_HZ)  # 333

# the build_network handle each network trace records; "blocked" cuts the channel first
_TRACE_HANDLES = {"correlated": "victor_plus", "blocked": "victor_plus",
                  "single_mode_a": "a", "single_mode_dprime": "dprime"}
TRACE_KINDS = (*_TRACE_HANDLES, "snl")

RNG_ALGORITHM = (
    "numpy default_rng(seed) (PCG64), one generator per trace, points drawn in order; "
    "one Gamma(n_per_point/2, scale 2/n_per_point) draw per point, the exact law of "
    "the mean of n_per_point squared unit normals, scaled by V, the network variance "
    "of the form"
)

_CHUNK = 1 << 17

# the rule config._Loader follows: libyaml where PyYAML was built with it
_Dumper = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


@dataclass
class TraceSeries:
    """One rendered noise trace: each point's linear noise power, in point order."""

    powers: list[float]
    metadata: dict = field(default_factory=dict)

    def linear_mean(self) -> float:
        """Pooled variance estimate: mean of the per-point linear averages."""
        n = len(self.powers)
        # each term divided first: a sum of powers near the float range overflows
        return math.fsum(power / n for power in self.powers)

    def pooled_db(self) -> float:
        return 10.0 * math.log10(self.linear_mean())


def estimate_variance(
    model: GaussianModel, form: np.ndarray, n: int, seed: int
) -> tuple[float, float]:
    """Mean-square of ``n`` independent draws of the form, with standard error.

    The form has zero mean by construction (every source is zero-mean),
    so the mean square is an unbiased variance estimate. Deterministic for a
    given seed; the draws come from one generator in chunks of at most
    ``_CHUNK``, which bounds memory and leaves the stream unchanged.

    Unlike a trace point, the estimate still draws every sample: its standard
    error is the empirical spread of the squared draws (their fourth moment),
    not the exact one, and criterion 08 checks it as such a statistic.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    rng = np.random.default_rng(seed)
    sum_sq = sum_quad = 0.0
    for start in range(0, n, _CHUNK):
        squares = rng.standard_normal(min(_CHUNK, n - start))
        squares *= squares
        sum_sq += float(squares.sum())
        sum_quad += float((squares * squares).sum())
    mean_sq = sum_sq / n
    var_of_sq = max(sum_quad - n * mean_sq * mean_sq, 0.0) / (n - 1)
    v = model.variance(form)
    if math.isinf(v * mean_sq):  # the standard error, at most the mean, is then finite
        raise OverflowError(f"sampled variance {v!r} * {mean_sq!r} overflows")
    return v * mean_sq, v * math.sqrt(var_of_sq / n)


def _trace_form(
    params: ExperimentParams, kind: str
) -> tuple[GaussianModel, np.ndarray]:
    if kind == "snl":
        return swap.snl_network()
    if kind not in _TRACE_HANDLES:
        raise ValueError(f"unknown trace kind {kind!r}: expected one of {TRACE_KINDS}")
    if kind == "blocked":
        params = replace(params, channel_blocked=True)
    model, handles = swap.build_network(params)
    return model, getattr(handles, _TRACE_HANDLES[kind])


def render_trace(
    params: ExperimentParams,
    kind: str,
    points: int,
    seed: int,
    n_per_point: int | None = None,
) -> TraceSeries:
    """Render a noise trace of ``points`` displayed averages for one trace kind."""
    if points < 1:
        raise ValueError(f"need at least 1 point, got {points}")
    if n_per_point is None:
        n_per_point = DEFAULT_N_PER_POINT
    if n_per_point < 1:
        raise ValueError(f"n_per_point must be >= 1, got {n_per_point}")

    model, form = _trace_form(params, kind)
    v = model.variance(form) / swap.snl_reference()
    # point k is V * chi2_n / n; float products, so an overflow is inf, not a warning
    draws = np.random.default_rng(seed).gamma(n_per_point / 2, 2 / n_per_point, points)
    powers = [v * draw for draw in draws.tolist()]
    if math.inf in powers:
        raise OverflowError(f"point {powers.index(math.inf)} power overflows: V = {v!r}")

    metadata = {
        "kind": kind,
        "seed": seed,
        "n_per_point": n_per_point,
        "points": points,
        "rng": RNG_ALGORITHM,
        "averaging": f"n_per_point defaults to round(RBW/VBW) = round({RBW_HZ:g}/{VBW_HZ:g})",
        "sideband_model": (
            "single static Gaussian mode per beam; analyzer bandwidths only set "
            "the per-point averaging depth, no spectral dynamics"
        ),
        "params": params.as_dict(),
    }
    return TraceSeries(powers, metadata)


_TAG = "tag:yaml.org,2002:"
_RESOLVER = yaml.resolver.Resolver()


def _scalar_event(value) -> yaml.ScalarEvent:
    """``value`` as ``SafeRepresenter`` and the serializer would emit it."""
    kind = type(value)
    if kind is str:
        # plain only where the resolver would not read the text back as another type
        plain = _RESOLVER.resolve(yaml.ScalarNode, value, (True, False)) == _TAG + "str"
        return yaml.ScalarEvent(None, _TAG + "str", (plain, True), value)
    if value is None:
        tag, text = "null", "null"
    elif kind is bool:
        tag, text = "bool", "true" if value else "false"
    elif kind is int:
        tag, text = "int", str(value)
    elif kind is float:
        tag, text = "float", repr(value)
        if not math.isfinite(value):
            text = ".nan" if value != value else "-.inf" if value < 0 else ".inf"
        elif "." not in text and "e" in text:
            text = text.replace("e", ".0e", 1)  # 1e16 is no YAML float, 1.0e16 is
    else:
        raise yaml.representer.RepresenterError(f"cannot represent an object: {value!r}")
    return yaml.ScalarEvent(None, _TAG + tag, (True, False), text)


def _mapping_events(mapping: dict, events: list) -> None:
    """Append the events of a block mapping, keys sorted, to ``events``."""
    events.append(yaml.MappingStartEvent(None, _TAG + "map", True, flow_style=False))
    for key, value in sorted(mapping.items()):
        events.append(_scalar_event(key))
        if type(value) is dict:
            _mapping_events(value, events)
        else:
            events.append(_scalar_event(value))
    events.append(yaml.MappingEndEvent())


def _sidecar_events(metadata: dict) -> list:
    """The YAML events of ``yaml.safe_dump(metadata, sort_keys=True)``.

    ``metadata`` is a tree of dicts with str keys and None, bool, int, float or
    str leaves, no dict reached twice (``safe_dump`` would anchor it).
    """
    events = [yaml.StreamStartEvent(), yaml.DocumentStartEvent()]
    _mapping_events(metadata, events)
    return events + [yaml.DocumentEndEvent(), yaml.StreamEndEvent()]


def write_trace_csv(trace: TraceSeries, path: str | Path) -> Path:
    """Write the trace as CSV plus a YAML metadata sidecar; returns the sidecar path."""
    path = Path(path)
    # csv.writer's bytes for [index, repr(dB)] rows: no cell needs quoting
    rows = [f"{index},{10.0 * math.log10(power)!r}\r\n"
            for index, power in enumerate(trace.powers)]
    with open(path, "w", newline="") as fh:
        fh.write("point_index,db_value\r\n" + "".join(rows))
    sidecar = path.with_suffix(".meta.yaml")
    with open(sidecar, "w") as fh:
        fh.write(yaml.emit(_sidecar_events(trace.metadata), Dumper=_Dumper))
    return sidecar
