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

Each file of a trace is written with one ``write``, with the bytes of 0.5.0's
first writer: the CSV rows are formatted directly, as ``csv.writer`` writes
``[index, repr(dB)]``, and the sidecar is ``yaml.safe_dump(metadata,
sort_keys=True)``, dumped once per process for each layout of keys and string
leaves, into which each sidecar fills its numbers, bools and nulls.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import swap
from .gaussian import GaussianModel
from .params import ExperimentParams, finite

RBW_HZ = 10_000.0
VBW_HZ = 30.0
DEFAULT_N_PER_POINT = round(RBW_HZ / VBW_HZ)  # 333

TRACE_KINDS = tuple(swap.READ_OUTS)  # a trace samples the read-out of its kind's name

RNG_ALGORITHM = (
    "numpy default_rng(seed) (PCG64), one generator per trace, points drawn in order; "
    "one Gamma(n_per_point/2, scale 2/n_per_point) draw per point, the exact law of "
    "the mean of n_per_point squared unit normals, scaled by V, the network variance "
    "of the form"
)

_CHUNK = 1 << 17


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
    if model.batch_shape:
        raise ValueError("estimate_variance takes one parameter point, not a batch of draws")
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
    v = model.variance(form)  # the standard error, at most the estimate, is finite with it
    return finite("sampled variance", v * mean_sq), v * math.sqrt(var_of_sq / n)


def render_trace(
    params: ExperimentParams,
    kind: str,
    points: int,
    seed: int,
    n_per_point: int = DEFAULT_N_PER_POINT,
) -> TraceSeries:
    """Render a noise trace of ``points`` displayed averages for one trace kind."""
    params.one_point("render_trace")
    if points < 1:
        raise ValueError(f"need at least 1 point, got {points}")
    if n_per_point < 1:
        raise ValueError(f"n_per_point must be >= 1, got {n_per_point}")

    v = swap.noise(params, kind)
    # point k is V * chi2_n / n; float products, so an overflow is inf, not a warning
    draws = np.random.default_rng(seed).gamma(n_per_point / 2, 2 / n_per_point, points)
    powers = [v * draw for draw in draws.tolist()]
    finite("trace power", max(powers))

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


def _plain_text(value) -> str:
    """A None, bool, int or float leaf as ``safe_dump`` writes it: one plain token."""
    kind = type(value)
    if kind is float:
        if not math.isfinite(value):
            return ".nan" if value != value else "-.inf" if value < 0 else ".inf"
        text = repr(value)  # 1e16 is no YAML float, 1.0e16 is
        return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text
    if kind is int:
        return str(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    raise yaml.representer.RepresenterError(f"cannot represent an object: {value!r}")


def _shape(mapping: dict, texts: list) -> tuple:
    """The layout of a tree of dicts with str keys and None, bool, int, float or str leaves,
    no dict reached twice: each dict's ``(key, value)`` pairs, keys sorted, a value a nested
    layout, a string leaf or None, a slot whose leaf's text is appended to ``texts``."""
    shape = []
    for key, value in sorted(mapping.items()):
        if type(key) is not str:  # 1, 1.0 and True are one dict key but three YAML keys
            raise yaml.representer.RepresenterError(f"cannot represent a key: {key!r}")
        if type(value) is dict:
            value = _shape(value, texts)
        elif type(value) is not str:
            texts.append(_plain_text(value))
            value = None
        shape.append((key, value))
    return tuple(shape)


def _tree(shape: tuple, slot: str | None) -> dict:
    """The metadata of layout ``shape`` with ``slot`` in each slot."""
    return {key: _tree(value, slot) if type(value) is tuple else slot if value is None else value
            for key, value in shape}


@functools.lru_cache(maxsize=32)
def _layout(shape: tuple, slots: int) -> str:
    """The sidecar text of metadata of layout ``shape``, ``%s`` in each of its ``slots`` slots:
    a slot's one plain token ends its line and sets no other line's layout, so ``safe_dump``
    writes the layout once, with a marker token in each slot that no key or string leaf writes."""
    for attempt in itertools.count():
        slot = f"slot{attempt}"
        text = yaml.safe_dump(_tree(shape, slot), sort_keys=True)
        if text.count(slot) == slots:
            return text.replace("%", "%%").replace(slot, "%s")


def write_trace_csv(trace: TraceSeries, path: str | Path) -> Path:
    """Write the trace as CSV plus a YAML metadata sidecar; returns the sidecar path."""
    path = Path(path)
    texts: list[str] = []  # metadata outside the tree raises before either file is opened
    layout = _layout(_shape(trace.metadata, texts), len(texts))
    # csv.writer's bytes for [index, repr(dB)] rows: no cell needs quoting
    rows = [f"{index},{10.0 * math.log10(power)!r}\r\n"
            for index, power in enumerate(trace.powers)]
    with open(path, "w", newline="") as fh:
        fh.write("point_index,db_value\r\n" + "".join(rows))
    sidecar = path.with_suffix(".meta.yaml")
    sidecar.write_text(layout % tuple(texts))
    return sidecar
