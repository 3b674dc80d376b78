"""Stochastic emulation: sampled variances and spectrum-analyzer style traces.

The analysis sideband is one static Gaussian mode per beam, so a "trace" is
not a spectrum: each displayed point is the dB noise power of an average
over ``n_per_point`` squared samples, mimicking what a analyzer pixel shows
at fixed frequency. The default averaging depth is round(RBW / VBW) for the
bench settings 10 kHz / 30 Hz.

A sample of a quadrature form is a linear combination of independent
zero-mean Gaussian sources, so it is itself one Gaussian N(0, V) with
V = sum_i c_i^2 sigma_i^2, the variance the network oracle reports for the
form. Each sample is therefore one standard normal draw scaled by sqrt(V);
the per-source draws are never materialized. Sampling uses numpy's PCG64
generator with per-chunk (per-point for traces) spawned seeds, so results
are reproducible and chunk scheduling cannot change them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import swap
from .gaussian import GaussianModel
from .params import ExperimentParams

RBW_HZ = 10_000.0
VBW_HZ = 30.0
DEFAULT_N_PER_POINT = round(RBW_HZ / VBW_HZ)  # 333

TRACE_KINDS = ("correlated", "blocked", "single_mode_a", "single_mode_dprime", "snl")

RNG_ALGORITHM = (
    "numpy default_rng (PCG64), per-point seeds spawned from SeedSequence; "
    "one N(0, V) draw per sample, V the network variance of the form"
)

_CHUNK = 1 << 17


@dataclass
class TraceSeries:
    """One rendered noise trace: (point index, dB noise power) samples."""

    label: str
    samples: list[tuple[int, float]]
    seed: int
    n_per_point: int
    metadata: dict = field(default_factory=dict)

    def db_values(self) -> np.ndarray:
        return np.array([db for _, db in self.samples])

    def linear_mean(self) -> float:
        """Pooled variance estimate: mean of the per-point linear averages."""
        return float((10.0 ** (self.db_values() / 10.0)).mean())

    def pooled_db(self) -> float:
        return 10.0 * math.log10(self.linear_mean())


def estimate_variance(
    model: GaussianModel, form: np.ndarray, n: int, seed: int
) -> tuple[float, float]:
    """Mean-square of ``n`` independent draws of the form, with standard error.

    The form has zero mean by construction (every source is zero-mean),
    so the mean square is an unbiased variance estimate. Deterministic for a
    given seed; chunks use spawned child seeds and are combined in index
    order, so a parallel implementation would reproduce the same value.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    sigma = math.sqrt(model.variance(form))
    if sigma == 0.0:
        return 0.0, 0.0
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    sum_sq = 0.0
    sum_quad = 0.0
    remaining = n
    for child in children:
        rng = np.random.default_rng(child)
        size = min(_CHUNK, remaining)
        remaining -= size
        values = rng.standard_normal(size) * sigma
        squares = values * values
        sum_sq += float(squares.sum())
        sum_quad += float((squares * squares).sum())
    mean_sq = sum_sq / n
    var_of_sq = max(sum_quad - n * mean_sq * mean_sq, 0.0) / (n - 1)
    return mean_sq, math.sqrt(var_of_sq / n)


def _trace_form(
    params: ExperimentParams, kind: str
) -> tuple[GaussianModel, np.ndarray]:
    if kind == "snl":
        return swap.snl_network()
    if kind == "blocked":
        params = replace(params, channel_blocked=True)
    model, handles = swap.build_network(params)
    if kind in ("correlated", "blocked"):
        return model, handles.victor_plus
    if kind == "single_mode_a":
        return model, model.x_form(handles.mode_a)
    if kind == "single_mode_dprime":
        return model, model.x_form(handles.mode_dprime)
    raise ValueError(f"unknown trace kind {kind!r}: expected one of {TRACE_KINDS}")


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
    norm = swap.snl_reference()
    sigma = math.sqrt(model.variance(form))
    children = np.random.SeedSequence(seed).spawn(points)
    samples: list[tuple[int, float]] = []
    for index, child in enumerate(children):
        rng = np.random.default_rng(child)
        values = rng.standard_normal(n_per_point) * sigma
        power = float((values * values).mean()) / norm
        samples.append((index, 10.0 * math.log10(power)))

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
        "params": asdict(params),
    }
    return TraceSeries(kind, samples, seed, n_per_point, metadata)


def write_trace_csv(trace: TraceSeries, path: str | Path) -> Path:
    """Write the trace as CSV plus a YAML metadata sidecar; returns the sidecar path."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_index", "db_value"])
        for index, db in trace.samples:
            writer.writerow([index, repr(db)])
    sidecar = path.with_suffix(".meta.yaml")
    with open(sidecar, "w") as fh:
        yaml.safe_dump(trace.metadata, fh, sort_keys=True)
    return sidecar
