"""Baseline layer probes: the rows of the re-anchor timing table, re-measured.

Each probe times one public function (or the CLI) on the reference lab
config, untraced, and is reported next to the number measured when the
roadmap was last re-anchored (2-core machine, Python 3.11.7, numpy 2.4.6,
single runs). A probe whose target was renamed or removed records its error
and a value of 0 instead of stopping the run.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import cvswap.cli
from cvswap import analytics, montecarlo, swap
from cvswap.config import ConfigFile

import inputs


def _median_time(fn, repeats: int, inner: int) -> float:
    """Median over ``repeats`` batches of the mean time of ``inner`` calls."""
    batches = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(inner):
            fn()
        batches.append((perf_counter() - start) / inner)
    return statistics.median(batches)


def _quiet_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cvswap.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cvswap {' '.join(argv)} exited {code}")


def run_all(workdir: Path, setup_probe) -> dict:
    """Run every probe; ``setup_probe(config, *flags)`` starts a fresh interpreter."""
    reference = workdir / "probe-reference.yaml"
    reference.write_text(inputs.REFERENCE_CONFIG)
    lab = ConfigFile.load(reference).to_params()
    axis = np.linspace(0.0, 1.5, 301)

    def load_params():
        return _median_time(lambda: ConfigFile.load(reference).to_params(), 5, 20) * 1e3

    def build_network():
        return _median_time(lambda: swap.build_network(lab), 5, 40) * 1e3

    def variance_formula():
        g = analytics.optimal_gain(lab)
        return _median_time(lambda: analytics.variance_formula(lab, g), 5, 20_000) * 1e6

    def sweep_surface():
        return _median_time(lambda: analytics.sweep_surface(lab, axis, axis), 1, 1)

    def verify_1000():
        return _median_time(lambda: _quiet_cli(["verify", "--random", "1000", "--seed", "2024"]),
                        1, 1) * 1e3

    def estimate_variance():
        model, handles = swap.build_network(lab)
        return _median_time(lambda: montecarlo.estimate_variance(
            model, handles.victor_plus, 1_000_000, seed=88), 1, 1) * 1e3

    def render_trace():
        return _median_time(lambda: montecarlo.render_trace(
            lab, "correlated", 40, 905, 150_000), 1, 1)

    predict_runs = []

    def cli_predict():
        for _ in range(3):
            phases, wall = setup_probe(reference, "--predict")
            predict_runs.append((phases, wall))
        return statistics.median(wall for _, wall in predict_runs) * 1e3

    def cli_predict_import_share():
        return statistics.median((p["numpy_s"] + p["cvswap_s"]) / wall
                                 for p, wall in predict_runs)

    # name: (function, unit, value at re-anchor)
    table = {
        "load_params_ms": (load_params, "ms", 1.7),
        "build_network_ms": (build_network, "ms", 0.25),
        "variance_formula_us": (variance_formula, "us", 2.0),
        "sweep_surface_301_s": (sweep_surface, "s", 0.862),
        "verify_1000_ms": (verify_1000, "ms", 278.0),
        "estimate_variance_1e6_ms": (estimate_variance, "ms", 366.0),
        "render_trace_40x150k_s": (render_trace, "s", 1.48),
        "cli_predict_ms": (cli_predict, "ms", 249.0),
        "cli_predict_import_share": (cli_predict_import_share, "ratio", 160.0 / 249.0),
    }
    rows = {}
    for name, (probe, unit, reanchor) in table.items():
        row = {"unit": unit, "reanchor": reanchor}
        try:
            row["value"] = float(probe())
        except Exception as exc:  # a renamed target must not stop the run
            row.update(value=0.0, error=f"{type(exc).__name__}: {exc}")
        rows[name] = row
    return rows
