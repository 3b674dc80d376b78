"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or on failure),
then asserts. Sampling criteria use fixed seeds so the suite is deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from cvswap import (
    ExperimentParams,
    GainSpec,
    build_network,
    enl_correct,
    estimate_variance,
    optimal_gain,
    preserved_fraction,
    render_trace,
    run_experiment,
    variance_formula,
)
from conftest import make_lab_params

V_LAB_TRUE = 0.718796855333  # lab point at closed-form optimal gain


def check(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {description}  {detail}")
    assert ok, f"criterion {num:02d}: {description} {detail}"


def random_point(rng: np.random.Generator) -> tuple[ExperimentParams, float]:
    params = ExperimentParams(
        r1=rng.uniform(0, 1.5), r2=rng.uniform(0, 1.5),
        xi1=rng.uniform(0.5, 1), xi2=rng.uniform(0.5, 1),
        xi3=rng.uniform(0.5, 1), xi4=rng.uniform(0.5, 1),
        eta=rng.uniform(0.5, 1), mirror_R=rng.uniform(0.9, 1),
    )
    return params, rng.uniform(0, 1.5)


def test_criterion_01_optimal_gain():
    g = optimal_gain(make_lab_params())
    check(1, "closed-form optimal gain = 0.74 +/- 0.01",
          abs(g - 0.74) <= 0.01, f"g_swap={g:.6f}")


def test_criterion_02_operating_point_variance():
    report = run_experiment(make_lab_params())
    ok = (
        abs(report.v_plus - 0.719) <= 0.002
        and abs(report.v_minus - 0.719) <= 0.002
        and abs(report.v_plus_db - (-1.43)) <= 0.02
        and abs(report.v_minus_db - (-1.43)) <= 0.02
    )
    check(2, "operating point 0.719 +/- 0.002 (-1.43 +/- 0.02 dB)", ok,
          f"v+={report.v_plus:.6f} ({report.v_plus_db:.4f} dB)")


def test_criterion_03_lossless_upper_bound():
    params = make_lab_params(xi1_sq=1.0, xi2_sq=1.0, xi3_sq=1.0, xi4_sq=1.0, eta_sq=1.0)
    report = run_experiment(params)
    ok = abs(report.v_plus_db - (-2.37)) <= 0.03
    check(3, "lossless-chain bound -2.37 +/- 0.03 dB", ok,
          f"v={report.v_plus:.6f} ({report.v_plus_db:.4f} dB)")


def test_criterion_04_enl_correction():
    c1 = enl_correct(1.23, 11.3)
    c2 = enl_correct(1.12, 11.3)
    ok = abs(c1 - 1.34) <= 0.01 and abs(c2 - 1.22) <= 0.01
    check(4, "ENL correction 1.23->1.34, 1.12->1.22 (+/- 0.01 dB)", ok,
          f"{c1:.4f} dB, {c2:.4f} dB")


def test_criterion_05_preserved_fraction():
    fraction = preserved_fraction(4.9, 1.43)
    check(5, "preserved entanglement fraction 29 +/- 1 %",
          abs(fraction - 0.29) <= 0.01, f"{100 * fraction:.2f} %")


def test_criterion_06_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    worst_pm = 0.0
    for _ in range(1000):
        params, g_swap = random_point(rng)
        report = run_experiment(replace(params, gain=GainSpec("fixed", g_swap)))
        expected = variance_formula(params, g_swap)
        worst = max(
            worst,
            abs(report.v_plus - expected) / expected,
            abs(report.v_minus - expected) / expected,
        )
        worst_pm = max(
            worst_pm, abs(report.v_plus - report.v_minus) / report.v_plus
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and worst_pm <= 1e-9 and elapsed < 10.0
    check(6, "network oracle == closed form to 1e-9 on 1000 seeded draws", ok,
          f"max rel dev {worst:.2e}, v+ vs v- {worst_pm:.2e}, {elapsed:.1f} s")


def test_criterion_07_argmin_property():
    start = time.perf_counter()
    rng = np.random.default_rng(4096)
    worst_excess = 0.0
    worst_slope = 0.0
    for _ in range(100):
        params, _ = random_point(rng)
        g_star = optimal_gain(params)
        v_star = variance_formula(params, g_star)
        for _ in range(100):
            v = variance_formula(params, rng.uniform(0, 1.5))
            worst_excess = max(worst_excess, v_star - v)
        if g_star > 0:
            h = min(1e-5, 0.5 * g_star)
            slope = (
                variance_formula(params, g_star + h)
                - variance_formula(params, g_star - h)
            ) / (2 * h)
            worst_slope = max(worst_slope, abs(slope))
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-12 and worst_slope < 1e-6 and elapsed < 10.0
    check(7, "closed-form gain is the argmin (100x100 draws, slope < 1e-6)", ok,
          f"max excess {worst_excess:.2e}, max |slope| {worst_slope:.2e}, {elapsed:.1f} s")


def test_criterion_08_monte_carlo_convergence():
    start = time.perf_counter()
    model, handles = build_network(make_lab_params())

    est, stderr = estimate_variance(model, handles.victor_plus, 1_000_000, seed=88)
    within = abs(est - 0.719) <= 3 * stderr

    sample_counts = [1_000, 10_000, 100_000, 1_000_000]
    mean_errors = []
    for k, n in enumerate(sample_counts):
        errors = [
            abs(estimate_variance(model, handles.victor_plus, n, seed=5000 + 97 * k + j)[0]
                - V_LAB_TRUE)
            for j in range(20)
        ]
        mean_errors.append(np.mean(errors))
    slope = np.polyfit(np.log10(sample_counts), np.log10(mean_errors), 1)[0]
    elapsed = time.perf_counter() - start
    ok = within and abs(slope - (-0.5)) <= 0.1 and elapsed < 30.0
    check(8, "sampled variance hits 0.719 within 3 SE at n=1e6; error slope -0.5 +/- 0.1",
          ok, f"est {est:.5f} +/- {stderr:.5f}, slope {slope:.3f}, {elapsed:.1f} s")


def test_criterion_09_trace_ordering():
    params = make_lab_params()
    kw = dict(points=40, n_per_point=150_000)
    means = {
        kind: render_trace(params, kind, seed=seed, **kw).linear_mean()
        for kind, seed in [
            ("blocked", 901),
            ("single_mode_a", 902),
            ("single_mode_dprime", 903),
            ("snl", 904),
            ("correlated", 905),
        ]
    }
    ok = (
        means["blocked"] > means["single_mode_a"] > means["snl"] > means["correlated"]
        and means["blocked"] > means["single_mode_dprime"] > means["snl"]
    )
    detail = ", ".join(
        f"{kind} {10 * math.log10(v):+.3f} dB" for kind, v in means.items()
    )
    check(9, "trace ordering blocked > single-mode > SNL > correlated", ok, detail)


def test_criterion_10_trivial_gates():
    perfect_vacuum = ExperimentParams(
        r1=0, r2=0, xi1=1, xi2=1, xi3=1, xi4=1, eta=1, mirror_R=1,
        gain=GainSpec("fixed", 0.0),
    )
    report = run_experiment(perfect_vacuum)
    lossy_vacuum = run_experiment(make_lab_params(r1=0.0, r2=0.0, gain=GainSpec("fixed", 0.0)))
    unsqueezed_optimal = run_experiment(make_lab_params(r1=0.0, r2=0.0))
    ok = (
        abs(report.v_plus - 1.0) <= 1e-12
        and abs(report.v_minus - 1.0) <= 1e-12
        and abs(lossy_vacuum.v_plus - 1.0) <= 1e-12
        and unsqueezed_optimal.g_swap == 0.0
        and unsqueezed_optimal.entangled is False
    )
    check(10, "all-vacuum network = 1.0 to 1e-12; r=0 never flagged entangled", ok,
          f"v={report.v_plus:.15f}, lossy v={lossy_vacuum.v_plus:.15f}")
