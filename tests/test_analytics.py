"""Closed-form expressions, conversions, and verdicts."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize_scalar

from cvswap import (
    ExperimentParams,
    GainSpec,
    db_from_linear,
    duan_verdict,
    enl_correct,
    gain_to_electronic,
    optimal_gain,
    preserved_fraction,
    r_from_db,
    sweep_surface,
    variance_formula,
)
from conftest import make_lab_params

# values frozen from the matrix-propagation derivation of the full chain
G_OPT_LAB = 0.740934235670
V_LAB = 0.718796855333
V_BLOCKED = 1.620235073548
G_OPT_PERFECT = 0.813858440330
V_PERFECT = 0.579526202402


def perfect_point(g: float = 0.0) -> ExperimentParams:
    return ExperimentParams(
        r1=0.0, r2=0.0, xi1=1.0, xi2=1.0, xi3=1.0, xi4=1.0, eta=1.0,
        mirror_R=1.0, gain=GainSpec.fixed(g),
    )


# -- variance formula ---------------------------------------------------------


def test_snl_recovery_exact():
    assert variance_formula(perfect_point(), 0.0) == 1.0


def test_lab_point_value(lab_params):
    assert variance_formula(lab_params, 0.741) == pytest.approx(0.719, abs=1e-3)
    assert variance_formula(lab_params, G_OPT_LAB) == pytest.approx(V_LAB, rel=1e-10)


def test_blocked_value(lab_params):
    v = variance_formula(lab_params, 0.0)
    assert v == pytest.approx(V_BLOCKED, rel=1e-10)
    assert v == pytest.approx(1.620, abs=1e-3)
    assert db_from_linear(v) == pytest.approx(2.10, abs=1e-2)


def test_negative_gain_rejected(lab_params):
    with pytest.raises(ValueError, match=">= 0"):
        variance_formula(lab_params, -0.1)


def test_xi1_zero_with_gain_rejected(lab_params):
    dead_channel = replace(lab_params, xi1=0.0)
    with pytest.raises(ValueError, match="xi1 = 0"):
        variance_formula(dead_channel, 0.5)
    # without feedforward the dead channel is harmless
    assert variance_formula(dead_channel, 0.0) == pytest.approx(V_BLOCKED, rel=1e-10)


def test_variance_nonnegative_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        params = ExperimentParams(
            r1=rng.uniform(0, 1.5), r2=rng.uniform(0, 1.5),
            xi1=rng.uniform(0.5, 1), xi2=rng.uniform(0.5, 1),
            xi3=rng.uniform(0.5, 1), xi4=rng.uniform(0.5, 1),
            eta=rng.uniform(0.5, 1), mirror_R=rng.uniform(0.9, 1),
        )
        assert variance_formula(params, rng.uniform(0, 1.5)) >= 0.0


# -- optimal gain ---------------------------------------------------------------


def test_optimal_gain_lab_point(lab_params):
    g = optimal_gain(lab_params)
    assert g == pytest.approx(0.74, abs=5e-3)
    assert g == pytest.approx(G_OPT_LAB, rel=1e-10)


def test_optimal_gain_perfect_chain(perfect_params):
    g = optimal_gain(perfect_params)
    assert g == pytest.approx(0.814, abs=1e-3)
    # independent numeric-minimization oracle
    res = minimize_scalar(
        lambda x: variance_formula(perfect_params, x),
        bounds=(0.0, 5.0), method="bounded", options={"xatol": 1e-12},
    )
    assert g == pytest.approx(res.x, abs=1e-7)
    assert variance_formula(perfect_params, g) == pytest.approx(V_PERFECT, rel=1e-10)
    assert db_from_linear(variance_formula(perfect_params, g)) == pytest.approx(-2.37, abs=0.03)


def test_optimal_gain_zero_without_squeezing(lab_params):
    assert optimal_gain(replace(lab_params, r1=0.0, r2=0.0)) == 0.0


def test_optimal_gain_degenerate_denominator(lab_params):
    with pytest.raises(ValueError, match="degenerate"):
        optimal_gain(replace(lab_params, xi4=0.0))


def test_optimal_gain_is_argmin_random():
    rng = np.random.default_rng(17)
    for _ in range(40):
        params = ExperimentParams(
            r1=rng.uniform(0, 1.5), r2=rng.uniform(0, 1.5),
            xi1=rng.uniform(0.5, 1), xi2=rng.uniform(0.5, 1),
            xi3=rng.uniform(0.5, 1), xi4=rng.uniform(0.5, 1),
            eta=rng.uniform(0.5, 1), mirror_R=rng.uniform(0.9, 1),
        )
        g_star = optimal_gain(params)
        v_star = variance_formula(params, g_star)
        for _ in range(25):
            assert v_star <= variance_formula(params, rng.uniform(0, 1.5)) + 1e-12
        if g_star > 0:
            h = min(1e-5, 0.5 * g_star)
            slope = (
                variance_formula(params, g_star + h) - variance_formula(params, g_star - h)
            ) / (2 * h)
            assert abs(slope) < 1e-6


# -- gain conversions --------------------------------------------------------------


def test_electronic_gain_value(lab_params):
    assert gain_to_electronic(0.74, lab_params) == pytest.approx(7.92, abs=1e-2)
    assert gain_to_electronic(0.0, lab_params) == 0.0


def test_gain_roundtrip_exact(lab_params):
    p = lab_params
    for g_swap in (0.0, 0.3, 0.74, 1.4):
        g = gain_to_electronic(g_swap, p)
        back = math.sqrt(1.0 - p.mirror_R) * p.eta * p.xi1 * g / math.sqrt(2.0)
        assert back == pytest.approx(g_swap, abs=1e-12)


def test_gain_conversion_full_mirror_rejected(lab_params):
    sealed = replace(lab_params, mirror_R=1.0)
    with pytest.raises(ValueError, match="feedforward port"):
        gain_to_electronic(0.5, sealed)


# -- dB / r conversions ---------------------------------------------------------


def test_r_from_db_reference_points():
    assert r_from_db(4.9) == pytest.approx(0.564, abs=1e-3)
    assert 20.0 * 0.587 / math.log(10.0) == pytest.approx(5.1, abs=1e-2)
    assert db_from_linear(1.0) == 0.0


def test_db_conversion_rejections():
    with pytest.raises(ValueError):
        db_from_linear(0.0)
    with pytest.raises(ValueError):
        db_from_linear(-2.0)
    with pytest.raises(ValueError):
        r_from_db(-1.0)


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_linear_db_roundtrip(db):
    assert db_from_linear(10.0 ** (db / 10.0)) == pytest.approx(db, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=3.0))
def test_r_db_roundtrip(r):
    assert r_from_db(20.0 * r / math.log(10.0)) == pytest.approx(r, abs=1e-12)


@given(st.floats(min_value=0.01, max_value=20.0))
def test_r_db_squeezing_consistency(db):
    # depth below SNL in dB maps to the squeezed joint variance exp(-2r)
    assert math.exp(-2 * r_from_db(db)) == pytest.approx(10 ** (-db / 10), rel=1e-12)


# -- ENL correction ---------------------------------------------------------------


def test_enl_correction_reference_points():
    assert enl_correct(1.23, 11.3) == pytest.approx(1.34, abs=1e-2)
    assert enl_correct(1.12, 11.3) == pytest.approx(1.22, abs=1e-2)


def test_enl_correction_of_source_measurements():
    # raw source correlations 4.10 / 4.30 dB: the same correction lands near
    # 4.68 / 4.93 dB (not at the nominal 4.9 / 5.1 operating values)
    assert enl_correct(4.10, 11.3) == pytest.approx(4.6836, abs=1e-3)
    assert enl_correct(4.30, 11.3) == pytest.approx(4.9320, abs=1e-3)


def test_enl_correction_identity_for_deep_floor():
    assert enl_correct(1.23, 300.0) == pytest.approx(1.23, abs=1e-9)


def test_enl_correction_floor_rejections():
    with pytest.raises(ValueError, match="noise floor"):
        enl_correct(11.3, 11.3)
    with pytest.raises(ValueError, match="noise floor"):
        enl_correct(12.0, 11.3)
    with pytest.raises(ValueError, match="below the SNL"):
        enl_correct(1.0, 0.0)


@given(
    st.floats(min_value=0.1, max_value=6.0),
    st.floats(min_value=0.1, max_value=6.0),
)
def test_enl_correction_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    if hi - lo < 1e-9:
        return
    assert enl_correct(hi, 11.3) > enl_correct(lo, 11.3)


# -- verdicts ---------------------------------------------------------------------


def test_duan_verdict_cases():
    assert duan_verdict(0.719, 0.719) == (True, pytest.approx(0.281))
    assert duan_verdict(1.0, 1.0)[0] is False
    assert duan_verdict(0.5, 1.2)[0] is False
    assert duan_verdict(1.2, 0.5)[0] is False
    # float-noise distance from the boundary is still "at the boundary"
    assert duan_verdict(1.0 - 1e-13, 1.0 - 1e-13)[0] is False
    assert duan_verdict(1.0 - 1e-6, 1.0 - 1e-6)[0] is True
    with pytest.raises(ValueError):
        duan_verdict(0.0, 1.0)


@given(
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.01, max_value=3.0),
)
def test_duan_verdict_symmetric(vp, vm):
    assert duan_verdict(vp, vm) == duan_verdict(vm, vp)


def test_preserved_fraction():
    assert preserved_fraction(4.9, 1.43) == pytest.approx(0.292, abs=1e-3)
    assert preserved_fraction(3.3, 3.3) == 1.0
    assert preserved_fraction(4.9, 0.0) == 0.0
    with pytest.raises(ValueError):
        preserved_fraction(0.0, 1.0)
    with pytest.raises(ValueError):
        preserved_fraction(-2.0, 1.0)


# -- sweep surface ------------------------------------------------------------------


def test_sweep_contains_lab_point(lab_params):
    grid = sweep_surface(lab_params, [0.0, 0.564], [0.0, 0.587])
    assert grid.values.shape == (2, 2)
    assert grid.values[1, 1] == pytest.approx(0.719, abs=1e-3)
    # no squeezing at either source: exactly shot noise at optimal (zero) gain
    assert grid.values[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_sweep_monotone_where_partner_is_squeezed(lab_params):
    # more squeezing always helps once the partner source is squeezed at all;
    # along the edge where the partner is unsqueezed the optimal-gain variance
    # instead grows with r (no entanglement is possible from one source, and
    # cancelling its antisqueezed quadrature costs feedforward noise)
    axis = [0.2 * k for k in range(8)]
    grid = sweep_surface(lab_params, axis, axis)
    assert (np.diff(grid.values[:, 1:], axis=0) <= 1e-12).all()
    assert (np.diff(grid.values[1:, :], axis=1) <= 1e-12).all()
    assert (np.diff(grid.values[:, 0]) > 0).all()
    assert (np.diff(grid.values[0, :]) > 0).all()
    assert (grid.values > 0).all()


def test_sweep_rejects_bad_axes(lab_params):
    with pytest.raises(ValueError, match="nonempty"):
        sweep_surface(lab_params, [], [0.1])
    with pytest.raises(ValueError, match=">= 0"):
        sweep_surface(lab_params, [-0.1], [0.1])


_axis = st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=4).map(
    lambda rs: [0.0, *rs]  # always includes the unsqueezed row and column
)
_efficiency = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@given(
    r1s=_axis, r2s=_axis,
    xi=st.tuples(_efficiency, _efficiency, _efficiency, _efficiency),
    eta=_efficiency,
    mirror_R=st.floats(min_value=0.0, max_value=1.0),
)
def test_sweep_matches_scalar_path(r1s, r2s, xi, eta, mirror_R):
    params = ExperimentParams(
        r1=0.0, r2=0.0, xi1=xi[0], xi2=xi[1], xi3=xi[2], xi4=xi[3], eta=eta, mirror_R=mirror_R,
    )
    try:
        expected = [
            [variance_formula(q, optimal_gain(q)) for q in (replace(params, r1=r1, r2=r2) for r2 in r2s)]
            for r1 in r1s
        ]
    except ArithmeticError:
        # a cell outside floating-point range must fail the grid the same way
        with pytest.raises(ArithmeticError):
            sweep_surface(params, r1s, r2s)
        return
    grid = sweep_surface(params, r1s, r2s)
    assert grid.values.shape == (len(r1s), len(r2s))
    for i in range(len(r1s)):
        for j in range(len(r2s)):
            assert grid.values[i, j] == pytest.approx(expected[i][j], rel=1e-12, abs=0.0)


def test_scalar_closed_form_returns_builtin_float(lab_params):
    g = optimal_gain(lab_params)
    assert type(g) is float
    assert type(variance_formula(lab_params, g)) is float
    assert type(variance_formula(lab_params, 0.0)) is float


def test_sweep_rejects_nan_axis(lab_params):
    with pytest.raises(ValueError, match=">= 0"):
        sweep_surface(lab_params, [0.1], [float("nan")])


def test_lab_params_fixture_matches_frozen_values():
    params = make_lab_params(gain=GainSpec.fixed(0.0))
    assert variance_formula(params, 0.0) == pytest.approx(V_BLOCKED, rel=1e-10)
