"""Network oracle: full-chain variances from first principles."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from cvswap import (
    ExperimentParams,
    GainSpec,
    GaussianModel,
    build_network,
    duan_verdict,
    run_experiment,
    single_mode_noise,
    snl_reference,
    variance_formula,
)
from conftest import make_lab_params

SQRT2 = math.sqrt(2.0)

# frozen from the independent matrix-propagation derivation
V_LAB = 0.718796855333
V_BLOCKED = 1.620235073548
SINGLE_A_LAB = 1.614296889126
SINGLE_DPRIME_LAB = 1.606775149081


def random_params(rng, gain=None) -> ExperimentParams:
    return ExperimentParams(
        r1=rng.uniform(0, 1.5), r2=rng.uniform(0, 1.5),
        xi1=rng.uniform(0.5, 1), xi2=rng.uniform(0.5, 1),
        xi3=rng.uniform(0.5, 1), xi4=rng.uniform(0.5, 1),
        eta=rng.uniform(0.5, 1), mirror_R=rng.uniform(0.9, 1),
        gain=gain if gain is not None else GainSpec.fixed(rng.uniform(0, 1.5)),
    )


# -- parameter validation ------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError, match="squeezing"):
        make_lab_params(r1=-0.1)
    with pytest.raises(ValueError, match="eta"):
        make_lab_params(eta_sq=1.2)
    with pytest.raises(ValueError, match="mirror_R"):
        make_lab_params(mirror_R=-0.5)
    with pytest.raises(ValueError, match="enl_db"):
        make_lab_params(enl_db=0.0)


def test_gain_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        GainSpec("sometimes")
    with pytest.raises(ValueError, match="value"):
        GainSpec("fixed")
    with pytest.raises(ValueError, match="no value"):
        GainSpec("optimal", 0.5)
    assert GainSpec.fixed(0.3).value == 0.3
    assert GainSpec.optimal().mode == "optimal"


# -- trivial gates ---------------------------------------------------------------


def test_snl_reference_is_unity():
    assert snl_reference() == pytest.approx(1.0, abs=1e-15)


def test_all_vacuum_network_is_exact_snl():
    perfect = ExperimentParams(
        r1=0, r2=0, xi1=1, xi2=1, xi3=1, xi4=1, eta=1, mirror_R=1,
        gain=GainSpec.fixed(0.0),
    )
    report = run_experiment(perfect)
    assert report.v_plus == pytest.approx(1.0, abs=1e-12)
    assert report.v_minus == pytest.approx(1.0, abs=1e-12)
    # losses admit only vacuum, so the lossy unsqueezed chain sits at SNL too
    lossy = make_lab_params(r1=0.0, r2=0.0, gain=GainSpec.fixed(0.0))
    report = run_experiment(lossy)
    assert report.v_plus == pytest.approx(1.0, abs=1e-12)
    assert report.entangled is False


# -- headline operating point ------------------------------------------------------


def test_lab_point_with_optimal_gain(lab_params):
    report = run_experiment(lab_params)
    assert report.g_swap_used == pytest.approx(0.741, abs=5e-3)
    assert report.v_plus == pytest.approx(0.719, abs=1e-3)
    assert report.v_minus == pytest.approx(0.719, abs=1e-3)
    assert report.v_plus == pytest.approx(V_LAB, rel=1e-10)
    assert report.v_plus_db == pytest.approx(-1.43, abs=0.02)
    assert report.entangled is True


def test_lab_point_with_fixed_gain(fixed_gain):
    report = run_experiment(make_lab_params(gain=fixed_gain))
    assert report.g_swap_used == 0.741
    assert report.v_plus == pytest.approx(0.719, abs=1e-3)


def test_blocked_channel(lab_params):
    blocked = replace(lab_params, channel_blocked=True)
    report = run_experiment(blocked)
    assert report.g_swap_used == 0.0
    assert report.v_plus == pytest.approx(V_BLOCKED, rel=1e-10)
    assert report.v_plus_db == pytest.approx(2.10, abs=0.01)
    assert report.entangled is False


# -- oracle vs closed form ----------------------------------------------------------


def test_network_matches_formula_random_draws():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(150):
        params = random_params(rng)
        report = run_experiment(params)
        expected = variance_formula(params, report.g_swap_used)
        worst = max(
            worst,
            abs(report.v_plus - expected) / expected,
            abs(report.v_minus - expected) / expected,
        )
    assert worst < 1e-9


def test_plus_and_minus_channels_agree():
    rng = np.random.default_rng(29)
    for _ in range(50):
        report = run_experiment(random_params(rng))
        assert report.v_plus == pytest.approx(report.v_minus, rel=1e-12)


def test_optimal_gain_draws_also_match_formula():
    rng = np.random.default_rng(31)
    for _ in range(30):
        params = random_params(rng, gain=GainSpec.optimal())
        report = run_experiment(params)
        expected = variance_formula(params, report.g_swap_used)
        assert report.v_plus == pytest.approx(expected, rel=1e-9)


# -- single-mode noise ---------------------------------------------------------------


def test_single_mode_noise_vacuum_chain():
    perfect = make_lab_params(
        r1=0.0, r2=0.0, xi1_sq=1, xi2_sq=1, xi3_sq=1, xi4_sq=1, eta_sq=1,
        gain=GainSpec.fixed(0.0),
    )
    assert single_mode_noise(perfect, "a") == pytest.approx(1.0, abs=1e-12)


def test_single_mode_noise_lossless_squeezer():
    params = make_lab_params(
        xi1_sq=1, xi2_sq=1, xi3_sq=1, xi4_sq=1, eta_sq=1, gain=GainSpec.fixed(0.0)
    )
    noise = single_mode_noise(params, "a")
    assert noise == pytest.approx(math.cosh(2 * 0.564), rel=1e-12)
    assert 10 * math.log10(noise) == pytest.approx(2.32, abs=5e-3)


def test_single_mode_noise_lab_values(lab_params):
    noise_a = single_mode_noise(lab_params, "a")
    # loss-channel arithmetic: eta^2 xi3^2 cosh(2 r1) + (1 - eta^2 xi3^2)
    expected = 0.90 * 0.966 * math.cosh(2 * 0.564) + (1 - 0.90 * 0.966)
    assert noise_a == pytest.approx(expected, rel=1e-12)
    assert noise_a == pytest.approx(1.614, abs=1e-3)
    assert single_mode_noise(lab_params, "a") == pytest.approx(SINGLE_A_LAB, rel=1e-10)
    assert single_mode_noise(lab_params, "dprime") == pytest.approx(
        SINGLE_DPRIME_LAB, rel=1e-10
    )


def test_single_mode_noise_unknown_label(lab_params):
    with pytest.raises(ValueError, match="unknown mode"):
        single_mode_noise(lab_params, "q")


# -- joint-measurement currents -------------------------------------------------------


def test_claire_currents_vacuum_normalization():
    params = make_lab_params(
        r1=0.0, r2=0.0, xi1_sq=1, xi2_sq=1, xi3_sq=1, xi4_sq=1, eta_sq=1,
        gain=GainSpec.fixed(0.0),
    )
    model, handles = build_network(params)
    assert model.variance(handles.i_plus) == pytest.approx(1.0, abs=1e-12)
    assert model.variance(handles.i_minus) == pytest.approx(1.0, abs=1e-12)


def test_claire_currents_lossless_value():
    params = make_lab_params(
        xi1_sq=1, xi2_sq=1, xi3_sq=1, xi4_sq=1, eta_sq=1, gain=GainSpec.fixed(0.0)
    )
    model, handles = build_network(params)
    expected = (math.cosh(2 * 0.564) + math.cosh(2 * 0.587)) / 2
    assert model.variance(handles.i_plus) == pytest.approx(expected, rel=1e-12)
    assert model.variance(handles.i_minus) == pytest.approx(expected, rel=1e-12)


def test_no_feedforward_means_no_entanglement(lab_params):
    # without the measured currents the two survivor beams stay separable
    report = run_experiment(replace(lab_params, channel_blocked=True))
    assert duan_verdict(report.v_plus, report.v_minus)[0] is False
    assert report.v_plus >= 1.0


def test_claire_currents_stage_mismatch(lab_params):
    _, handles = build_network(lab_params)
    with pytest.raises(ValueError, match="unregistered source"):
        GaussianModel.empty().variance(handles.i_plus)


def test_network_handles_compare_by_identity(lab_params):
    _, handles = build_network(lab_params)
    _, rebuilt = build_network(lab_params)
    assert handles == handles
    assert handles != rebuilt
    assert np.array_equal(handles.victor_plus, rebuilt.victor_plus)


# -- invariants ------------------------------------------------------------------------


def test_local_displacement_changes_no_variance(lab_params):
    model, handles = build_network(lab_params)
    zero = np.zeros(model.variances.size)
    shifted = model.displace_by_form("a", zero, zero, 1.0)
    shifted = shifted.displace_by_form("d", zero, zero, 1.0)
    victor_plus = (shifted.x_form("a") + shifted.x_form("d")) * (1 / SQRT2)
    victor_minus = (shifted.y_form("a") - shifted.y_form("d")) * (1 / SQRT2)
    assert shifted.variance(victor_plus) == model.variance(handles.victor_plus)
    assert shifted.variance(victor_minus) == model.variance(handles.victor_minus)


def test_variance_monotone_in_squeezing_at_optimal_gain(lab_params):
    grid = [0.2 * k for k in range(8)]
    for vary in ("r1", "r2"):
        values = [
            run_experiment(replace(lab_params, **{vary: r})).v_plus for r in grid
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_blocked_channel_never_below_snl():
    rng = np.random.default_rng(37)
    for _ in range(40):
        params = replace(random_params(rng), channel_blocked=True)
        report = run_experiment(params)
        assert report.v_plus >= 1.0 - 1e-12
        assert report.v_minus >= 1.0 - 1e-12
        assert report.entangled is False


def test_full_mirror_with_gain_is_rejected(lab_params):
    sealed = replace(lab_params, mirror_R=1.0, gain=GainSpec.fixed(0.5))
    with pytest.raises(ValueError, match="feedforward port"):
        run_experiment(sealed)
