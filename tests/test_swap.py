"""Network oracle: full-chain variances from first principles."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import cvswap
from cvswap import (
    ExperimentParams,
    GainSpec,
    GaussianModel,
    build_network,
    duan_verdict,
    run_experiment,
    snl_reference,
    variance_formula,
)
from cvswap.analytics import electronic_gain
from cvswap.cli import DRAW_HIGH, DRAW_LOW
from cvswap.swap import resolve_gain, single_mode_noise, verification_variances
from conftest import grow, make_lab_params

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
        gain=gain if gain is not None else GainSpec("fixed", rng.uniform(0, 1.5)),
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
    # the intensities are checked in order, before any square root
    with pytest.raises(ValueError, match=r"^xi1_sq: must be in \[0, 1\], got -0.1$"):
        make_lab_params(xi1_sq=-0.1, eta_sq=2)
    with pytest.raises(TypeError):
        make_lab_params(xi5_sq=0.5)


def test_from_intensities_leaves_the_other_fields_to_the_record():
    params = make_lab_params()  # no gain, channel_blocked or enl_db
    defaults = {field.name: field.default for field in dataclasses.fields(ExperimentParams)}
    for name in ("gain", "channel_blocked", "enl_db"):
        assert getattr(params, name) == defaults[name]
    assert params.gain == GainSpec("optimal")
    assert (params.channel_blocked, params.enl_db) == (False, None)


def test_batch_params_validation():
    lab = make_lab_params()
    ones = np.ones(3)
    fields = {name: getattr(lab, name) * ones
              for name in ("r1", "r2", "xi1", "xi2", "xi3", "xi4", "eta", "mirror_R")}
    assert ExperimentParams(**fields).batch_shape == (3,)
    with pytest.raises(ValueError, match="fixed gain"):
        build_network(ExperimentParams(**fields))  # the optimal gain is one-point only
    # each check applies to every draw, with the message of the one-point check
    for name, bad, message in (("r2", -0.1, "squeezing"), ("xi3", 1.2, "xi3"),
                               ("mirror_R", np.nan, "mirror_R")):
        column = fields[name].copy()
        column[1] = bad
        with pytest.raises(ValueError, match=message):
            ExperimentParams(**(fields | {name: column}))
    with pytest.raises(ValueError, match="value"):
        ExperimentParams(**fields, gain=GainSpec("fixed", np.array([0.5, -0.1, 0.5])))
    for mismatch in ({"eta": lab.eta * np.ones(2)}, {"eta": lab.eta},
                     {"channel_blocked": np.zeros(2, bool)}):
        with pytest.raises(ValueError, match="equal-length 1-D arrays"):
            ExperimentParams(**(fields | mismatch))


@pytest.mark.parametrize("name", ["optimal_gain", "run_experiment", "render_trace"])
def test_one_point_functions_reject_a_batch_first(name):
    # at the optimal gain the batch cannot build a network, and a trace of an unknown
    # kind with no points has two more errors of its own: the batch is rejected first
    lab = make_lab_params()
    batch = ExperimentParams(**{field: getattr(lab, field) * np.ones(2) for field in
                                ("r1", "r2", "xi1", "xi2", "xi3", "xi4", "eta", "mirror_R")})
    args = {"render_trace": ("nope", 0, 1)}.get(name, ())
    with pytest.raises(ValueError, match=f"^{name} takes one parameter point, not a batch of draws$"):
        getattr(cvswap, name)(batch, *args)


def test_nan_squeezing_and_gain_rejected():
    lab = make_lab_params()
    with pytest.raises(ValueError, match="squeezing.r1: must be >= 0"):
        replace(lab, r1=math.nan)
    with pytest.raises(ValueError, match="gain.value: must be >= 0"):
        GainSpec("fixed", math.nan)
    # a batch with nan in one draw
    fields = {name: getattr(lab, name) * np.ones(3)
              for name in ("r1", "r2", "xi1", "xi2", "xi3", "xi4", "eta", "mirror_R")}
    fields["r2"][1] = math.nan
    with pytest.raises(ValueError, match="squeezing.r2: must be >= 0"):
        ExperimentParams(**fields)
    with pytest.raises(ValueError, match="gain.value: must be >= 0"):
        GainSpec("fixed", np.array([0.5, math.nan, 0.5]))


def test_gain_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        GainSpec("sometimes")
    with pytest.raises(ValueError, match="value"):
        GainSpec("fixed")
    with pytest.raises(ValueError, match="optimal mode takes no 'value'"):
        GainSpec("optimal", 0.5)
    assert GainSpec("fixed", 0.3).value == 0.3
    assert GainSpec("optimal").mode == "optimal"


# -- trivial gates ---------------------------------------------------------------


def test_snl_reference_is_unity():
    assert snl_reference() == pytest.approx(1.0, abs=1e-15)


def test_all_vacuum_network_is_exact_snl():
    perfect = ExperimentParams(
        r1=0, r2=0, xi1=1, xi2=1, xi3=1, xi4=1, eta=1, mirror_R=1,
        gain=GainSpec("fixed", 0.0),
    )
    report = run_experiment(perfect)
    assert report.v_plus == pytest.approx(1.0, abs=1e-12)
    assert report.v_minus == pytest.approx(1.0, abs=1e-12)
    # losses admit only vacuum, so the lossy unsqueezed chain sits at SNL too
    lossy = make_lab_params(r1=0.0, r2=0.0, gain=GainSpec("fixed", 0.0))
    report = run_experiment(lossy)
    assert report.v_plus == pytest.approx(1.0, abs=1e-12)
    assert report.entangled is False


# -- headline operating point ------------------------------------------------------


def test_lab_point_with_optimal_gain(lab_params):
    report = run_experiment(lab_params)
    assert report.g_swap == pytest.approx(0.741, abs=5e-3)
    assert report.gain_mode == "optimal"
    assert report.v_plus == pytest.approx(0.719, abs=1e-3)
    assert report.v_minus == pytest.approx(0.719, abs=1e-3)
    assert report.v_plus == pytest.approx(V_LAB, rel=1e-10)
    assert report.v_plus_db == pytest.approx(-1.43, abs=0.02)
    assert report.entangled is True


def test_lab_point_with_fixed_gain(fixed_gain):
    report = run_experiment(make_lab_params(gain=fixed_gain))
    assert report.g_swap == 0.741
    assert report.gain_mode == "fixed"
    assert report.v_plus == pytest.approx(0.719, abs=1e-3)


def test_blocked_channel(lab_params):
    blocked = replace(lab_params, channel_blocked=True)
    report = run_experiment(blocked)
    assert report.g_swap == 0.0
    assert report.gain_mode == "blocked"
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
        expected = variance_formula(params, report.g_swap)
        worst = max(
            worst,
            abs(report.v_plus - expected) / expected,
            abs(report.v_minus - expected) / expected,
        )
    assert worst < 1e-9


def test_batch_matches_each_draw_bit_for_bit():
    rng = np.random.default_rng(41)
    draws = rng.uniform(DRAW_LOW, DRAW_HIGH, size=(200, 9))
    draws[0, 8] = 0.0                      # no feedforward
    draws[1, 7], draws[1, 8] = 1.0, 0.0    # full mirror, zero gain
    draws[2, :2] = 0.0                     # r1 = r2 = 0
    blocked = np.arange(200) == 3          # classical channel cut
    *physics, g_swap = draws.T
    batch = ExperimentParams(*physics, gain=GainSpec("fixed", g_swap), channel_blocked=blocked)
    model, handles = build_network(batch)
    v_plus, v_minus = model.variance(handles.victor_plus), model.variance(handles.victor_minus)
    assert v_plus.shape == v_minus.shape == (200,)
    for k, row in enumerate(draws.tolist()):
        *physics, g_swap = row
        one = ExperimentParams(*physics, gain=GainSpec("fixed", g_swap),
                               channel_blocked=bool(blocked[k]))
        m, h = build_network(one)
        assert m.variance(h.victor_plus) == v_plus[k]
        assert m.variance(h.victor_minus) == v_minus[k]
        assert h.g_swap == handles.g_swap[k]


def test_batch_draw_past_the_float_range_builds_like_its_point():
    # 2 r overflows to inf for r = 1e308: silently in a one-point build's float
    # arithmetic, and so in a batch's, under the suite's warnings-as-errors filter
    lab = make_lab_params()
    physics = [np.array([0.5, 1e308]), *(getattr(lab, name) * np.ones(2) for name in
                                         ("r2", "xi1", "xi2", "xi3", "xi4", "eta", "mirror_R"))]
    batch = ExperimentParams(*physics, gain=GainSpec("fixed", 0.0), channel_blocked=True)
    model, _ = build_network(batch)
    assert np.isinf(model.variances[..., 1]).any()
    for k in range(2):
        one = ExperimentParams(*(column[k].item() for column in physics),
                               gain=GainSpec("fixed", 0.0), channel_blocked=True)
        point, _ = build_network(one)
        assert model.rows[..., k].tobytes() == point.rows.tobytes()
        assert model.variances[..., k].tobytes() == point.variances.tobytes()


def test_numpy_scalar_past_the_float_range_builds_like_a_float():
    # a library caller's np.float64 r gives a Python float's silent inf, under the
    # suite's warnings-as-errors filter
    as_float, as_numpy = (build_network(make_lab_params(
        r1=r1, gain=GainSpec("fixed", 0.0), channel_blocked=True))[0]
        for r1 in (1e308, np.float64(1e308)))
    assert np.isinf(as_float.variances).any()
    assert as_numpy.rows.tobytes() == as_float.rows.tobytes()
    assert as_numpy.variances.tobytes() == as_float.variances.tobytes()


def test_network_matches_formula_wide_squeezing():
    # ROADMAP item 4: r1, r2 up to 40, verify's ranges elsewhere, the batched oracle
    rng = np.random.default_rng(43)
    high = DRAW_HIGH.copy()
    high[:2] = 40.0
    draws = rng.uniform(DRAW_LOW, high, size=(2000, 9))
    draws[:3, :2] = [[0.0, 40.0], [40.0, 0.0], [40.0, 40.0]]
    *physics, g_swap = draws.T
    params = ExperimentParams(*physics, gain=GainSpec("fixed", g_swap))
    v_plus, v_minus, g_used = verification_variances(params)
    expected = variance_formula(params, g_used)
    worst = max(np.max(abs(v_plus - expected) / expected),
                np.max(abs(v_minus - expected) / expected))
    assert worst <= 1e-9


def test_network_matches_formula_near_full_mirror():
    # the feedforward port sqrt(1 - R) is small here, and the electronic gain
    # divided by it must meet the port the network builds, not a nearby one
    base = make_lab_params(gain=GainSpec("fixed", 1.4))
    worst = 0.0
    for k in range(2, 16):
        params = replace(base, mirror_R=1.0 - 10.0**-k)
        report = run_experiment(params)
        expected = variance_formula(params, report.g_swap)
        worst = max(worst, abs(report.v_plus - expected) / expected,
                    abs(report.v_minus - expected) / expected)
    assert worst <= 1e-9


def test_plus_and_minus_channels_agree():
    rng = np.random.default_rng(29)
    for _ in range(50):
        report = run_experiment(random_params(rng))
        assert report.v_plus == pytest.approx(report.v_minus, rel=1e-12)


def test_optimal_gain_draws_also_match_formula():
    rng = np.random.default_rng(31)
    for _ in range(30):
        params = random_params(rng, gain=GainSpec("optimal"))
        report = run_experiment(params)
        expected = variance_formula(params, report.g_swap)
        assert report.v_plus == pytest.approx(expected, rel=1e-9)


# -- single-mode noise ---------------------------------------------------------------


def test_single_mode_noise_vacuum_chain():
    perfect = make_lab_params(
        r1=0.0, r2=0.0, xi1_sq=1, xi2_sq=1, xi3_sq=1, xi4_sq=1, eta_sq=1,
        gain=GainSpec("fixed", 0.0),
    )
    assert single_mode_noise(perfect, "a") == pytest.approx(1.0, abs=1e-12)


def test_single_mode_noise_lossless_squeezer():
    params = make_lab_params(
        xi1_sq=1, xi2_sq=1, xi3_sq=1, xi4_sq=1, eta_sq=1, gain=GainSpec("fixed", 0.0)
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
        gain=GainSpec("fixed", 0.0),
    )
    model, handles = build_network(params)
    assert model.variance(handles.i_plus) == pytest.approx(1.0, abs=1e-12)
    assert model.variance(handles.i_minus) == pytest.approx(1.0, abs=1e-12)


def test_claire_currents_lossless_value():
    params = make_lab_params(
        xi1_sq=1, xi2_sq=1, xi3_sq=1, xi4_sq=1, eta_sq=1, gain=GainSpec("fixed", 0.0)
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
        GaussianModel(0, 0).freeze().variance(handles.i_plus)


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
    shifted = model.builder(0, 0).displace_by_form("a", zero, zero, 1.0)
    shifted = shifted.displace_by_form("d", zero, zero, 1.0).freeze()
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
    sealed = replace(lab_params, mirror_R=1.0, gain=GainSpec("fixed", 0.5))
    with pytest.raises(ValueError, match="feedforward port"):
        run_experiment(sealed)


# -- the in-place build ---------------------------------------------------------------


class _ElementByElement:
    """A frozen model that grows by one element per call, through ``grow``, with the
    builder's chaining interface: ``model`` is the network so far."""

    def __init__(self, model: GaussianModel) -> None:
        self.model = model

    def x_form(self, label: str) -> np.ndarray:
        return self.model.x_form(label)

    def y_form(self, label: str) -> np.ndarray:
        return self.model.y_form(label)

    def __getattr__(self, element: str):
        def add(*args):
            self.model = grow(self.model, element, *args)
            return self
        return add


def _swap_elements(m, p, g_electronic):
    """build_network's elements in its order, on a builder or an ``_ElementByElement``."""
    m = m.add_epr_pair(("a", "b"), p.r1).add_epr_pair(("c", "d"), p.r2)
    m = m.loss("b", p.xi1).loss("c", p.xi1).beamsplitter(("b", "c"), 1.0 / SQRT2)
    m = m.loss("b", p.eta).loss("c", p.eta)
    i_plus, i_minus = m.x_form("b"), -m.y_form("c")
    m = m.loss("d", p.xi2).add_vacuum_mode("beta")
    t_mirror = np.sqrt(p.mirror_R)
    m = m.displace_by_form("beta", i_plus, i_minus, g_electronic(t_mirror))
    m = m.beamsplitter(("d", "beta"), t_mirror)
    return m.loss("a", p.xi3).loss("d", p.xi4).loss("a", p.eta).loss("d", p.eta)


def test_build_network_matches_the_frozen_element_chain_bit_for_bit(lab_params):
    rng = np.random.default_rng(47)
    *physics, g_swap = rng.uniform(DRAW_LOW, DRAW_HIGH, size=(64, 9)).T
    batch = ExperimentParams(*physics, gain=GainSpec("fixed", g_swap))
    for params in (lab_params, batch):
        model, _ = build_network(params)

        def electronic(t_mirror, params=params):
            return electronic_gain(resolve_gain(params), t_mirror * t_mirror,
                                   params.eta, params.xi1)

        start = _ElementByElement(GaussianModel(0, 0, params.batch_shape).freeze())
        chain = _swap_elements(start, params, electronic).model
        assert model.rows.tobytes() == chain.rows.tobytes()
        assert model.variances.tobytes() == chain.variances.tobytes()
        assert model.labels == chain.labels


def test_builder_matches_the_frozen_element_chain_on_a_2d_batch():
    # ExperimentParams holds one batch axis; the elements take any batch shape
    rng = np.random.default_rng(53)
    fields = ("r1", "r2", "xi1", "xi2", "xi3", "xi4", "eta", "mirror_R")
    p = SimpleNamespace(**{name: rng.uniform(low, high, size=(3, 5)) for name, low, high
                           in zip(fields, DRAW_LOW, DRAW_HIGH)})
    gain = rng.uniform(0.0, 10.0, size=(3, 5))
    built = _swap_elements(GaussianModel(5, 28, (3, 5)), p, lambda t: gain).freeze()
    start = _ElementByElement(GaussianModel(0, 0, (3, 5)).freeze())
    chain = _swap_elements(start, p, lambda t: gain).model
    assert built.rows.shape == (5, 28, 3, 5)
    assert built.rows.tobytes() == chain.rows.tobytes()
    assert built.variances.tobytes() == chain.variances.tobytes()


def test_building_a_network_validates_no_params(lab_params, monkeypatch):
    # the gain rule takes the mirror as built directly, not through new params
    *physics, g_swap = np.random.default_rng(61).uniform(DRAW_LOW, DRAW_HIGH, size=(8, 9)).T
    batch = ExperimentParams(*physics, gain=GainSpec("fixed", g_swap))
    validated = []
    check = ExperimentParams.__post_init__
    monkeypatch.setattr(ExperimentParams, "__post_init__",
                        lambda self: validated.append(self) or check(self))
    for params in (lab_params, batch):
        _, handles = build_network(params)
        assert np.all(handles.g_swap > 0)  # so the feedforward gain is set
    assert validated == []


def test_built_network_arrays_are_read_only(lab_params):
    *physics, g_swap = np.random.default_rng(59).uniform(DRAW_LOW, DRAW_HIGH, size=(8, 9)).T
    for params in (lab_params, ExperimentParams(*physics, gain=GainSpec("fixed", g_swap))):
        model, _ = build_network(params)
        for array in (model.rows, model.variances, model.x_form("a"), model.y_form("d")):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7.0


def test_verification_footprint_of_a_verify_batch():
    # verify --random 200's first batch: 200 draws and the config point. With
    # one row per mode over all sources, its traced peak is about 456 KB; one
    # dense row per quadrature took about 860 KB
    *physics, g_swap = np.random.default_rng(67).uniform(DRAW_LOW, DRAW_HIGH, size=(201, 9)).T
    batch = ExperimentParams(*physics, gain=GainSpec("fixed", g_swap))
    verification_variances(batch)  # fills the process-wide caches first
    tracemalloc.start()
    try:
        verification_variances(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 680 * 1024
