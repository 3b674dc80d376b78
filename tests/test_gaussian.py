"""Gaussian core: sources, forms, and linear-optics elements."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cvswap import GaussianModel
from cvswap.params import EXP_MAX, exp
from conftest import grow, with_room

SQRT2 = math.sqrt(2.0)


def brute_force_variance(terms):
    """Independent oracle: sum coeff^2 * variance over (coeff, variance) pairs."""
    return sum(c * c * v for c, v in terms)


# -- vacuum modes --------------------------------------------------------------


def test_vacuum_mode_unit_variance():
    m = GaussianModel(1, 2).add_vacuum_mode("v1").freeze()
    assert m.variance(m.x_form("v1")) == 1.0
    assert m.variance(m.y_form("v1")) == 1.0
    assert m.variance(m.x_form("v1")) * m.variance(m.y_form("v1")) == 1.0


def test_vacuum_modes_independent():
    m = GaussianModel(2, 4).add_vacuum_mode("v1").add_vacuum_mode("v2").freeze()
    assert m.covariance(m.x_form("v1"), m.x_form("v2")) == 0.0
    assert m.covariance(m.x_form("v1"), m.y_form("v1")) == 0.0


def test_duplicate_label_rejected():
    m = GaussianModel(1, 2).add_vacuum_mode("v1").freeze()
    with pytest.raises(ValueError, match="already in use"):
        grow(m, "add_vacuum_mode", "v1")


# -- squeezed pairs ------------------------------------------------------------


def test_epr_vacuum_limit():
    m = GaussianModel(2, 4).add_epr_pair(("a", "b"), 0.0).freeze()
    for label in ("a", "b"):
        assert m.variance(m.x_form(label)) == pytest.approx(1.0, abs=1e-15)
        assert m.variance(m.y_form(label)) == pytest.approx(1.0, abs=1e-15)
    assert m.covariance(m.x_form("a"), m.x_form("b")) == pytest.approx(0.0, abs=1e-15)
    assert m.covariance(m.y_form("a"), m.y_form("b")) == pytest.approx(0.0, abs=1e-15)


def test_epr_joint_variances():
    r = 0.564
    m = GaussianModel(2, 4).add_epr_pair(("a", "b"), r).freeze()
    x_sum = (m.x_form("a") + m.x_form("b")) * (1 / SQRT2)
    y_diff = (m.y_form("a") - m.y_form("b")) * (1 / SQRT2)
    assert m.variance(x_sum) == pytest.approx(math.exp(-2 * r), rel=1e-12)
    assert m.variance(y_diff) == pytest.approx(math.exp(-2 * r), rel=1e-12)
    # the 4.9 dB operating point sits at 0.3237 of shot noise
    assert m.variance(x_sum) == pytest.approx(0.3237, abs=2e-4)
    x_diff = (m.x_form("a") - m.x_form("b")) * (1 / SQRT2)
    y_sum = (m.y_form("a") + m.y_form("b")) * (1 / SQRT2)
    assert m.variance(x_diff) == pytest.approx(math.exp(2 * r), rel=1e-12)
    assert m.variance(y_sum) == pytest.approx(math.exp(2 * r), rel=1e-12)


def test_epr_sign_convention():
    # amplitudes anticorrelated, phases correlated: sum-x and diff-y are quiet
    m = GaussianModel(2, 4).add_epr_pair(("a", "b"), 0.8).freeze()
    assert m.covariance(m.x_form("a"), m.x_form("b")) < 0
    assert m.covariance(m.y_form("a"), m.y_form("b")) > 0


def test_epr_single_mode_variance_matches_brute_force():
    r = 0.564
    m = GaussianModel(2, 4).add_epr_pair(("a", "b"), r).freeze()
    # by-hand decomposition: x_a = (s_sum + s_diff)/sqrt2
    expected = brute_force_variance(
        [(1 / SQRT2, math.exp(-2 * r)), (1 / SQRT2, math.exp(2 * r))]
    )
    assert expected == pytest.approx(math.cosh(2 * r), rel=1e-12)
    assert m.variance(m.x_form("a")) == pytest.approx(expected, rel=1e-12)
    assert m.variance(m.x_form("a")) == pytest.approx(1.706, abs=1e-3)


def test_epr_negative_r_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        GaussianModel(2, 4).add_epr_pair(("a", "b"), -0.1)


def test_epr_overflowing_2r_is_silently_inf_for_a_float_an_np_float64_and_an_array():
    # a float's 2 r overflows silently; an np.float64's or an array's would warn
    rows = {1e308: [0.0, math.inf, math.inf, 0.0], 0.5: [exp(-1.0), exp(1.0), exp(1.0), exp(-1.0)]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1e308, np.float64(1e308)):
            m = GaussianModel(2, 4).add_epr_pair(("a", "b"), r).freeze()
            assert m.variances.tolist() == rows[1e308]
        m = GaussianModel(2, 4, (2,)).add_epr_pair(("a", "b"), np.array([1e308, 0.5])).freeze()
        assert m.variances.T.tolist() == [rows[1e308], rows[0.5]]


@given(st.floats(min_value=0.0, max_value=3.0))
def test_epr_uncertainty_product_exact(r):
    m = GaussianModel(2, 4).add_epr_pair(("a", "b"), r).freeze()
    v_sum = m.variance(m.x_form("a") + m.x_form("b"))
    v_diff = m.variance(m.x_form("a") - m.x_form("b"))
    assert v_sum * v_diff == pytest.approx(4.0, rel=1e-12)


# -- beamsplitter ----------------------------------------------------------------


def test_beamsplitter_full_transmission_is_identity():
    m = GaussianModel(2, 4).add_epr_pair(("a", "b"), 0.3).freeze()
    out = grow(m, "beamsplitter", ("a", "b"), 1.0)
    assert np.array_equal(out.x_form("a"), m.x_form("a"))
    assert np.array_equal(out.y_form("b"), m.y_form("b"))


def test_beamsplitter_5050_on_vacua():
    m = GaussianModel(2, 4).add_vacuum_mode("v1").add_vacuum_mode("v2").freeze()
    out = grow(m, "beamsplitter", ("v1", "v2"), 1 / SQRT2)
    assert out.variance(out.x_form("v1")) == pytest.approx(1.0, rel=1e-12)
    assert out.variance(out.x_form("v2")) == pytest.approx(1.0, rel=1e-12)


def test_beamsplitter_extracts_squeezed_port():
    r = 0.564
    m = GaussianModel(2, 4).add_epr_pair(("a", "b"), r).freeze()
    out = grow(m, "beamsplitter", ("a", "b"), 1 / SQRT2)
    assert out.variance(out.x_form("a")) == pytest.approx(math.exp(-2 * r), rel=1e-12)
    assert out.variance(out.x_form("a")) == pytest.approx(0.3237, abs=2e-4)


def test_beamsplitter_bad_transmittance_rejected():
    m = GaussianModel(2, 4).add_vacuum_mode("v1").add_vacuum_mode("v2").freeze()
    for t in (-0.1, 1.1):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            grow(m, "beamsplitter", ("v1", "v2"), t)


def test_beamsplitter_unknown_mode_rejected():
    m = GaussianModel(1, 2).add_vacuum_mode("v1").freeze()
    with pytest.raises(ValueError, match="unknown mode"):
        grow(m, "beamsplitter", ("v1", "nope"), 0.5)


def test_beamsplitter_of_a_mode_with_itself_is_rejected():
    # on one row the map is not unitary: at t = 0.6 it took vacuum's x variance to 0.04
    for scale in ONE_POINT_AND_BATCH:
        m = GaussianModel(1, 2, np.shape(scale)).add_vacuum_mode("v").freeze()
        net = with_room(m, 0, 0)
        with pytest.raises(ValueError, match=r"mode labels \('v', 'v'\) must be distinct"):
            net.beamsplitter(("v", "v"), 0.6 * scale)
        assert net.freeze().rows.tobytes() == m.rows.tobytes()


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.0, max_value=1.5),
)
def test_beamsplitter_preserves_total_variance(t, ra, rb):
    # independent inputs of unequal variance: cosh(2r) each
    m = (
        GaussianModel(4, 8)
        .add_epr_pair(("a", "a2"), ra)
        .add_epr_pair(("b", "b2"), rb)
        .freeze()
    )
    before = m.variance(m.x_form("a")) + m.variance(m.x_form("b"))
    out = grow(m, "beamsplitter", ("a", "b"), t)
    after = out.variance(out.x_form("a")) + out.variance(out.x_form("b"))
    assert after == pytest.approx(before, rel=1e-12)


# -- loss -------------------------------------------------------------------------


def test_loss_identity():
    m = GaussianModel(2, 4).add_epr_pair(("a", "b"), 0.4).freeze()
    out = grow(m, "loss", "a", 1.0)
    n = m.rows.shape[1]  # sources
    assert out.rows[:, :n].tobytes() == m.rows.tobytes()
    assert not out.rows[:, n:].any()
    assert out.variances.shape == (n + 2,)


def test_loss_blackout_gives_vacuum():
    m = GaussianModel(2, 4).add_epr_pair(("a", "b"), 1.2).freeze()
    out = grow(m, "loss", "a", 0.0)
    assert out.variance(out.x_form("a")) == pytest.approx(1.0, rel=1e-12)


def test_loss_arithmetic_on_antisqueezed_mode():
    # 95% intensity transmission of a mode at exp(+2*0.587) of shot noise
    r = 0.587
    net = GaussianModel(2, 4).add_epr_pair(("p", "q"), r)
    m = net.beamsplitter(("p", "q"), 1 / SQRT2).freeze()  # q now holds the +2r port
    assert m.variance(m.x_form("q")) == pytest.approx(math.exp(2 * r), rel=1e-12)
    out = grow(m, "loss", "q", math.sqrt(0.95))
    expected = 0.95 * math.exp(2 * r) + 0.05
    assert out.variance(out.x_form("q")) == pytest.approx(expected, rel=1e-12)
    assert out.variance(out.x_form("q")) == pytest.approx(3.1232, abs=1e-3)


def test_loss_bad_transmission_rejected():
    m = GaussianModel(1, 2).add_vacuum_mode("v1").freeze()
    for xi in (-0.5, 1.5):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            grow(m, "loss", "v1", xi)


# -- displacement ---------------------------------------------------------------


def test_displacement_zero_gain_is_identity():
    m = GaussianModel(2, 4).add_vacuum_mode("v1").add_vacuum_mode("v2").freeze()
    out = grow(m, "displace_by_form", "v1", m.x_form("v2"), m.y_form("v2"), 0.0)
    assert np.array_equal(out.x_form("v1"), m.x_form("v1"))


def test_displacement_perfect_cancellation():
    m = GaussianModel(1, 2).add_vacuum_mode("v1").freeze()
    out = grow(m, "displace_by_form", "v1", -m.x_form("v1"), -m.y_form("v1"), 1.0)
    assert out.variance(out.x_form("v1")) == 0.0
    assert out.variance(out.y_form("v1")) == 0.0


def test_displacement_unregistered_source_rejected():
    m = GaussianModel(1, 2).add_vacuum_mode("v1").freeze()
    rogue = np.ones(m.variances.size + 1)
    with pytest.raises(ValueError, match="unregistered source"):
        grow(m, "displace_by_form", "v1", rogue, rogue, 1.0)


def test_zero_form_displacement_is_bit_identical():
    m = GaussianModel(1, 2).add_vacuum_mode("v1").freeze()
    zero = np.zeros(m.variances.size)
    shifted = grow(m, "displace_by_form", "v1", zero, zero, 1.0)
    assert shifted.rows.tobytes() == m.rows.tobytes()
    assert shifted.variances.tobytes() == m.variances.tobytes()
    assert shifted.variance(shifted.x_form("v1")) == 1.0


# -- second moments ---------------------------------------------------------------


def test_variance_of_empty_form_is_zero():
    m = GaussianModel(0, 0).freeze()
    assert m.variance(np.zeros(0)) == 0.0


def test_covariance_disjoint_sources_zero():
    m = GaussianModel(2, 4).add_vacuum_mode("v1").add_vacuum_mode("v2").freeze()
    assert m.covariance(m.x_form("v1"), m.x_form("v2")) == 0.0


def test_variance_rejects_unregistered_source():
    m = GaussianModel(0, 0).freeze()
    with pytest.raises(ValueError, match="unregistered source"):
        m.variance(np.ones(1))


def test_joint_variance_of_independent_pair_halves():
    # one beam of each pair, mixed: brute-force assembly gives the cosh average
    r1, r2 = 0.564, 0.587
    net = GaussianModel(4, 8)
    m = net.add_epr_pair(("a", "b"), r1).add_epr_pair(("c", "d"), r2).freeze()
    form = (m.x_form("b") + m.x_form("c")) * (1 / SQRT2)
    expected = brute_force_variance(
        [
            (1 / 2, math.exp(-2 * r1)),
            (-1 / 2, math.exp(2 * r1)),
            (1 / 2, math.exp(-2 * r2)),
            (1 / 2, math.exp(2 * r2)),
        ]
    )
    assert expected == pytest.approx((math.cosh(2 * r1) + math.cosh(2 * r2)) / 2, rel=1e-12)
    assert m.variance(form) == pytest.approx(expected, rel=1e-12)
    assert m.variance(form) == pytest.approx(1.7392964, abs=1e-6)


# -- covariance matrix -------------------------------------------------------------


def _covariance_matrix(m: GaussianModel, labels) -> np.ndarray:
    """The listed modes' covariance matrix in (x1, y1, x2, ...) order, from pairwise covariance."""
    forms = [f for label in labels for f in (m.x_form(label), m.y_form(label))]
    return np.array([[m.covariance(fi, fj) for fj in forms] for fi in forms])


def test_covariance_matrix_vacuum_identity():
    m = GaussianModel(1, 2).add_vacuum_mode("v1").freeze()
    assert np.allclose(_covariance_matrix(m, ["v1"]), np.eye(2))


def test_covariance_matrix_epr_entries():
    r = 0.564
    m = GaussianModel(2, 4).add_epr_pair(("a", "b"), r).freeze()
    sigma = _covariance_matrix(m, ["a", "b"])
    assert np.allclose(np.diag(sigma), math.cosh(2 * r))
    assert sigma[0, 2] == pytest.approx(-math.sinh(2 * r), rel=1e-12)  # x_a, x_b
    assert sigma[0, 2] == pytest.approx(-1.382, abs=1e-3)
    assert sigma[1, 3] == pytest.approx(+math.sinh(2 * r), rel=1e-12)  # y_a, y_b
    assert np.allclose(sigma, sigma.T)


def _random_network(rng) -> GaussianModel:
    net = GaussianModel(4, 14)
    net.add_epr_pair(("a", "b"), rng.uniform(0, 1.5))
    net.add_epr_pair(("c", "d"), rng.uniform(0, 1.5))
    net.loss("b", rng.uniform(0.3, 1.0)).loss("c", rng.uniform(0.3, 1.0))
    net.beamsplitter(("b", "c"), rng.uniform(0, 1.0))
    net.loss("d", rng.uniform(0.3, 1.0))
    return net.freeze()


def test_covariance_matrix_symmetric_psd_and_physical():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = _random_network(rng)
        sigma = _covariance_matrix(m, tuple(m.labels))
        assert np.allclose(sigma, sigma.T)
        # no element mixes x and y: each x-y entry is exactly 0, and each form
        # is exactly +0.0 on the other quadrature's sources
        assert (sigma[0::2, 1::2] == 0.0).all() and (sigma[1::2, 0::2] == 0.0).all()
        for label in m.labels:
            assert m.x_form(label)[m.y_sources].tobytes() == np.zeros(7).tobytes()
            assert m.y_form(label)[~m.y_sources].tobytes() == np.zeros(7).tobytes()
        assert np.linalg.eigvalsh(sigma).min() >= -1e-9
        # uncertainty bound per mode: det of each diagonal 2x2 block >= 1
        for k in range(0, sigma.shape[0], 2):
            block = sigma[k : k + 2, k : k + 2]
            assert np.linalg.det(block) >= 1.0 - 1e-9


def test_disjoint_operations_commute():
    def build(first_pair_first: bool) -> GaussianModel:
        net = GaussianModel(4, 12)
        steps = [
            lambda b: b.add_epr_pair(("a", "b"), 0.7).loss("a", 0.9),
            lambda b: b.add_epr_pair(("c", "d"), 0.4).loss("c", 0.8),
        ]
        if not first_pair_first:
            steps.reverse()
        for step in steps:
            step(net)
        return net.freeze()

    m1, m2 = build(True), build(False)
    for label in ("a", "b", "c", "d"):
        assert m1.variance(m1.x_form(label)) == pytest.approx(
            m2.variance(m2.x_form(label)), rel=1e-12
        )
        assert m1.variance(m1.y_form(label)) == pytest.approx(
            m2.variance(m2.y_form(label)), rel=1e-12
        )


def test_model_operations_do_not_mutate_parent():
    m = GaussianModel(1, 2).add_vacuum_mode("v1").freeze()
    before = m.variance(m.x_form("v1"))
    grow(m, "loss", "v1", 0.5)
    grow(m, "displace_by_form", "v1", -m.x_form("v1"), -m.y_form("v1"), 1.0)
    assert m.variance(m.x_form("v1")) == before
    assert tuple(m.labels) == ("v1",)


# element parameters are scaled by one float, or by one value per draw of a batch
ONE_POINT_AND_BATCH = [1.0, np.array([1.0, 0.5, 0.0])]


def _every_element(m: GaussianModel, scale=1.0) -> list[GaussianModel]:
    return [
        grow(m, "add_vacuum_mode", "v"),
        grow(m, "add_epr_pair", ("e", "f"), 0.5 * scale),
        grow(m, "beamsplitter", ("a", "c"), 0.6 * scale),
        grow(m, "loss", "b", 0.7 * scale),
        grow(m, "displace_by_form", "d", m.x_form("a"), m.y_form("b"), 0.4 * scale),
    ]


def test_model_arrays_are_read_only():
    for scale in ONE_POINT_AND_BATCH:
        net = GaussianModel(2, 4, np.shape(scale))
        m = net.add_epr_pair(("a", "b"), 0.3 * scale).freeze()
        for model in [m, *_every_element(grow(m, "add_epr_pair", ("c", "d"), 0.2), scale)]:
            for array in (model.x_form("a"), model.y_form("b"), model.rows, model.variances):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 7.0


def test_elements_leave_parent_arrays_unchanged():
    for scale in ONE_POINT_AND_BATCH:
        net = GaussianModel(4, 8, np.shape(scale))
        m = net.add_epr_pair(("a", "b"), 0.3 * scale).add_epr_pair(("c", "d"), 0.9).freeze()
        rows, variances, labels = m.rows.copy(), m.variances.copy(), dict(m.labels)
        # each element on a copy of its own, then all of them on one copy
        children = _every_element(m, scale)
        net = with_room(m, 3, 8).add_vacuum_mode("v").add_epr_pair(("e", "f"), 0.5 * scale)
        net.beamsplitter(("a", "c"), 0.6 * scale).loss("b", 0.7 * scale)
        net.displace_by_form("d", m.x_form("a"), m.y_form("b"), 0.4 * scale)
        assert not any(np.array_equal(child.rows, rows) for child in children)
        assert not np.array_equal(net.freeze().rows[: rows.shape[0], : rows.shape[1]], rows)
        assert m.rows.tobytes() == rows.tobytes()
        assert m.variances.tobytes() == variances.tobytes()
        assert m.labels == labels


def test_batched_arrays_are_c_contiguous_with_draws_last():
    # per-draw parameters then broadcast over the innermost axis, in long loops
    draws = ONE_POINT_AND_BATCH[1]
    net = GaussianModel(4, 8, draws.shape)
    m = net.add_epr_pair(("a", "b"), 0.3 * draws).add_epr_pair(("c", "d"), 0.2).freeze()
    for model in [m, *_every_element(m, draws)]:
        n_modes, n_sources = model.rows.shape[:2]
        assert model.batch_shape == draws.shape
        assert model.rows.shape == (n_modes, n_sources, *draws.shape)
        assert model.variances.shape == (n_sources, *draws.shape)
        assert model.y_sources.shape == (n_sources, 1)
        assert model.rows.flags.c_contiguous and model.variances.flags.c_contiguous
        assert model.x_form("a").shape == (n_sources, *draws.shape)


def test_elements_append_variances_in_creation_order():
    # x sum, x diff, y sum, y diff of a squeezed pair; x, y of a vacuum mode and of a loss
    for scale in ONE_POINT_AND_BATCH:
        r = 0.3 * scale
        net = GaussianModel(3, 8, np.shape(scale)).add_epr_pair(("a", "b"), r)
        m = net.add_vacuum_mode("v").loss("a", 0.8 * scale).freeze()
        quiet, loud = (np.vectorize(math.exp)(factor * np.asarray(r)) for factor in (-2.0, 2.0))
        one = np.ones_like(quiet)
        expected = np.stack([quiet, loud, loud, quiet, one, one, one, one])
        assert m.variances.tobytes() == expected.tobytes()
        tags = [False, False, True, True, False, True, False, True]
        assert m.y_sources.shape == (8, *(1,) * np.ndim(scale))
        assert m.y_sources.ravel().tolist() == tags
        x_part, y_part = m.variances[~m.y_sources.ravel()], m.variances[m.y_sources.ravel()]
        assert x_part.tobytes() == np.stack([quiet, loud, one, one]).tobytes()
        assert y_part.tobytes() == np.stack([loud, quiet, one, one]).tobytes()
        h = 1 / SQRT2  # b's row over the pair's sources: (sum - diff) / sqrt2 on x and on y
        assert m.rows[1, :4].tobytes() == np.multiply.outer([h, -h, h, -h], one).tobytes()


def _four_modes(batch) -> GaussianModel:
    net = GaussianModel(4, 8, batch).add_epr_pair(("a", "b"), 0.3)
    return net.add_epr_pair(("c", "d"), 0.2).freeze()


def _elements_with(m: GaussianModel, value) -> list:
    """Each element called with ``value`` as its parameter, unevaluated."""
    form_a, form_b = m.x_form("a"), m.y_form("b")
    return [
        lambda: grow(m, "add_epr_pair", ("e", "f"), value),
        lambda: grow(m, "beamsplitter", ("a", "c"), value),
        lambda: grow(m, "loss", "b", value),
        lambda: grow(m, "displace_by_form", "d", form_a, form_b, value),
    ]


def test_empty_model_fixes_the_batch_shape():
    for batch in [(), (4,), (2, 3)]:
        m = GaussianModel(0, 0, batch).freeze()
        assert m.variances.shape == (0, *batch) and m.rows.shape == (0, 0, *batch)
        for model in [grow(m, "add_vacuum_mode", "v"), *_every_element(_four_modes(batch))]:
            assert model.batch_shape == batch


def test_parameter_of_another_batch_shape_is_rejected():
    m = _four_modes((4,))
    for element in _elements_with(m, np.full(3, 0.5)):
        with pytest.raises(ValueError, match=r"shape \(3,\).*batch shape is \(4,\)"):
            element()


def test_per_source_array_on_a_point_model_is_rejected():
    # a length-S array would otherwise broadcast silently across the S sources
    m = _four_modes(())
    n_sources = m.variances.size
    for element in _elements_with(m, np.full(n_sources, 0.5)):
        with pytest.raises(ValueError, match=rf"shape \({n_sources},\).*batch shape is \(\)"):
            element()


def test_point_form_on_a_batched_model_is_rejected():
    point = _four_modes(())
    batched = _four_modes((4,))
    form = point.x_form("a")
    with pytest.raises(ValueError, match=r"form has batch shape \(\).*batch shape is \(4,\)"):
        batched.variance(form)
    with pytest.raises(ValueError, match=r"form has batch shape \(\).*batch shape is \(4,\)"):
        batched.covariance(batched.x_form("a"), form)
    with pytest.raises(ValueError, match=r"form has batch shape \(\).*batch shape is \(4,\)"):
        grow(batched, "displace_by_form", "d", form, form, 0.5)


def test_batched_form_on_a_point_model_is_rejected():
    point = _four_modes(())
    form = _four_modes((4,)).x_form("a")
    with pytest.raises(ValueError, match=r"form has batch shape \(4,\).*batch shape is \(\)"):
        point.variance(form)
    with pytest.raises(ValueError, match=r"form has batch shape \(4,\).*batch shape is \(\)"):
        grow(point, "displace_by_form", "d", form, form, 0.5)


def test_displacement_by_the_other_quadrature_is_rejected():
    # no element mixes x and y: an x row takes an x form, a y row a y form
    for batch in [(), (4,)]:
        m = _four_modes(batch)
        with pytest.raises(ValueError, match="x_add has coefficients on y sources"):
            grow(m, "displace_by_form", "d", m.y_form("a"), m.y_form("b"), 0.5)
        with pytest.raises(ValueError, match="y_add has coefficients on x sources"):
            grow(m, "displace_by_form", "d", m.x_form("a"), m.x_form("b"), 0.5)
        # a pair's sources are x sum, x diff, y sum, y diff: widths 2 and 3 end inside it
        with pytest.raises(ValueError, match="x_add has coefficients on y sources"):
            grow(m, "displace_by_form", "d", m.x_form("a") + m.y_form("b"), m.y_form("b"), 0.5)
        x_add, y_add = m.x_form("a")[:2], m.y_form("b")[:3]
        fed = grow(m, "displace_by_form", "d", x_add, y_add, 0.5)
        assert fed.x_form("d")[:2].tobytes() == (m.x_form("d")[:2] + x_add * 0.5).tobytes()
        assert fed.y_form("d")[:3].tobytes() == (m.y_form("d")[:3] + y_add * 0.5).tobytes()
        assert fed.x_form("d")[2:].tobytes() == m.x_form("d")[2:].tobytes()


def test_non_finite_covariance_is_overflow_error():
    v = GaussianModel(1, 2).add_vacuum_mode("v").freeze()
    loud = grow(v, "displace_by_form", "v", v.x_form("v"), v.y_form("v"), 1e300)  # variance 1e600
    # exp(2r) = inf, times v's zero coefficient
    squeezed = grow(v, "add_epr_pair", ("a", "b"), 1e308)
    for m in (loud, squeezed):
        with pytest.raises(OverflowError, match="inf or nan"):
            m.variance(m.x_form("v"))


def test_exp_is_libm_exp_and_silently_inf_past_the_float_range():
    below, above = math.nextafter(EXP_MAX, 0.0), math.nextafter(EXP_MAX, math.inf)
    assert exp(below) == math.exp(below) and exp(EXP_MAX) == math.exp(EXP_MAX) < math.inf
    with pytest.raises(OverflowError):
        math.exp(above)
    assert exp(above) == exp(math.inf) == math.inf
    assert math.isnan(exp(math.nan))
    # a batch with one row past the float range: that row is inf, every other keeps its bits
    r = np.array([0.3, 0.5641, above / 2.0, 1.2, EXP_MAX / 2.0])
    for factor in (-2.0, 2.0):
        batch = exp(factor * r)
        assert batch.tolist() == [exp(factor * x) for x in r.tolist()]
    assert exp(2.0 * r)[2] == math.inf and exp(2.0 * r)[4] == math.exp(EXP_MAX)
    # past the float range, +-inf and nan: each entry as alone, and no numpy warning
    edges = np.array([[above, 1e308, math.inf], [-math.inf, math.nan, -1e308]])
    with np.errstate(all="raise"):
        batch = exp(edges)
    expected = [[exp(x) for x in row] for row in edges.tolist()]
    assert batch.shape == edges.shape and np.array_equal(batch, expected, equal_nan=True)
    # a numpy scalar gives a built-in float, as a float does
    for x in (0.5, above):
        assert type(exp(np.float64(x))) is float and exp(np.float64(x)) == exp(x)


def test_form_taken_before_later_loss_keeps_its_variance():
    net = GaussianModel(4, 8)
    m = net.add_epr_pair(("a", "b"), 0.564).add_epr_pair(("c", "d"), 0.587).freeze()
    current = (m.x_form("b") + m.x_form("c")) * (1 / SQRT2)
    y_current = (m.y_form("b") - m.y_form("c")) * (1 / SQRT2)
    later = with_room(m, 0, 4).loss("b", 0.8).loss("d", 0.6).freeze()
    assert later.variances.size > current.size
    assert later.variance(current) == m.variance(current)
    assert later.covariance(current, later.x_form("d")) == pytest.approx(
        0.6 * m.covariance(current, m.x_form("d")), rel=1e-12
    )
    fed = grow(later, "displace_by_form", "a", current, y_current, 1.0)
    n = current.size
    assert np.array_equal(fed.x_form("a")[:n], later.x_form("a")[:n] + current)
    assert np.array_equal(fed.x_form("a")[n:], later.x_form("a")[n:])
    assert np.array_equal(fed.y_form("a")[:n], later.y_form("a")[:n] + y_current)
    assert np.array_equal(fed.y_form("a")[n:], later.y_form("a")[n:])


# -- the in-place build ---------------------------------------------------------------


def test_form_taken_mid_build_is_a_snapshot():
    for scale in ONE_POINT_AND_BATCH:
        net = GaussianModel(3, 8, np.shape(scale))
        net.add_epr_pair(("a", "b"), 0.5 * scale).add_vacuum_mode("v")
        x_a, y_a = net.x_form("a"), net.y_form("a")
        taken, taken_variance = (x_a.copy(), y_a.copy()), net.variance(x_a)
        net.loss("a", 0.6 * scale).beamsplitter(("a", "v"), 0.8)
        m = net.freeze()
        assert x_a.tobytes() == taken[0].tobytes() and y_a.tobytes() == taken[1].tobytes()
        assert not np.array_equal(m.x_form("a")[: len(x_a)], x_a)
        before = GaussianModel(3, 6, np.shape(scale))
        before = before.add_epr_pair(("a", "b"), 0.5 * scale).add_vacuum_mode("v").freeze()
        assert np.array_equal(m.variance(x_a), before.variance(x_a))
        assert np.array_equal(m.variance(x_a), taken_variance)  # while writable, then frozen


def test_builder_freezes_only_at_its_declared_size():
    net = GaussianModel(2, 6).add_epr_pair(("a", "b"), 0.5)
    with pytest.raises(RuntimeError, match=r"filled 2 modes and 4 sources of the \(2, 6\)"):
        net.freeze()
    net.loss("a", 0.9)
    with pytest.raises(RuntimeError, match=r"outgrows the \(2, 6\)"):
        net.loss("b", 0.9)
    with pytest.raises(RuntimeError, match=r"outgrows the \(2, 6\)"):
        net.add_vacuum_mode("v")
    m = net.freeze()
    assert m.rows.shape == (2, 6) and m.variances.shape == (6,)
    with pytest.raises(ValueError, match="read-only"):
        net.beamsplitter(("a", "b"), 0.5)  # frozen, it is the read-only model


def test_frozen_model_refuses_every_element():
    for scale in ONE_POINT_AND_BATCH:
        net = GaussianModel(4, 8, np.shape(scale)).add_epr_pair(("a", "b"), 0.3)
        net.add_epr_pair(("c", "d"), 0.2 * scale)
        m = net.freeze()
        assert m is net and m.freeze() is m
        rows, variances, labels = m.rows.tobytes(), m.variances.tobytes(), dict(m.labels)
        form_a, form_b = m.x_form("a"), m.y_form("b")
        elements = [
            lambda: m.add_vacuum_mode("v"),
            lambda: m.add_epr_pair(("e", "f"), 0.5 * scale),
            lambda: m.beamsplitter(("a", "c"), 0.6 * scale),
            lambda: m.loss("b", 0.7 * scale),
            lambda: m.displace_by_form("d", form_a, form_b, 0.4 * scale),
        ]
        for element in elements:
            # a full room refuses new modes and sources; read-only arrays refuse the rest
            with pytest.raises((RuntimeError, ValueError), match="outgrows|read-only"):
                element()
            assert m.rows.tobytes() == rows and m.variances.tobytes() == variances
            assert m.labels == labels
