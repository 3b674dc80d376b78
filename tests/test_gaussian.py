"""Gaussian core: sources, forms, and linear-optics elements."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cvswap import GaussianModel

SQRT2 = math.sqrt(2.0)


def brute_force_variance(terms):
    """Independent oracle: sum coeff^2 * variance over (coeff, variance) pairs."""
    return sum(c * c * v for c, v in terms)


# -- vacuum modes --------------------------------------------------------------


def test_vacuum_mode_unit_variance():
    m = GaussianModel.empty().add_vacuum_mode("v1")
    assert m.variance(m.x_form("v1")) == 1.0
    assert m.variance(m.y_form("v1")) == 1.0
    assert m.variance(m.x_form("v1")) * m.variance(m.y_form("v1")) == 1.0


def test_vacuum_modes_independent():
    m = GaussianModel.empty().add_vacuum_mode("v1").add_vacuum_mode("v2")
    assert m.covariance(m.x_form("v1"), m.x_form("v2")) == 0.0
    assert m.covariance(m.x_form("v1"), m.y_form("v1")) == 0.0


def test_duplicate_label_rejected():
    m = GaussianModel.empty().add_vacuum_mode("v1")
    with pytest.raises(ValueError, match="already in use"):
        m.add_vacuum_mode("v1")


# -- squeezed pairs ------------------------------------------------------------


def test_epr_vacuum_limit():
    m = GaussianModel.empty().add_epr_pair(("a", "b"), 0.0)
    for label in ("a", "b"):
        assert m.variance(m.x_form(label)) == pytest.approx(1.0, abs=1e-15)
        assert m.variance(m.y_form(label)) == pytest.approx(1.0, abs=1e-15)
    assert m.covariance(m.x_form("a"), m.x_form("b")) == pytest.approx(0.0, abs=1e-15)
    assert m.covariance(m.y_form("a"), m.y_form("b")) == pytest.approx(0.0, abs=1e-15)


def test_epr_joint_variances():
    r = 0.564
    m = GaussianModel.empty().add_epr_pair(("a", "b"), r)
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
    m = GaussianModel.empty().add_epr_pair(("a", "b"), 0.8)
    assert m.covariance(m.x_form("a"), m.x_form("b")) < 0
    assert m.covariance(m.y_form("a"), m.y_form("b")) > 0


def test_epr_single_mode_variance_matches_brute_force():
    r = 0.564
    m = GaussianModel.empty().add_epr_pair(("a", "b"), r)
    # by-hand decomposition: x_a = (s_sum + s_diff)/sqrt2
    expected = brute_force_variance(
        [(1 / SQRT2, math.exp(-2 * r)), (1 / SQRT2, math.exp(2 * r))]
    )
    assert expected == pytest.approx(math.cosh(2 * r), rel=1e-12)
    assert m.variance(m.x_form("a")) == pytest.approx(expected, rel=1e-12)
    assert m.variance(m.x_form("a")) == pytest.approx(1.706, abs=1e-3)


def test_epr_negative_r_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        GaussianModel.empty().add_epr_pair(("a", "b"), -0.1)


@given(st.floats(min_value=0.0, max_value=3.0))
def test_epr_uncertainty_product_exact(r):
    m = GaussianModel.empty().add_epr_pair(("a", "b"), r)
    v_sum = m.variance(m.x_form("a") + m.x_form("b"))
    v_diff = m.variance(m.x_form("a") - m.x_form("b"))
    assert v_sum * v_diff == pytest.approx(4.0, rel=1e-12)


# -- beamsplitter ----------------------------------------------------------------


def test_beamsplitter_full_transmission_is_identity():
    m = GaussianModel.empty().add_epr_pair(("a", "b"), 0.3)
    out = m.beamsplitter(("a", "b"), 1.0)
    assert np.array_equal(out.x_form("a"), m.x_form("a"))
    assert np.array_equal(out.y_form("b"), m.y_form("b"))


def test_beamsplitter_5050_on_vacua():
    m = GaussianModel.empty().add_vacuum_mode("v1").add_vacuum_mode("v2")
    out = m.beamsplitter(("v1", "v2"), 1 / SQRT2)
    assert out.variance(out.x_form("v1")) == pytest.approx(1.0, rel=1e-12)
    assert out.variance(out.x_form("v2")) == pytest.approx(1.0, rel=1e-12)


def test_beamsplitter_extracts_squeezed_port():
    r = 0.564
    m = GaussianModel.empty().add_epr_pair(("a", "b"), r)
    out = m.beamsplitter(("a", "b"), 1 / SQRT2)
    assert out.variance(out.x_form("a")) == pytest.approx(math.exp(-2 * r), rel=1e-12)
    assert out.variance(out.x_form("a")) == pytest.approx(0.3237, abs=2e-4)


def test_beamsplitter_bad_transmittance_rejected():
    m = GaussianModel.empty().add_vacuum_mode("v1").add_vacuum_mode("v2")
    for t in (-0.1, 1.1):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            m.beamsplitter(("v1", "v2"), t)


def test_beamsplitter_unknown_mode_rejected():
    m = GaussianModel.empty().add_vacuum_mode("v1")
    with pytest.raises(ValueError, match="unknown mode"):
        m.beamsplitter(("v1", "nope"), 0.5)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.0, max_value=1.5),
)
def test_beamsplitter_preserves_total_variance(t, ra, rb):
    # independent inputs of unequal variance: cosh(2r) each
    m = (
        GaussianModel.empty()
        .add_epr_pair(("a", "a2"), ra)
        .add_epr_pair(("b", "b2"), rb)
    )
    before = m.variance(m.x_form("a")) + m.variance(m.x_form("b"))
    out = m.beamsplitter(("a", "b"), t)
    after = out.variance(out.x_form("a")) + out.variance(out.x_form("b"))
    assert after == pytest.approx(before, rel=1e-12)


# -- loss -------------------------------------------------------------------------


def test_loss_identity():
    m = GaussianModel.empty().add_epr_pair(("a", "b"), 0.4)
    out = m.loss("a", 1.0)
    n = m.variances.size
    assert out.rows[:, :n].tobytes() == m.rows.tobytes()
    assert not out.rows[:, n:].any()
    assert out.variances.size == n + 2


def test_loss_blackout_gives_vacuum():
    m = GaussianModel.empty().add_epr_pair(("a", "b"), 1.2)
    out = m.loss("a", 0.0)
    assert out.variance(out.x_form("a")) == pytest.approx(1.0, rel=1e-12)


def test_loss_arithmetic_on_antisqueezed_mode():
    # 95% intensity transmission of a mode at exp(+2*0.587) of shot noise
    r = 0.587
    m = GaussianModel.empty().add_epr_pair(("p", "q"), r)
    m = m.beamsplitter(("p", "q"), 1 / SQRT2)  # q now holds the +2r port
    assert m.variance(m.x_form("q")) == pytest.approx(math.exp(2 * r), rel=1e-12)
    out = m.loss("q", math.sqrt(0.95))
    expected = 0.95 * math.exp(2 * r) + 0.05
    assert out.variance(out.x_form("q")) == pytest.approx(expected, rel=1e-12)
    assert out.variance(out.x_form("q")) == pytest.approx(3.1232, abs=1e-3)


def test_loss_bad_transmission_rejected():
    m = GaussianModel.empty().add_vacuum_mode("v1")
    for xi in (-0.5, 1.5):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            m.loss("v1", xi)


# -- displacement ---------------------------------------------------------------


def test_displacement_zero_gain_is_identity():
    m = GaussianModel.empty().add_vacuum_mode("v1").add_vacuum_mode("v2")
    out = m.displace_by_form("v1", m.x_form("v2"), m.y_form("v2"), 0.0)
    assert np.array_equal(out.x_form("v1"), m.x_form("v1"))


def test_displacement_perfect_cancellation():
    m = GaussianModel.empty().add_vacuum_mode("v1")
    out = m.displace_by_form("v1", -m.x_form("v1"), -m.y_form("v1"), 1.0)
    assert out.variance(out.x_form("v1")) == 0.0
    assert out.variance(out.y_form("v1")) == 0.0


def test_displacement_unregistered_source_rejected():
    m = GaussianModel.empty().add_vacuum_mode("v1")
    rogue = np.ones(m.variances.size + 1)
    with pytest.raises(ValueError, match="unregistered source"):
        m.displace_by_form("v1", rogue, rogue, 1.0)


def test_zero_form_displacement_is_bit_identical():
    m = GaussianModel.empty().add_vacuum_mode("v1")
    zero = np.zeros(m.variances.size)
    shifted = m.displace_by_form("v1", zero, zero, 1.0)
    assert shifted.rows.tobytes() == m.rows.tobytes()
    assert shifted.variances.tobytes() == m.variances.tobytes()
    assert shifted.variance(shifted.x_form("v1")) == 1.0


# -- second moments ---------------------------------------------------------------


def test_variance_of_empty_form_is_zero():
    m = GaussianModel.empty()
    assert m.variance(np.zeros(0)) == 0.0


def test_covariance_disjoint_sources_zero():
    m = GaussianModel.empty().add_vacuum_mode("v1").add_vacuum_mode("v2")
    assert m.covariance(m.x_form("v1"), m.x_form("v2")) == 0.0


def test_variance_rejects_unregistered_source():
    m = GaussianModel.empty()
    with pytest.raises(ValueError, match="unregistered source"):
        m.variance(np.ones(1))


def test_joint_variance_of_independent_pair_halves():
    # one beam of each pair, mixed: brute-force assembly gives the cosh average
    r1, r2 = 0.564, 0.587
    m = GaussianModel.empty().add_epr_pair(("a", "b"), r1).add_epr_pair(("c", "d"), r2)
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


def test_covariance_matrix_vacuum_identity():
    m = GaussianModel.empty().add_vacuum_mode("v1")
    assert np.allclose(m.covariance_matrix(["v1"]), np.eye(2))


def test_covariance_matrix_epr_entries():
    r = 0.564
    m = GaussianModel.empty().add_epr_pair(("a", "b"), r)
    sigma = m.covariance_matrix(["a", "b"])
    assert np.allclose(np.diag(sigma), math.cosh(2 * r))
    assert sigma[0, 2] == pytest.approx(-math.sinh(2 * r), rel=1e-12)  # x_a, x_b
    assert sigma[0, 2] == pytest.approx(-1.382, abs=1e-3)
    assert sigma[1, 3] == pytest.approx(+math.sinh(2 * r), rel=1e-12)  # y_a, y_b
    assert np.allclose(sigma, sigma.T)


def _random_network(rng) -> GaussianModel:
    m = GaussianModel.empty()
    m = m.add_epr_pair(("a", "b"), rng.uniform(0, 1.5))
    m = m.add_epr_pair(("c", "d"), rng.uniform(0, 1.5))
    m = m.loss("b", rng.uniform(0.3, 1.0)).loss("c", rng.uniform(0.3, 1.0))
    m = m.beamsplitter(("b", "c"), rng.uniform(0, 1.0))
    m = m.loss("d", rng.uniform(0.3, 1.0))
    return m


def test_covariance_matrix_symmetric_psd_and_physical():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = _random_network(rng)
        sigma = m.covariance_matrix(tuple(m.labels))
        assert np.allclose(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-9
        # uncertainty bound per mode: det of each diagonal 2x2 block >= 1
        for k in range(0, sigma.shape[0], 2):
            block = sigma[k : k + 2, k : k + 2]
            assert np.linalg.det(block) >= 1.0 - 1e-9


def test_disjoint_operations_commute():
    def build(first_pair_first: bool) -> GaussianModel:
        m = GaussianModel.empty()
        steps = [
            lambda mm: mm.add_epr_pair(("a", "b"), 0.7).loss("a", 0.9),
            lambda mm: mm.add_epr_pair(("c", "d"), 0.4).loss("c", 0.8),
        ]
        if not first_pair_first:
            steps.reverse()
        for step in steps:
            m = step(m)
        return m

    m1, m2 = build(True), build(False)
    for label in ("a", "b", "c", "d"):
        assert m1.variance(m1.x_form(label)) == pytest.approx(
            m2.variance(m2.x_form(label)), rel=1e-12
        )
        assert m1.variance(m1.y_form(label)) == pytest.approx(
            m2.variance(m2.y_form(label)), rel=1e-12
        )


def test_model_operations_do_not_mutate_parent():
    m = GaussianModel.empty().add_vacuum_mode("v1")
    before = m.variance(m.x_form("v1"))
    m.loss("v1", 0.5)
    m.displace_by_form("v1", -m.x_form("v1"), -m.y_form("v1"), 1.0)
    assert m.variance(m.x_form("v1")) == before
    assert tuple(m.labels) == ("v1",)


# element parameters are scaled by one float, or by one value per draw of a batch
ONE_POINT_AND_BATCH = [1.0, np.array([1.0, 0.5, 0.0])]


def _every_element(m: GaussianModel, scale=1.0) -> list[GaussianModel]:
    return [
        m.add_vacuum_mode("v"),
        m.add_epr_pair(("e", "f"), 0.5 * scale),
        m.beamsplitter(("a", "c"), 0.6 * scale),
        m.loss("b", 0.7 * scale),
        m.displace_by_form("d", m.x_form("a"), m.y_form("b"), 0.4 * scale),
    ]


def test_model_arrays_are_read_only():
    for scale in ONE_POINT_AND_BATCH:
        m = GaussianModel.empty().add_epr_pair(("a", "b"), 0.3 * scale)
        for model in [m, *_every_element(m.add_epr_pair(("c", "d"), 0.2), scale)]:
            for array in (model.x_form("a"), model.y_form("b"), model.rows, model.variances):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 7.0


def test_elements_leave_parent_arrays_unchanged():
    for scale in ONE_POINT_AND_BATCH:
        m = GaussianModel.empty().add_epr_pair(("a", "b"), 0.3 * scale).add_epr_pair(("c", "d"), 0.9)
        rows, variances, labels = m.rows.copy(), m.variances.copy(), dict(m.labels)
        children = _every_element(m, scale)
        assert not any(np.array_equal(child.rows, rows) for child in children)
        assert m.rows.tobytes() == rows.tobytes()
        assert m.variances.tobytes() == variances.tobytes()
        assert m.labels == labels


def test_form_taken_before_later_loss_keeps_its_variance():
    m = GaussianModel.empty().add_epr_pair(("a", "b"), 0.564).add_epr_pair(("c", "d"), 0.587)
    current = (m.x_form("b") + m.x_form("c")) * (1 / SQRT2)
    later = m.loss("b", 0.8).loss("d", 0.6)
    assert later.variances.size > current.size
    assert later.variance(current) == m.variance(current)
    assert later.covariance(current, later.x_form("d")) == pytest.approx(
        0.6 * m.covariance(current, m.x_form("d")), rel=1e-12
    )
    fed = later.displace_by_form("a", current, current, 1.0)
    n = current.size
    assert np.array_equal(fed.x_form("a")[:n], later.x_form("a")[:n] + current)
    assert np.array_equal(fed.x_form("a")[n:], later.x_form("a")[n:])


def test_covariance_matrix_matches_pairwise_covariance():
    rng = np.random.default_rng(13)
    m = _random_network(rng)
    sigma = m.covariance_matrix(tuple(m.labels))
    forms = [f for label in m.labels for f in (m.x_form(label), m.y_form(label))]
    for i, fi in enumerate(forms):
        for j, fj in enumerate(forms):
            assert sigma[i, j] == pytest.approx(m.covariance(fi, fj), rel=1e-12, abs=1e-15)
