"""Shared fixtures: the reference bench parameters used across the suite, and
a one-element growth helper for tests of the Gaussian model."""

from __future__ import annotations

import pytest

from cvswap import ExperimentParams, GainSpec, GaussianModel

# Reference operating point of the bench: measured intensity efficiencies,
# mirror reflectivity, and the two squeezing parameters inferred from the
# 4.9 dB / 5.1 dB source correlations.
LAB_INTENSITIES = dict(
    xi1_sq=0.970,
    xi2_sq=0.950,
    xi3_sq=0.966,
    xi4_sq=0.968,
    eta_sq=0.90,
    mirror_R=0.98,
)
LAB_R1 = 0.564
LAB_R2 = 0.587


def make_lab_params(**overrides) -> ExperimentParams:
    kwargs = dict(r1=LAB_R1, r2=LAB_R2, **LAB_INTENSITIES)
    kwargs.update(overrides)
    return ExperimentParams.from_intensities(**kwargs)


@pytest.fixture
def lab_params() -> ExperimentParams:
    """Reference parameters with optimal feedforward gain."""
    return make_lab_params()


@pytest.fixture
def perfect_params() -> ExperimentParams:
    """Same squeezing, lossless optics and detectors, same coupling mirror."""
    return make_lab_params(
        xi1_sq=1.0, xi2_sq=1.0, xi3_sq=1.0, xi4_sq=1.0, eta_sq=1.0
    )


@pytest.fixture
def lab_config_text() -> str:
    return """\
squeezing:
  r1: 0.564
  r2: 0.587
efficiencies:
  xi1_sq: 0.970
  xi2_sq: 0.950
  xi3_sq: 0.966
  xi4_sq: 0.968
  eta_sq: 0.90
mirror_R: 0.98
gain:
  mode: optimal
enl_db: 11.3
"""


@pytest.fixture
def fixed_gain() -> GainSpec:
    return GainSpec("fixed", 0.741)


# (modes, sources) each element adds to a network
ELEMENT_ROOM = {
    "add_vacuum_mode": (1, 2),
    "add_epr_pair": (2, 4),
    "beamsplitter": (0, 0),
    "loss": (0, 2),
    "displace_by_form": (0, 0),
}


def with_room(model: GaussianModel, new_modes: int, new_sources: int) -> GaussianModel:
    """A writable copy of ``model`` with room for ``new_modes`` more modes and
    ``new_sources`` more sources, which must all be filled before it freezes."""
    n, s = len(model.labels), model._n_sources
    net = GaussianModel(n + new_modes, s + new_sources, model.batch_shape)
    net.variances[:s], net.y_sources[:s] = model.variances[:s], model.y_sources[:s]
    net.rows[:n, :s] = model.rows[:n, :s]
    net.labels, net._n_sources = dict(model.labels), s
    return net


def grow(model: GaussianModel, element: str, *args) -> GaussianModel:
    """A new model: ``model`` plus one element, on a copy with exactly its room."""
    return getattr(with_room(model, *ELEMENT_ROOM[element]), element)(*args).freeze()
