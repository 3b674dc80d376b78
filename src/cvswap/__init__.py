"""Gaussian-optics bench for continuous-variable entanglement swapping.

Predicts, derives from first principles, and stochastically emulates the
joint quadrature variances of two optical modes entangled by swapping, under
transmission losses, detector efficiency, and classical feedforward gain.
"""

from .analytics import (
    db_from_linear,
    duan_verdict,
    electronic_gain,
    enl_correct,
    optimal_gain,
    preserved_fraction,
    r_from_db,
    sweep_surface,
    variance_formula,
)
from .config import ConfigError, ConfigFile
from .gaussian import GaussianModel
from .montecarlo import estimate_variance, render_trace, write_trace_csv
from .params import ExperimentParams, GainSpec, VarianceReport
from .swap import build_network, run_experiment, snl_reference

__version__ = "0.5.0"
