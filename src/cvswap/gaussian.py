"""Linear Gaussian optics over explicit noise sources.

Every optical mode is tracked as a pair of quadrature forms (x, y), each a
linear combination of independent zero-mean Gaussian source variables plus a
classical offset. Variances are shot-noise normalized: a vacuum quadrature
has variance 1, so the shot noise limit sits at 1 by construction and a
two-mode squeezed pair stores joint-quadrature variances exp(-2r) / exp(+2r).

Linear elements (beamsplitters, loss channels, squeezed-pair creation,
feedforward displacements) only rewrite the forms, so the variance of any
downstream quadrature combination -- including measured photocurrents fed
forward onto other modes -- is an exact sum over source variances. Nothing
is sampled or truncated here.

Models are value-like: every operation returns a new model and never mutates
the receiver, so instances can be shared read-only across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SourceVariable", "QuadratureForm", "GaussianModel"]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SourceVariable:
    """An independent zero-mean Gaussian noise source with a fixed variance."""

    id: str
    variance: float

    def __post_init__(self) -> None:
        if not self.variance >= 0.0:
            raise ValueError(f"source {self.id!r}: variance must be >= 0, got {self.variance}")


@dataclass(frozen=True)
class QuadratureForm:
    """A quadrature observable as a linear combination of noise sources.

    ``classical_offset`` carries deterministic displacement contributions
    (bright-beam means); it is ignored by every variance evaluation.
    Treat instances as immutable: combining returns new forms.
    """

    coefficients: dict[str, float] = field(default_factory=dict)
    classical_offset: float = 0.0

    def scaled(self, factor: float) -> QuadratureForm:
        if factor == 0.0:
            return QuadratureForm({}, 0.0)
        return QuadratureForm(
            {sid: factor * c for sid, c in self.coefficients.items()},
            factor * self.classical_offset,
        )

    def _combined(self, other: QuadratureForm, sign: float) -> QuadratureForm:
        coeffs = dict(self.coefficients)
        for sid, c in other.coefficients.items():
            new = coeffs.get(sid, 0.0) + sign * c
            if new == 0.0:
                coeffs.pop(sid, None)
            else:
                coeffs[sid] = new
        return QuadratureForm(coeffs, self.classical_offset + sign * other.classical_offset)

    def __add__(self, other: QuadratureForm) -> QuadratureForm:
        return self._combined(other, 1.0)

    def __sub__(self, other: QuadratureForm) -> QuadratureForm:
        return self._combined(other, -1.0)

    def __mul__(self, factor: float) -> QuadratureForm:
        return self.scaled(factor)

    __rmul__ = __mul__

    def __neg__(self) -> QuadratureForm:
        return self.scaled(-1.0)


@dataclass(frozen=True)
class Mode:
    """The (x, y) quadrature pair of one optical mode."""

    x: QuadratureForm
    y: QuadratureForm


class GaussianModel:
    """Registry of noise sources plus the quadrature forms of all live modes.

    Construct with :meth:`empty` and grow with the operation methods; each
    operation returns a fresh model sharing untouched forms with its parent.
    """

    def __init__(
        self,
        sources: dict[str, SourceVariable] | None = None,
        modes: dict[str, Mode] | None = None,
        counter: int = 0,
    ) -> None:
        self.sources: dict[str, SourceVariable] = sources if sources is not None else {}
        self.modes: dict[str, Mode] = modes if modes is not None else {}
        self._counter = counter

    @classmethod
    def empty(cls) -> GaussianModel:
        return cls()

    # -- accessors ---------------------------------------------------------

    @property
    def mode_labels(self) -> tuple[str, ...]:
        return tuple(self.modes)

    def x_form(self, label: str) -> QuadratureForm:
        return self._mode(label).x

    def y_form(self, label: str) -> QuadratureForm:
        return self._mode(label).y

    # -- construction helpers ----------------------------------------------

    def _mode(self, label: str) -> Mode:
        try:
            return self.modes[label]
        except KeyError:
            raise ValueError(f"unknown mode {label!r}") from None

    def _clone(self) -> GaussianModel:
        return GaussianModel(dict(self.sources), dict(self.modes), self._counter)

    def _add_source(self, model: GaussianModel, variance: float, tag: str) -> str:
        sid = f"{tag}:{model._counter}"
        model._counter += 1
        model.sources[sid] = SourceVariable(sid, variance)
        return sid

    def _check_registered(self, form: QuadratureForm) -> None:
        for sid in form.coefficients:
            if sid not in self.sources:
                raise ValueError(f"form references unregistered source {sid!r}")

    # -- operations ----------------------------------------------------------

    def add_vacuum_mode(self, label: str) -> GaussianModel:
        """Attach a fresh vacuum mode: unit variance on both quadratures."""
        if label in self.modes:
            raise ValueError(f"mode label {label!r} already in use")
        out = self._clone()
        sx = self._add_source(out, 1.0, "vac.x")
        sy = self._add_source(out, 1.0, "vac.y")
        out.modes[label] = Mode(QuadratureForm({sx: 1.0}), QuadratureForm({sy: 1.0}))
        return out

    def add_epr_pair(self, labels: tuple[str, str], r: float) -> GaussianModel:
        """Attach a two-mode squeezed pair with squeezing parameter ``r``.

        Convention (amplitudes anticorrelated, phases correlated):
        Var((x1+x2)/sqrt2) = Var((y1-y2)/sqrt2) = exp(-2r), and the two
        orthogonal joint quadratures carry exp(+2r). Four dedicated sources
        hold those joint variances; the single-mode forms are rebuilt from
        them, which makes every cross-covariance downstream exact.
        """
        la, lb = labels
        if r < 0:
            raise ValueError(f"squeezing parameter must be >= 0, got {r}")
        if la in self.modes or lb in self.modes or la == lb:
            raise ValueError(f"mode labels {labels!r} must be fresh and distinct")
        out = self._clone()
        x_sum = self._add_source(out, math.exp(-2.0 * r), "epr.xsum")
        x_diff = self._add_source(out, math.exp(+2.0 * r), "epr.xdiff")
        y_sum = self._add_source(out, math.exp(+2.0 * r), "epr.ysum")
        y_diff = self._add_source(out, math.exp(-2.0 * r), "epr.ydiff")
        k = 1.0 / _SQRT2
        out.modes[la] = Mode(
            QuadratureForm({x_sum: k, x_diff: k}),
            QuadratureForm({y_sum: k, y_diff: k}),
        )
        out.modes[lb] = Mode(
            QuadratureForm({x_sum: k, x_diff: -k}),
            QuadratureForm({y_sum: k, y_diff: -k}),
        )
        return out

    def beamsplitter(self, labels: tuple[str, str], transmittance_amplitude: float) -> GaussianModel:
        """Mix two modes: x1' = t x1 + sqrt(1-t^2) x2, x2' = -sqrt(1-t^2) x1 + t x2.

        Same rotation on the y quadratures. ``t = 1`` is an exact identity
        on the stored forms.
        """
        t = transmittance_amplitude
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"transmittance amplitude must be in [0, 1], got {t}")
        l1, l2 = labels
        m1, m2 = self._mode(l1), self._mode(l2)
        rt = math.sqrt(1.0 - t * t)
        out = self._clone()
        out.modes[l1] = Mode(m1.x * t + m2.x * rt, m1.y * t + m2.y * rt)
        out.modes[l2] = Mode(m1.x * -rt + m2.x * t, m1.y * -rt + m2.y * t)
        return out

    def loss(self, label: str, xi: float) -> GaussianModel:
        """Amplitude transmission ``xi`` with fresh vacuum entering the open port."""
        if not 0.0 <= xi <= 1.0:
            raise ValueError(f"amplitude transmission must be in [0, 1], got {xi}")
        mode = self._mode(label)
        out = self._clone()
        vx = self._add_source(out, 1.0, "vac.x")
        vy = self._add_source(out, 1.0, "vac.y")
        rt = math.sqrt(1.0 - xi * xi)
        out.modes[label] = Mode(
            mode.x * xi + QuadratureForm({vx: 1.0}) * rt,
            mode.y * xi + QuadratureForm({vy: 1.0}) * rt,
        )
        return out

    def displace_by_form(
        self,
        label: str,
        x_add: QuadratureForm,
        y_add: QuadratureForm,
        gain: float,
    ) -> GaussianModel:
        """Add ``gain`` times the given forms to a mode's quadratures.

        This is how classical feedforward of measured photocurrents is
        represented: the photocurrent is itself a form over the model's
        sources, so its correlations with every remaining mode survive
        exactly.
        """
        mode = self._mode(label)
        self._check_registered(x_add)
        self._check_registered(y_add)
        out = self._clone()
        out.modes[label] = Mode(mode.x + x_add * gain, mode.y + y_add * gain)
        return out

    # -- second moments ------------------------------------------------------

    def covariance(self, f1: QuadratureForm, f2: QuadratureForm) -> float:
        self._check_registered(f1)
        self._check_registered(f2)
        if len(f2.coefficients) < len(f1.coefficients):
            f1, f2 = f2, f1
        total = 0.0
        for sid, c1 in f1.coefficients.items():
            c2 = f2.coefficients.get(sid)
            if c2 is not None:
                total += c1 * c2 * self.sources[sid].variance
        return total

    def variance(self, form: QuadratureForm) -> float:
        return self.covariance(form, form)

    def covariance_matrix(self, labels: tuple[str, ...] | list[str]) -> np.ndarray:
        """Symmetric covariance matrix of the listed modes in (x1, y1, x2, y2, ...) order."""
        forms: list[QuadratureForm] = []
        for label in labels:
            mode = self._mode(label)
            forms.extend((mode.x, mode.y))
        n = len(forms)
        sigma = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                sigma[i, j] = sigma[j, i] = self.covariance(forms[i], forms[j])
        return sigma
