"""Linear Gaussian optics as one dense linear map over independent sources.

A model holds ``variances``, one entry per independent zero-mean Gaussian
noise source in creation order, and ``rows``, a coefficient array with one
column per source and two rows (x, y) per optical mode; ``labels`` maps each
mode label to the index of its x row (the y row follows it). A quadrature
form is a 1-D coefficient array over the sources that existed when it was
taken, so a form stays valid on every later model of the same network: the
sources added since then are zero in it.

Variances are shot-noise normalized: a vacuum quadrature has variance 1, so
the shot noise limit sits at 1 by construction and a two-mode squeezed pair
stores joint-quadrature variances exp(-2r) / exp(+2r). Linear elements
(beamsplitters, loss channels, squeezed-pair creation, feedforward
displacements) only rewrite rows or append sources, so the covariance of any
two forms, including measured photocurrents fed forward onto other modes, is
the exact sum ``f1 * variances @ f2``. Nothing is sampled or truncated here.

Models are value-like: every operation returns a new model built on copies,
and the arrays a model hands out are read-only, so instances can be shared
across workers.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GaussianModel"]

_SQRT2 = math.sqrt(2.0)

# coefficients of (x_a, y_a, x_b, y_b) on the pair's sources (xsum, xdiff, ysum, ydiff)
_EPR_ROWS = np.array(
    [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]
) / _SQRT2


class GaussianModel:
    """Source variances plus the (x, y) coefficient rows of every live mode.

    Construct with :meth:`empty` and grow with the operation methods; each
    operation returns a fresh model and leaves the receiver unchanged.
    """

    def __init__(self, variances: np.ndarray, rows: np.ndarray, labels: dict[str, int]) -> None:
        variances.flags.writeable = False
        rows.flags.writeable = False
        self.variances = variances
        self.rows = rows
        self.labels = labels

    @classmethod
    def empty(cls) -> GaussianModel:
        return cls(np.empty(0), np.empty((0, 0)), {})

    # -- accessors ---------------------------------------------------------

    @property
    def mode_labels(self) -> tuple[str, ...]:
        return tuple(self.labels)

    def x_form(self, label: str) -> np.ndarray:
        return self.rows[self._row(label)]

    def y_form(self, label: str) -> np.ndarray:
        return self.rows[self._row(label) + 1]

    # -- construction helpers ----------------------------------------------

    def _row(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise ValueError(f"unknown mode {label!r}") from None

    def _width(self, form: np.ndarray) -> int:
        if len(form) > len(self.variances):
            raise ValueError(f"form references unregistered source(s): "
                             f"{len(form)} coefficients, {len(self.variances)} sources")
        return len(form)

    def _attach(
        self, labels: tuple[str, ...], source_variances: list[float], block: np.ndarray
    ) -> GaussianModel:
        """Append sources and new modes whose (x, y) rows are ``block`` over those sources."""
        n_rows, n_sources = self.rows.shape
        rows = np.zeros((n_rows + len(block), n_sources + len(source_variances)))
        rows[:n_rows, :n_sources] = self.rows
        rows[n_rows:, n_sources:] = block
        new = {label: n_rows + 2 * k for k, label in enumerate(labels)}
        variances = np.concatenate((self.variances, source_variances))
        return GaussianModel(variances, rows, self.labels | new)

    # -- operations ----------------------------------------------------------

    def add_vacuum_mode(self, label: str) -> GaussianModel:
        """Attach a fresh vacuum mode: unit variance on both quadratures."""
        if label in self.labels:
            raise ValueError(f"mode label {label!r} already in use")
        return self._attach((label,), [1.0, 1.0], np.eye(2))

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
        if la in self.labels or lb in self.labels or la == lb:
            raise ValueError(f"mode labels {labels!r} must be fresh and distinct")
        quiet, loud = math.exp(-2.0 * r), math.exp(+2.0 * r)
        return self._attach(labels, [quiet, loud, loud, quiet], _EPR_ROWS)

    def beamsplitter(self, labels: tuple[str, str], transmittance_amplitude: float) -> GaussianModel:
        """Mix two modes: x1' = t x1 + sqrt(1-t^2) x2, x2' = -sqrt(1-t^2) x1 + t x2.

        Same rotation on the y quadratures. ``t = 1`` leaves every stored
        coefficient unchanged.
        """
        t = transmittance_amplitude
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"transmittance amplitude must be in [0, 1], got {t}")
        i, j = self._row(labels[0]), self._row(labels[1])
        rt = math.sqrt(1.0 - t * t)
        first, second = self.rows[i : i + 2], self.rows[j : j + 2]
        rows = self.rows.copy()
        rows[i : i + 2] = first * t + second * rt
        rows[j : j + 2] = first * -rt + second * t
        return GaussianModel(self.variances, rows, self.labels)

    def loss(self, label: str, xi: float) -> GaussianModel:
        """Amplitude transmission ``xi`` with fresh vacuum entering the open port."""
        if not 0.0 <= xi <= 1.0:
            raise ValueError(f"amplitude transmission must be in [0, 1], got {xi}")
        i = self._row(label)
        rows = np.zeros((len(self.rows), len(self.variances) + 2))
        rows[:, :-2] = self.rows
        rows[i : i + 2] *= xi
        rows[[i, i + 1], [-2, -1]] = math.sqrt(1.0 - xi * xi)
        return GaussianModel(np.concatenate((self.variances, [1.0, 1.0])), rows, self.labels)

    def displace_by_form(
        self,
        label: str,
        x_add: np.ndarray,
        y_add: np.ndarray,
        gain: float,
    ) -> GaussianModel:
        """Add ``gain`` times the given forms to a mode's quadratures.

        This is how classical feedforward of measured photocurrents is
        represented: the photocurrent is itself a form over the model's
        sources, so its correlations with every remaining mode survive
        exactly. A form taken before later sources were added is zero on
        them.
        """
        i = self._row(label)
        nx, ny = self._width(x_add), self._width(y_add)
        rows = self.rows.copy()
        rows[i, :nx] += x_add * gain
        rows[i + 1, :ny] += y_add * gain
        return GaussianModel(self.variances, rows, self.labels)

    # -- second moments ------------------------------------------------------

    def covariance(self, f1: np.ndarray, f2: np.ndarray) -> float:
        k = min(self._width(f1), self._width(f2))
        return float(f1[:k] * self.variances[:k] @ f2[:k])

    def variance(self, form: np.ndarray) -> float:
        return self.covariance(form, form)

    def covariance_matrix(self, labels: tuple[str, ...] | list[str]) -> np.ndarray:
        """Covariance matrix of the listed modes in (x1, y1, x2, y2, ...) order."""
        forms = self.rows[[self._row(label) + q for label in labels for q in (0, 1)]]
        return forms * self.variances @ forms.T
