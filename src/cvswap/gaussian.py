"""Linear Gaussian optics as one dense linear map over independent sources.

A model holds ``variances``, one entry per independent zero-mean Gaussian
noise source in creation order, and ``rows``, a coefficient array with one
column per source and two rows (x, y) per optical mode; ``labels`` maps each
mode label to the index of its x row (the y row follows it). A quadrature
form is a coefficient array over the sources that existed when it was
taken, so a form stays valid on every later model of the same network: the
sources added since then are zero in it.

Every array carries trailing batch axes over parameter draws: ``variances``
has shape ``(S, *batch)``, ``rows`` ``(R, S, *batch)`` and a form
``(S, *batch)``, so the draws are innermost in memory. The batch shape is
fixed when the model is created and no element changes it: a parameter is a
float or an array of that shape, a form has exactly those batch axes, and
anything else is a ``ValueError``. One parameter point is batch shape ``()``,
and each draw of a batch gives bit for bit the numbers it gives alone.

Variances are shot-noise normalized: a vacuum quadrature has variance 1, so
the shot noise limit sits at 1 by construction and a two-mode squeezed pair
stores joint-quadrature variances exp(-2r) / exp(+2r). Linear elements
(beamsplitters, loss channels, squeezed-pair creation, feedforward
displacements) only rewrite rows or append sources, so the covariance of any
two forms, including measured photocurrents fed forward onto other modes, is
the exact sum ``vecdot(f1 * variances, f2)``, or an ``OverflowError`` when
that is inf or nan. Nothing is sampled or truncated here.

Models are value-like: every operation returns a new model built on copies,
and the arrays a model hands out are read-only, so instances can be shared
across workers.
"""

from __future__ import annotations

import math

import numpy as np

from .params import any_draw, check_unit

__all__ = ["GaussianModel"]

_SQRT2 = math.sqrt(2.0)

# coefficients of (x_a, y_a, x_b, y_b) on the pair's sources (xsum, xdiff, ysum, ydiff)
_EPR_ROWS = np.array(
    [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]
) / _SQRT2
_VACUUM_ROWS = np.eye(2)


def _exp(x):
    """``math.exp`` elementwise.

    numpy's ``exp`` differs from libm's in the last ulp on some inputs, and a
    draw must give the same bits inside a batch as alone.
    """
    if not isinstance(x, np.ndarray):
        return math.exp(x)
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


class GaussianModel:
    """Source variances plus the (x, y) coefficient rows of every live mode.

    Construct with :meth:`empty`, which fixes the batch shape, and grow with the
    operation methods; each returns a fresh model and leaves the receiver unchanged.
    """

    def __init__(self, variances: np.ndarray, rows: np.ndarray, labels: dict[str, int]) -> None:
        variances.flags.writeable = False
        rows.flags.writeable = False
        self.variances = variances
        self.rows = rows
        self.labels = labels

    @classmethod
    def empty(cls, batch_shape: tuple[int, ...] = ()) -> GaussianModel:
        return cls(np.empty((0, *batch_shape)), np.empty((0, 0, *batch_shape)), {})

    # -- accessors ---------------------------------------------------------

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.variances.shape[1:]

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

    def _param(self, value):
        """``value``, checked to be a float or an array over the model's batch."""
        shape = getattr(value, "shape", ())
        if shape and shape != self.batch_shape:
            raise ValueError(f"element parameter has shape {shape}, "
                             f"the model's batch shape is {self.batch_shape}")
        return value

    def _width(self, form: np.ndarray) -> int:
        if form.shape[1:] != self.batch_shape:
            raise ValueError(f"form has batch shape {form.shape[1:]}, "
                             f"the model's batch shape is {self.batch_shape}")
        if len(form) > len(self.variances):
            raise ValueError(f"form references unregistered source(s): "
                             f"{len(form)} coefficients, {len(self.variances)} sources")
        return len(form)

    def _grow(self, new_rows: int = 0, new_variances: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
        """Writable copies of ``rows`` and ``variances`` plus ``new_rows`` zero rows and one
        zero source column per entry of ``new_variances`` (a float or an array over the batch)."""
        n_rows, n_sources = self.rows.shape[:2]
        rows = np.zeros((n_rows + new_rows, n_sources + len(new_variances), *self.batch_shape))
        rows[:n_rows, :n_sources] = self.rows
        variances = np.empty(rows.shape[1:])
        variances[:n_sources] = self.variances
        for k, value in enumerate(new_variances, n_sources):
            variances[k] = value
        return rows, variances

    def _attach(self, labels: tuple[str, ...], source_variances: tuple,
                block: np.ndarray) -> GaussianModel:
        """Append sources and new modes whose (x, y) rows are ``block`` over those sources."""
        rows, variances = self._grow(len(block), source_variances)
        # transposed, the batch axes lead and ``block.T`` broadcasts over them
        rows[-len(block):, -block.shape[1]:].T[...] = block.T
        new = {label: len(self.rows) + 2 * k for k, label in enumerate(labels)}
        return GaussianModel(variances, rows, self.labels | new)

    # -- operations ----------------------------------------------------------
    #
    # Every element parameter is a float or an array of the model's batch shape.

    def add_vacuum_mode(self, label: str) -> GaussianModel:
        """Attach a fresh vacuum mode: unit variance on both quadratures."""
        if label in self.labels:
            raise ValueError(f"mode label {label!r} already in use")
        return self._attach((label,), (1.0, 1.0), _VACUUM_ROWS)

    def add_epr_pair(self, labels: tuple[str, str], r) -> GaussianModel:
        """Attach a two-mode squeezed pair with squeezing parameter ``r``.

        Convention (amplitudes anticorrelated, phases correlated):
        Var((x1+x2)/sqrt2) = Var((y1-y2)/sqrt2) = exp(-2r), and the two
        orthogonal joint quadratures carry exp(+2r). Four dedicated sources
        hold those joint variances; the single-mode forms are rebuilt from
        them, which makes every cross-covariance downstream exact.
        """
        la, lb = labels
        if any_draw(r < 0):
            raise ValueError(f"squeezing parameter must be >= 0, got {r}")
        if la in self.labels or lb in self.labels or la == lb:
            raise ValueError(f"mode labels {labels!r} must be fresh and distinct")
        r = self._param(r)
        quiet, loud = _exp(-2.0 * r), _exp(+2.0 * r)
        return self._attach(labels, (quiet, loud, loud, quiet), _EPR_ROWS)

    def beamsplitter(self, labels: tuple[str, str], transmittance_amplitude) -> GaussianModel:
        """Mix two modes: x1' = t x1 + sqrt(1-t^2) x2, x2' = -sqrt(1-t^2) x1 + t x2.

        Same rotation on the y quadratures. ``t = 1`` leaves every stored
        coefficient unchanged.
        """
        check_unit("transmittance amplitude", transmittance_amplitude)
        t = self._param(transmittance_amplitude)
        i, j = self._row(labels[0]), self._row(labels[1])
        rows, variances = self._grow()
        rt = np.sqrt(1.0 - t * t)
        first, second = rows[i : i + 2], rows[j : j + 2]
        rows[i : i + 2], rows[j : j + 2] = first * t + second * rt, first * -rt + second * t
        return GaussianModel(variances, rows, self.labels)

    def loss(self, label: str, xi) -> GaussianModel:
        """Amplitude transmission ``xi`` with fresh vacuum entering the open port."""
        check_unit("amplitude transmission", xi)
        xi = self._param(xi)
        i = self._row(label)
        rows, variances = self._grow(0, (1.0, 1.0))
        rows[i : i + 2] *= xi
        rows[i, -2] = rows[i + 1, -1] = np.sqrt(1.0 - xi * xi)
        return GaussianModel(variances, rows, self.labels)

    def displace_by_form(self, label: str, x_add: np.ndarray, y_add: np.ndarray,
                         gain) -> GaussianModel:
        """Add ``gain`` times the given forms to a mode's quadratures.

        This is how classical feedforward of measured photocurrents is
        represented: the photocurrent is itself a form over the model's
        sources, so its correlations with every remaining mode survive
        exactly. A form taken before later sources were added is zero on
        them.
        """
        i = self._row(label)
        nx, ny = self._width(x_add), self._width(y_add)
        gain = self._param(gain)
        rows, variances = self._grow()
        rows[i, :nx] += x_add * gain
        rows[i + 1, :ny] += y_add * gain
        return GaussianModel(variances, rows, self.labels)

    # -- second moments ------------------------------------------------------

    def covariance(self, f1: np.ndarray, f2: np.ndarray):
        """Covariance of two forms: a float, or an array over the batch; never inf or nan."""
        k = min(self._width(f1), self._width(f2))
        # ``.T`` puts the source axis last (the final ``.T`` restores the batch
        # order). On contiguous rows vecdot runs the same dot product per draw
        # that 1-D ``@`` runs on one point, so a batch agrees with its draws bit
        # for bit (``.sum(0)`` does not, nor does a dot over strided rows)
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.vecdot(np.ascontiguousarray((f1[:k] * self.variances[:k]).T),
                              np.ascontiguousarray(f2[:k].T)).T
        if not np.isfinite(value).all():
            raise OverflowError("covariance is inf or nan")
        return float(value) if value.ndim == 0 else value

    def variance(self, form: np.ndarray):
        return self.covariance(form, form)

    def covariance_matrix(self, labels: tuple[str, ...] | list[str]) -> np.ndarray:
        """Covariance matrix of L listed modes in (x1, y1, x2, ...) order: ``(2L, 2L, *batch)``."""
        forms = self.rows[[self._row(label) + q for label in labels for q in (0, 1)]]
        weighted = np.ascontiguousarray(np.moveaxis(forms * self.variances, 1, -1))
        forms = np.ascontiguousarray(np.moveaxis(forms, 1, -1))
        return np.vecdot(weighted[:, None], forms[None, :])
