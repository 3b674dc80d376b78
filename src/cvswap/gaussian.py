"""Linear Gaussian optics as one dense linear map over independent sources.

A model holds ``variances``, one entry per independent zero-mean Gaussian
noise source in creation order, and ``rows``, a coefficient array with one
column per source and two rows (x, y) per optical mode; ``labels`` maps each
mode label to the index of its x row (the y row follows it). A quadrature
form is a coefficient array over the sources that existed when it was
taken, so a form stays valid on every later model of the same network: the
sources added since then are zero in it.

Every array carries a leading batch axis over parameter draws:
``variances`` has shape ``(*batch, S)``, ``rows`` ``(*batch, R, S)`` and a
form ``(*batch, S)``. An element parameter is a float or an array of shape
``batch``, and the model's batch shape grows by broadcasting when an element
gets an array. One parameter point is batch shape ``()``, and each draw of a
batch gives bit for bit the numbers it gives alone.

Variances are shot-noise normalized: a vacuum quadrature has variance 1, so
the shot noise limit sits at 1 by construction and a two-mode squeezed pair
stores joint-quadrature variances exp(-2r) / exp(+2r). Linear elements
(beamsplitters, loss channels, squeezed-pair creation, feedforward
displacements) only rewrite rows or append sources, so the covariance of any
two forms, including measured photocurrents fed forward onto other modes, is
the exact sum ``vecdot(f1 * variances, f2)``. Nothing is sampled or
truncated here.

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
    if x.ndim == 0:
        return math.exp(x)
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _broadcast(*batch_shapes: tuple[int, ...]) -> tuple[int, ...]:
    """``np.broadcast_shapes``, without its 1.5 us when at most one shape is nonempty."""
    shapes = set(batch_shapes) - {()}
    if len(shapes) > 1:
        return np.broadcast_shapes(*shapes)
    return shapes.pop() if shapes else ()


def _zeros(shape: tuple[int, ...], batch: tuple[int, ...]) -> np.ndarray:
    """A zero ``(*batch, *shape)`` array with the draws innermost in memory.

    Elementwise work with per-draw parameters then runs in long loops over
    the batch rather than in short ones along a row.
    """
    if not batch:
        return np.zeros(shape)
    n = len(shape)
    return np.zeros(shape + batch).transpose(*range(n, n + len(batch)), *range(n))


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
    def batch_shape(self) -> tuple[int, ...]:
        return self.variances.shape[:-1]

    def x_form(self, label: str) -> np.ndarray:
        return self.rows[..., self._row(label), :]

    def y_form(self, label: str) -> np.ndarray:
        return self.rows[..., self._row(label) + 1, :]

    # -- construction helpers ----------------------------------------------

    def _row(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise ValueError(f"unknown mode {label!r}") from None

    def _width(self, form: np.ndarray) -> int:
        n_sources = self.variances.shape[-1]
        if form.shape[-1] > n_sources:
            raise ValueError(f"form references unregistered source(s): "
                             f"{form.shape[-1]} coefficients, {n_sources} sources")
        return form.shape[-1]

    def _grow(
        self, batch: tuple[int, ...], new_rows: int = 0, new_variances: tuple = ()
    ) -> tuple[np.ndarray, np.ndarray]:
        """Writable copies of ``rows`` and ``variances`` over the model's batch and ``batch``.

        ``new_rows`` zero rows are appended, and one zero source column per
        entry of ``new_variances`` (a float or an array over the batch).
        """
        batch = _broadcast(self.batch_shape, batch)
        n_rows, n_sources = self.rows.shape[-2:]
        width = n_sources + len(new_variances)
        rows = _zeros((n_rows + new_rows, width), batch)
        rows[..., :n_rows, :n_sources] = self.rows
        variances = _zeros((width,), batch)
        variances[..., :n_sources] = self.variances
        for k, value in enumerate(new_variances, n_sources):
            variances[..., k] = value
        return rows, variances

    def _attach(
        self, labels: tuple[str, ...], source_variances: tuple, block: np.ndarray,
        batch: tuple[int, ...] = (),
    ) -> GaussianModel:
        """Append sources and new modes whose (x, y) rows are ``block`` over those sources."""
        rows, variances = self._grow(batch, len(block), source_variances)
        rows[..., -len(block):, -block.shape[1]:] = block
        n_rows = self.rows.shape[-2]
        new = {label: n_rows + 2 * k for k, label in enumerate(labels)}
        return GaussianModel(variances, rows, self.labels | new)

    # -- operations ----------------------------------------------------------
    #
    # Every element parameter is a float or an array over the batch.

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
        r = np.asarray(r, dtype=float)
        quiet, loud = _exp(-2.0 * r), _exp(+2.0 * r)
        return self._attach(labels, (quiet, loud, loud, quiet), _EPR_ROWS, r.shape)

    def beamsplitter(self, labels: tuple[str, str], transmittance_amplitude) -> GaussianModel:
        """Mix two modes: x1' = t x1 + sqrt(1-t^2) x2, x2' = -sqrt(1-t^2) x1 + t x2.

        Same rotation on the y quadratures. ``t = 1`` leaves every stored
        coefficient unchanged.
        """
        check_unit("transmittance amplitude", transmittance_amplitude)
        t = np.asarray(transmittance_amplitude, dtype=float)
        i, j = self._row(labels[0]), self._row(labels[1])
        rows, variances = self._grow(t.shape)
        rt = np.sqrt(1.0 - t * t)[..., None, None]
        t = t[..., None, None]
        first, second = self.rows[..., i : i + 2, :], self.rows[..., j : j + 2, :]
        rows[..., i : i + 2, :] = first * t + second * rt
        rows[..., j : j + 2, :] = first * -rt + second * t
        return GaussianModel(variances, rows, self.labels)

    def loss(self, label: str, xi) -> GaussianModel:
        """Amplitude transmission ``xi`` with fresh vacuum entering the open port."""
        check_unit("amplitude transmission", xi)
        xi = np.asarray(xi, dtype=float)
        i = self._row(label)
        rows, variances = self._grow(xi.shape, 0, (1.0, 1.0))
        rows[..., i : i + 2, :] *= xi[..., None, None]
        vacuum = np.sqrt(1.0 - xi * xi)
        rows[..., i, -2] = vacuum
        rows[..., i + 1, -1] = vacuum
        return GaussianModel(variances, rows, self.labels)

    def displace_by_form(
        self,
        label: str,
        x_add: np.ndarray,
        y_add: np.ndarray,
        gain,
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
        gain = np.asarray(gain, dtype=float)
        rows, variances = self._grow(_broadcast(gain.shape, x_add.shape[:-1], y_add.shape[:-1]))
        gain = gain[..., None]
        rows[..., i, :nx] += x_add * gain
        rows[..., i + 1, :ny] += y_add * gain
        return GaussianModel(variances, rows, self.labels)

    # -- second moments ------------------------------------------------------

    def covariance(self, f1: np.ndarray, f2: np.ndarray):
        """Covariance of two forms: a float, or an array over the batch."""
        k = min(self._width(f1), self._width(f2))
        # on contiguous rows vecdot runs the same dot product per draw that 1-D
        # ``@`` runs on one point, so a batch agrees with its draws bit for bit
        # (``.sum(-1)`` does not, nor does a dot over strided rows)
        value = np.vecdot(np.ascontiguousarray(f1[..., :k] * self.variances[..., :k]),
                          np.ascontiguousarray(f2[..., :k]))
        return float(value) if value.ndim == 0 else value

    def variance(self, form: np.ndarray):
        return self.covariance(form, form)

    def covariance_matrix(self, labels: tuple[str, ...] | list[str]) -> np.ndarray:
        """Covariance matrix of the listed modes in (x1, y1, x2, y2, ...) order."""
        forms = self.rows[..., [self._row(label) + q for label in labels for q in (0, 1)], :]
        return forms * self.variances[..., None, :] @ np.swapaxes(forms, -1, -2)
