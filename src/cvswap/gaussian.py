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
and each draw of a batch gives bit for bit the numbers it gives alone, with
the same silence where a value overflows to inf: no numpy warning.

Variances are shot-noise normalized: a vacuum quadrature has variance 1, so
the shot noise limit sits at 1 by construction and a two-mode squeezed pair
stores joint-quadrature variances exp(-2r) / exp(+2r). Linear elements
(beamsplitters, loss channels, squeezed-pair creation, feedforward
displacements) only rewrite rows or append sources, so the covariance of any
two forms, including measured photocurrents fed forward onto other modes, is
the exact sum ``vecdot(f1 * variances, f2)``, or an ``OverflowError`` when
that is inf or nan. Nothing is sampled or truncated here.

A network is grown in place on arrays allocated once at its final size:
:meth:`GaussianModel.builder` copies a model into a writable one with room
for a given number of rows and sources, each element writes its rows and
columns there, and :meth:`GaussianModel.freeze` checks that the room is
filled and makes both arrays read-only. The model a builder starts from is
not changed. A frozen model refuses every element, since its arrays cannot
be written and its room is full, so it can be shared across workers.
"""

from __future__ import annotations

import math

import numpy as np

from .params import EXP_MAX, any_draw, check_unit, exp, finite

__all__ = ["GaussianModel"]

_SQRT2 = math.sqrt(2.0)

# coefficients of (x_a, y_a, x_b, y_b) on the pair's sources (xsum, xdiff, ysum, ydiff)
_EPR_ROWS = np.array(
    [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]
) / _SQRT2
_VACUUM_ROWS = np.eye(2)


def _exp(factor: float, x):
    """:func:`params.exp` of ``factor * x``, elementwise: libm's ``exp``.

    numpy's ``exp`` differs from libm's in the last ulp on some inputs, and a
    draw must give the same bits inside a batch as alone. A product or an exp
    past the float range is inf in a batch as in one point, silently.
    """
    if not isinstance(x, np.ndarray):
        return exp(factor * float(x))  # a numpy scalar would warn on overflow
    with np.errstate(over="ignore"):
        x = factor * x
    x = np.where(x > EXP_MAX, math.inf, x)  # where math.exp would raise
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


class GaussianModel:
    """Source variances plus the (x, y) coefficient rows of every live mode.

    Start from :meth:`empty`, which fixes the batch shape, and grow a network
    on a :meth:`builder`, a writable copy with room for a given number of rows
    and sources. ``rows[:_n_rows, :_n_sources]`` and ``variances[:_n_sources]``
    are filled; the rest is zero until an element claims it. Each element
    checks its arguments, writes its rows and columns in place and returns the
    model, so elements chain; :meth:`freeze` then makes both arrays read-only.
    A form taken before the freeze is a snapshot that later elements do not
    change; after it, a read-only view.
    """

    def __init__(self, variances: np.ndarray, rows: np.ndarray, labels: dict[str, int],
                 n_rows: int, n_sources: int) -> None:
        self.variances = variances
        self.rows = rows
        self.labels = labels
        self._n_rows, self._n_sources = n_rows, n_sources

    @classmethod
    def empty(cls, batch_shape: tuple[int, ...] = ()) -> GaussianModel:
        return cls(np.empty((0, *batch_shape)), np.empty((0, 0, *batch_shape)), {}, 0, 0).freeze()

    def builder(self, new_rows: int, new_sources: int) -> GaussianModel:
        """A writable copy of this model with room for ``new_rows`` more rows and
        ``new_sources`` more sources, which must all be filled before it freezes."""
        n_rows, n_sources = self._n_rows, self._n_sources
        rows = np.zeros((n_rows + new_rows, n_sources + new_sources, *self.batch_shape))
        variances = np.zeros(rows.shape[1:])
        rows[:n_rows, :n_sources] = self.rows[:n_rows, :n_sources]
        variances[:n_sources] = self.variances[:n_sources]
        return GaussianModel(variances, rows, dict(self.labels), n_rows, n_sources)

    def freeze(self) -> GaussianModel:
        """This model, read-only from now on; its declared room must be filled."""
        if (self._n_rows, self._n_sources) != self.rows.shape[:2]:
            raise RuntimeError(f"network filled {self._n_rows} rows and {self._n_sources} "
                               f"sources of the {self.rows.shape[:2]} it declared")
        self.variances.flags.writeable = False
        self.rows.flags.writeable = False
        return self

    # -- accessors ---------------------------------------------------------

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.variances.shape[1:]

    def _row(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise ValueError(f"unknown mode {label!r}") from None

    def x_form(self, label: str) -> np.ndarray:
        return self._form(self._row(label))

    def y_form(self, label: str) -> np.ndarray:
        return self._form(self._row(label) + 1)

    def _form(self, i: int) -> np.ndarray:
        """Row ``i`` over the sources so far: a view once frozen, a snapshot before."""
        form = self.rows[i, : self._n_sources]
        return form.copy() if form.flags.writeable else form

    def _width(self, form: np.ndarray) -> int:
        if form.shape[1:] != self.batch_shape:
            raise ValueError(f"form has batch shape {form.shape[1:]}, "
                             f"the model's batch shape is {self.batch_shape}")
        if len(form) > self._n_sources:
            raise ValueError(f"form references unregistered source(s): "
                             f"{len(form)} coefficients, {self._n_sources} sources")
        return len(form)

    # -- second moments ------------------------------------------------------

    def covariance(self, f1: np.ndarray, f2: np.ndarray):
        """Covariance of two forms: a float, or an array over the batch; never inf or nan."""
        k = min(self._width(f1), self._width(f2))
        # ``.T`` puts the source axis last (the final ``.T`` restores the batch
        # order). On contiguous rows vecdot runs the same dot product per draw
        # that 1-D ``@`` runs on one point, so a batch agrees with its draws bit
        # for bit (``.sum(0)`` does not, nor does a dot over strided rows)
        with np.errstate(all="ignore"):
            weighted = np.ascontiguousarray((f1[:k] * self.variances[:k]).T)
            return finite("covariance", np.vecdot(weighted, np.ascontiguousarray(f2[:k].T)).T)

    def variance(self, form: np.ndarray):
        return self.covariance(form, form)

    # -- building --------------------------------------------------------------

    def _param(self, value):
        """``value``, checked to be a float or an array over the batch."""
        shape = getattr(value, "shape", ())
        if shape and shape != self.batch_shape:
            raise ValueError(f"element parameter has shape {shape}, "
                             f"the model's batch shape is {self.batch_shape}")
        return value

    def _claim(self, n_rows: int, n_sources: int) -> tuple[int, int]:
        """The first index of the next ``n_rows`` rows and ``n_sources`` sources, now in use."""
        i, s = self._n_rows, self._n_sources
        if i + n_rows > len(self.rows) or s + n_sources > len(self.variances):
            raise RuntimeError(f"network outgrows the {self.rows.shape[:2]} rows and "
                               f"sources it declared")
        self._n_rows, self._n_sources = i + n_rows, s + n_sources
        return i, s

    def _add_modes(self, labels: tuple[str, ...], source_variances: tuple,
                   block: np.ndarray) -> GaussianModel:
        """Claim sources and new modes whose (x, y) rows are ``block`` over those sources."""
        i, s = self._claim(*block.shape)
        for k, value in enumerate(source_variances, s):
            self.variances[k] = value
        # transposed, the batch axes lead and ``block.T`` broadcasts over them
        self.rows[i : i + block.shape[0], s : s + block.shape[1]].T[...] = block.T
        self.labels.update({label: i + 2 * k for k, label in enumerate(labels)})
        return self

    # -- elements ------------------------------------------------------------
    #
    # Every element parameter is a float or an array of the model's batch shape.

    def add_vacuum_mode(self, label: str) -> GaussianModel:
        """Attach a fresh vacuum mode: unit variance on both quadratures."""
        if label in self.labels:
            raise ValueError(f"mode label {label!r} already in use")
        return self._add_modes((label,), (1.0, 1.0), _VACUUM_ROWS)

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
        quiet, loud = _exp(-2.0, r), _exp(+2.0, r)
        return self._add_modes(labels, (quiet, loud, loud, quiet), _EPR_ROWS)

    def beamsplitter(self, labels: tuple[str, str], transmittance_amplitude) -> GaussianModel:
        """Mix two modes: x1' = t x1 + sqrt(1-t^2) x2, x2' = -sqrt(1-t^2) x1 + t x2.

        Same rotation on the y quadratures. ``t = 1`` leaves every stored
        coefficient unchanged.
        """
        check_unit("transmittance amplitude", transmittance_amplitude)
        t = self._param(transmittance_amplitude)
        i, j = self._row(labels[0]), self._row(labels[1])
        n = self._n_sources
        rt = np.sqrt(1.0 - t * t)
        first, second = self.rows[i : i + 2, :n], self.rows[j : j + 2, :n]
        # both right-hand sides are evaluated before either view is written
        first[...], second[...] = first * t + second * rt, first * -rt + second * t
        return self

    def loss(self, label: str, xi) -> GaussianModel:
        """Amplitude transmission ``xi`` with fresh vacuum entering the open port."""
        check_unit("amplitude transmission", xi)
        xi = self._param(xi)
        i = self._row(label)
        _, s = self._claim(0, 2)
        self.variances[s : s + 2] = 1.0
        self.rows[i : i + 2, :s] *= xi
        self.rows[i, s] = self.rows[i + 1, s + 1] = np.sqrt(1.0 - xi * xi)
        return self

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
        self.rows[i, :nx] += x_add * gain
        self.rows[i + 1, :ny] += y_add * gain
        return self
