"""Linear Gaussian optics as one linear map over independent sources.

Each source is zero-mean Gaussian noise on one quadrature, x or y, and no
element mixes the two (a phase rotation would). A model holds, in creation
order of the sources: ``variances``, shape ``(S, *batch)``, one entry per
source; ``y_sources``, shape ``(S, 1, ...)`` so that it broadcasts over the
batch, true for each y source; and ``rows`` ``(modes, S, *batch)``, one row
per optical mode over every source, with its x coefficients on x sources and
its y coefficients on y sources. ``labels`` maps each mode label to its row.
A quadrature form, from :meth:`GaussianModel.x_form` or ``y_form``, is a row
masked to that quadrature's sources (+0.0 on the others): shape
``(S, *batch)`` over the sources that existed when it was taken, so it stays
valid on every later model of the same network (the sources added since are
zero in it). The draws are innermost in memory. The batch shape is fixed when
the model is created and no element changes it: a parameter is a float or an
array of that shape, a form has exactly those batch axes, and anything else is
a ``ValueError``. One point is batch shape ``()``, and each draw of a batch
gives bit for bit the numbers it gives alone, overflowing to inf as silently.

Variances are shot-noise normalized: a vacuum quadrature has variance 1 and a
two-mode squeezed pair stores joint-quadrature variances exp(-2r) / exp(+2r).
Elements only rewrite rows or append sources, so the covariance of any two
forms, measured photocurrents fed forward included, is the exact sum
``vecdot(f1 * variances, f2)`` over the sources in creation order, or an
``OverflowError`` when that is inf or nan.

A network is grown in place on arrays allocated once at its final size:
``GaussianModel(modes, sources, batch_shape)`` is a writable model with that
room, ``rows.shape[:2]``. Each element writes there, and
:meth:`GaussianModel.freeze` checks that the room is filled (the modes in use
are ``len(labels)``) and makes the arrays read-only; a frozen model refuses
every element.
"""

from __future__ import annotations

import math

import numpy as np

from .params import any_draw, check_unit, exp, finite

__all__ = ["GaussianModel"]

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class GaussianModel:
    """Creation-order source variances and quadrature tags, plus one row per live mode.

    Grow a network on a new model: each element checks its arguments, writes in place
    and returns the model, so elements chain.
    """

    def __init__(self, modes: int, sources: int, batch_shape: tuple[int, ...] = ()) -> None:
        """A writable model with room for ``modes`` modes and ``sources`` sources."""
        self.variances = np.zeros((sources, *batch_shape))
        self.y_sources = np.zeros((sources, *(1,) * len(batch_shape)), bool)
        self.rows = np.zeros((modes, sources, *batch_shape))
        self.labels: dict[str, int] = {}
        self._n_sources = 0

    def freeze(self) -> GaussianModel:
        """This model, read-only from now on; its declared room must be filled."""
        if (len(self.labels), self._n_sources) != self.rows.shape[:2]:
            raise RuntimeError(f"network filled {len(self.labels)} modes and {self._n_sources} "
                               f"sources of the {self.rows.shape[:2]} it declared")
        for array in (self.variances, self.y_sources, self.rows):
            array.setflags(write=False)
        return self

    # -- accessors ---------------------------------------------------------

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.variances.shape[1:]

    def _mode(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise ValueError(f"unknown mode {label!r}") from None

    def x_form(self, label: str) -> np.ndarray:
        return self._form(0, label)

    def y_form(self, label: str) -> np.ndarray:
        return self._form(1, label)

    def _form(self, quadrature: int, label: str) -> np.ndarray:
        """A mode's row on its sources of ``quadrature`` (0 x, 1 y); read-only once frozen."""
        form = self._on(quadrature, self.rows[self._mode(label), : self._n_sources])
        form.setflags(write=self.rows.flags.writeable)
        return form

    def _on(self, quadrature: int, coefficients: np.ndarray) -> np.ndarray:
        """A copy of ``coefficients``, +0.0 on the sources not of ``quadrature``."""
        y = self.y_sources[: len(coefficients)]
        return np.where(y, coefficients, 0.0) if quadrature else np.where(y, 0.0, coefficients)

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

    def _claim(self, n_modes: int, n_sources: int) -> tuple[int, int]:
        """The first mode and source of the next ``n_modes`` modes and ``n_sources``
        sources; the sources are now in use, the modes once labelled."""
        i, s = len(self.labels), self._n_sources
        if i + n_modes > len(self.rows) or s + n_sources > self.rows.shape[1]:
            raise RuntimeError(f"network outgrows the {self.rows.shape[:2]} modes and "
                               f"sources it declared")
        self._n_sources = s + n_sources
        return i, s

    # -- elements ------------------------------------------------------------
    #
    # Every element parameter is a float or an array of the model's batch shape.

    def add_vacuum_mode(self, label: str) -> GaussianModel:
        """Attach a fresh vacuum mode: unit variance on both quadratures."""
        if label in self.labels:
            raise ValueError(f"mode label {label!r} already in use")
        i, s = self._claim(1, 2)
        self.variances[s : s + 2] = self.rows[i, s : s + 2] = 1.0  # x, then y
        self.y_sources[s + 1] = True
        self.labels[label] = i
        return self

    def add_epr_pair(self, labels: tuple[str, str], r) -> GaussianModel:
        """Attach a two-mode squeezed pair with squeezing parameter ``r``.

        Convention (amplitudes anticorrelated, phases correlated):
        Var((x1+x2)/sqrt2) = Var((y1-y2)/sqrt2) = exp(-2r), and the two
        orthogonal joint quadratures carry exp(+2r). Two sources per quadrature
        hold those joint variances; the single-mode forms are rebuilt from them,
        which makes every cross-covariance downstream exact.
        """
        la, lb = labels
        if any_draw(r < 0):
            raise ValueError(f"squeezing parameter must be >= 0, got {r}")
        if la in self.labels or lb in self.labels or la == lb:
            raise ValueError(f"mode labels {labels!r} must be fresh and distinct")
        r = self._param(r)
        if type(r) is float:  # 2 r past the float range is inf, silently for a float alone
            two_r = 2.0 * r
        else:  # an np.float64 or an array warns there
            with np.errstate(over="ignore"):
                two_r = 2.0 * r
        quiet, loud = exp(-two_r), exp(two_r)
        i, s = self._claim(2, 4)
        # sources x sum, x diff, y sum, y diff in creation order; on each
        # quadrature the a row is (sum + diff) / sqrt2 and the b row (sum - diff) / sqrt2
        self.variances[s] = self.variances[s + 3] = quiet
        self.variances[s + 1 : s + 3] = loud
        self.y_sources[s + 2 : s + 4] = True
        self.rows[i : i + 2, s : s + 4] = _SQRT_HALF
        self.rows[i + 1, s + 1 : s + 4 : 2] = -_SQRT_HALF
        self.labels.update({la: i, lb: i + 1})
        return self

    def beamsplitter(self, labels: tuple[str, str], transmittance_amplitude) -> GaussianModel:
        """Mix two modes: x1' = t x1 + sqrt(1-t^2) x2, x2' = -sqrt(1-t^2) x1 + t x2.

        Same rotation on the y quadratures. ``t = 1`` leaves every stored
        coefficient unchanged.
        """
        check_unit("transmittance amplitude", transmittance_amplitude)
        t = self._param(transmittance_amplitude)
        i, j = self._mode(labels[0]), self._mode(labels[1])
        if i == j:  # the map would not be unitary: it would squeeze vacuum
            raise ValueError(f"mode labels {labels!r} must be distinct")
        n = self._n_sources
        rt = np.sqrt(1.0 - t * t)
        first, second = self.rows[i, :n], self.rows[j, :n]
        # both right-hand sides are evaluated before either view is written
        first[...], second[...] = first * t + second * rt, first * -rt + second * t
        return self

    def loss(self, label: str, xi) -> GaussianModel:
        """Amplitude transmission ``xi`` with fresh vacuum entering the open port."""
        check_unit("amplitude transmission", xi)
        xi = self._param(xi)
        i = self._mode(label)
        _, s = self._claim(0, 2)
        self.variances[s : s + 2] = 1.0  # x, then y
        self.y_sources[s + 1] = True
        self.rows[i, :s] *= xi
        self.rows[i, s : s + 2] = np.sqrt(1.0 - xi * xi)
        return self

    def displace_by_form(self, label: str, x_add: np.ndarray, y_add: np.ndarray,
                         gain) -> GaussianModel:
        """Add ``gain`` times the given forms to a mode's quadratures.

        This is how classical feedforward of measured photocurrents is
        represented: the photocurrent is itself a form over the model's
        sources, so its correlations with every remaining mode survive
        exactly. A form taken before later sources were added is zero on
        them. An x form on a y source, or the reverse, is a ``ValueError``.
        """
        i = self._mode(label)
        self._width(x_add), self._width(y_add)
        gain = self._param(gain)
        for quadrature, form in enumerate((x_add, y_add)):
            if np.count_nonzero(self._on(1 - quadrature, form)):
                raise ValueError(f"{'xy'[quadrature]}_add has coefficients on "
                                 f"{'yx'[quadrature]} sources")
        for form in (x_add, y_add):
            self.rows[i, : len(form)] += form * gain
        return self
