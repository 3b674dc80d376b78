"""Fixed reference kernel: how fast this host runs code like cvswap's right now.

On a shared host other tenants' load slows everything in a run by up to
1.8x, for spells from under a second to minutes (it acts inside the core:
CPU time grows with wall time). The benchmark runs this kernel interleaved
with the program's operations and divides the program's times by the
kernel's, which cancels that common slow-down. The kernel is the
benchmark's own code and never imports cvswap, so a change to the program
moves only the numerator.

One unit runs, and times apart, the three kinds of work the program does:
pure-Python float arithmetic through attribute access and calls
(``analytics``, ``cli``, ``config``), small dense matrix products
(``gaussian``, ``swap``) and vectorised Gaussian sampling (``montecarlo``),
so that a workload can be scaled by the parts that resemble it. A unit
takes 4 to 6 ms on a 2.1 GHz Xeon, depending on the load.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Nominal time of each part of a unit. Gated times are reported as they
# would read on a host where the parts take exactly this long:
# raw time * scale(...).
NOMINAL_S = {"python": 0.0015, "matrix": 0.001, "sampling": 0.0025}
PARTS = tuple(NOMINAL_S)

_MATRIX = np.eye(8) * 0.9 + 0.01


class _Point:
    __slots__ = ("r1", "r2", "xi", "eta")

    def __init__(self):
        self.r1, self.r2, self.xi, self.eta = 0.5, 0.6, 0.97, 0.95


def _variance(p: _Point, g: float) -> float:
    v = 0.25 * (p.xi - g * p.eta) ** 2 * math.exp(2.0 * p.r1)
    v += 0.25 * (p.xi + g * p.eta) ** 2 * math.exp(-2.0 * p.r2)
    return v + math.sqrt(p.eta)


def unit() -> dict[str, float]:
    """Run one unit of the kernel; return the wall time of each part in seconds."""
    start = perf_counter()
    point, total = _Point(), 0.0
    for i in range(3000):
        total += _variance(point, i * 1e-6)
    python_end = perf_counter()
    m = _MATRIX
    for _ in range(300):
        m = (_MATRIX @ m) * 0.99 + _MATRIX.T
    matrix_end = perf_counter()
    x = np.random.default_rng(7).standard_normal(100_000)
    total += float((x * x).mean()) + float(m[0, 0])
    end = perf_counter()
    if not math.isfinite(total):
        raise RuntimeError("reference kernel produced a non-finite value")
    return {"python": python_end - start, "matrix": matrix_end - python_end,
            "sampling": end - matrix_end}


def run_for(seconds: float) -> list[dict[str, float]]:
    """Units run back to back until ``seconds`` have passed (at least one); their part times."""
    units = [unit()]
    while sum(sum(u.values()) for u in units) < seconds:
        units.append(unit())
    return units


def scale(units: list[dict[str, float]], parts: tuple[str, ...] = PARTS) -> float:
    """Nominal over measured time of ``parts`` in ``units``: >1 when the host ran fast."""
    measured = sum(u[part] for u in units for part in parts)
    return len(units) * sum(NOMINAL_S[part] for part in parts) / measured
