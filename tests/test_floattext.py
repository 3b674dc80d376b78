"""The vectorized repr kernel against Python's own repr, byte for byte."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvswap import floattext
from cvswap.floattext import repr_bytes


def reference(values, end: bytes = b"") -> list[bytes]:
    return [repr(x).encode() + end for x in np.asarray(values, dtype=float).tolist()]


@settings(max_examples=30)  # few calls on long lists: each call has a fixed numpy cost
@given(st.lists(st.floats(), min_size=1, max_size=40), st.sampled_from([b"", b",", b"\r\n"]))
def test_kernel_is_repr_on_any_floats(values, end):
    # st.floats() draws inf, nan, -0.0 and subnormals too
    assert repr_bytes(np.array(values), end) == reference(values, end)


@pytest.mark.parametrize("value", [
    1e-4, 0.0001, 9999999999999998.0, 1e16, 0.1, 0.5, 2 / 3, 123.0,
    np.nextafter(1e-4, 0), np.nextafter(1e16, 0), 0.09999999999999999, 99.99999999999999,
    2.0**53 + 2, 1e15 + 0.5, 0.3, 1.0, 0.0, -0.0, 5e-324, float("inf"), float("nan"),
    1e15 + 0.25, 1e15 + 0.75,  # halfway between two 17-digit decimals: repr rounds to even
])
def test_kernel_is_repr_at_edges(value):
    assert repr_bytes(np.array([value])) == reference([value])


def test_kernel_is_repr_on_seeded_arrays():
    rng = np.random.default_rng(15)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    lab = rng.uniform(0.3, 3.0, 5_000)
    wide = 10.0 ** rng.uniform(-6.0, 18.0, 5_000)
    short = np.concatenate([np.round(rng.uniform(0.0, 1000.0, 800), d) for d in range(6)])
    for values in (bits, lab, wide, short):
        assert repr_bytes(values, b"\r\n") == reference(values, b"\r\n")
    # below 1e8 no value here falls back to repr; from 2**52 on, the ends of every
    # round-trip interval are integers, and most values do
    small = wide[(wide >= 1e-4) & (wide < 1e8)]
    assert floattext._shortest(lab)[3].all() and floattext._shortest(small)[3].all()


def test_kernel_takes_an_empty_array():
    assert repr_bytes(np.array([]), b",") == []
