"""The numpy PCHIP against scipy's PchipInterpolator, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from qcrlab.pchip import Pchip


@st.composite
def knot_sets(draw):
    n = draw(st.integers(2, 12))
    cols = draw(st.sampled_from([None, 2]))
    x0 = draw(st.floats(-1e3, 1e3))
    steps = draw(st.lists(st.floats(1e-3, 1e2), min_size=n - 1,
                          max_size=n - 1))
    # small integers repeat: flat intervals, zero and sign-changing slopes
    vals = st.one_of(st.integers(-2, 2).map(float), st.floats(-1e6, 1e6))
    size = n * (cols or 1)
    y = draw(st.lists(vals, min_size=size, max_size=size))
    x = x0 + np.cumsum([0.0, *steps])
    return x, np.reshape(y, (n,) if cols is None else (n, cols))


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


# scipy warns where a tiny slope overflows the harmonic mean to a zero slope
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300)
@given(knot_sets(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
@example((np.array([0.0, 1.0]), np.array([2.0, -3.0])), [0.5])
@example((np.array([0.0, 1.0, 3.0, 4.0, 6.0]),
          np.array([0.0, 1.0, -1.0, -1.0, 2.0])), [0.25, 0.6])
@example((np.array([-1.0, 0.5, 2.0, 2.5]),
          np.array([[1.0, 0.0], [1.0, 3.0], [1.0, 7.0], [1.0, 6.0]])),
         [0.1, 0.9])
def test_matches_scipy_pchip_bitwise(knots, fractions):
    x, y = knots
    ours = Pchip(x, y)
    ref = PchipInterpolator(x, y, extrapolate=False)
    np.testing.assert_array_equal(bits(ours.c), bits(ref.c))
    np.testing.assert_array_equal(bits(ours.x), bits(ref.x))

    v = np.concatenate([x[0] + np.array(fractions) * (x[-1] - x[0]), x,
                        np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    inside = (v >= x[0]) & (v <= x[-1])
    np.testing.assert_array_equal(bits(ours(v[inside])),
                                  bits(ref(v[inside])))
    # beyond the end knots the end cubics extrapolate, as scipy's default
    np.testing.assert_array_equal(bits(ours(v)),
                                  bits(PchipInterpolator(x, y)(v)))
