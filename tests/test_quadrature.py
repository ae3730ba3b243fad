"""Adaptive Gauss-Kronrod panel integration."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcrlab.errors import QuadratureError
from qcrlab.quadrature import adaptive_quad


def test_polynomial_exact():
    # GK15 integrates degree <= 22 exactly; check a degree-9 polynomial
    val, err = adaptive_quad(lambda x: 10.0 * x**9, -1.0, 2.0)
    assert val == pytest.approx(2.0**10 - 1.0, rel=1e-13)
    assert err <= 1e-11 * abs(val)


def test_gaussian_against_erf():
    val, _ = adaptive_quad(lambda x: np.exp(-x * x), 0.0, 5.0)
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0 * math.erf(5.0),
                                rel=1e-12)


def test_sharp_feature_resolved_via_breakpoints():
    # A spike of width 1e-6 inside a (0, 1000) range is invisible to the
    # initial panels unless breakpoints bracket it at its own scale.
    w = 1e-6

    def spike(x):
        return np.exp(-((x - 0.5) / w) ** 2)

    missed, _ = adaptive_quad(spike, 0.0, 1000.0)
    assert missed == 0.0
    val, _ = adaptive_quad(spike, 0.0, 1000.0,
                           points=(0.5 - 10.0 * w, 0.5 + 10.0 * w))
    assert val == pytest.approx(math.sqrt(math.pi) * w, rel=1e-9)


def test_integrable_endpoint_singularity():
    # 1/sqrt(x) on (0, 1] = 2; the endpoint itself is never evaluated.
    # Panels cannot shrink below the width floor, so ask for a tolerance
    # the bisection cascade can actually meet.
    val, _ = adaptive_quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                           epsrel=1e-8)
    assert val == pytest.approx(2.0, rel=1e-7)


def test_empty_and_reversed_interval():
    assert adaptive_quad(np.sin, 1.0, 1.0).value == 0.0
    assert adaptive_quad(np.sin, 2.0, 1.0).value == 0.0


def test_nonfinite_integrand_raises():
    def bad(x):
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(QuadratureError):
        adaptive_quad(bad, 0.0, 1.0)


def test_panel_budget_respected():
    # an impossible tolerance on a noisy-ish integrand must terminate
    with pytest.raises(QuadratureError) as exc:
        adaptive_quad(lambda x: np.abs(np.sin(1.0 / (x + 1e-12))),
                      0.0, 1.0, epsrel=1e-16, max_panels=64)
    assert exc.value.achieved is not None


@given(st.floats(-3.0, 3.0), st.floats(0.1, 4.0))
def test_affine_integrand_property(c0, c1):
    val, _ = adaptive_quad(lambda x: c0 + c1 * x, 0.0, 2.0)
    assert val == pytest.approx(2.0 * c0 + 2.0 * c1, rel=1e-11, abs=1e-12)


def _scaled_gaussians(xk):
    # problem k integrates exp(-x^2 / (k + 1))
    x, k = xk
    return np.exp(-x * x / (k + 1.0))


def test_batch_matches_separate_integrals_bitwise():
    a = np.array([0.0, -1.0, 2.0, 0.0])
    b = np.array([5.0, 3.0, 2.0, 1e-3])
    pts = np.array([[1.0, np.nan], [0.0, 0.5], [np.nan, np.nan], [5.0, -1.0]])
    val, err = adaptive_quad(_scaled_gaussians, a, b, points=pts)
    assert val.shape == err.shape == (4,)
    assert val[2] == err[2] == 0.0
    for k in range(4):
        alone = adaptive_quad(lambda x, k=k: _scaled_gaussians((x, k)),
                              a[k], b[k], points=pts[k])
        assert (val[k], err[k]) == alone
    assert val[0] == pytest.approx(math.sqrt(math.pi) / 2.0 * math.erf(5.0),
                                   rel=1e-12)


def test_batch_failure_names_its_problem():
    # problems 0 and 2 converge at once; problem 1 runs out of panels
    def mixed(xk):
        x, k = xk
        return np.where(k == 1, np.abs(np.sin(1.0 / (x + 1e-12))), x * x)

    with pytest.raises(QuadratureError) as batch:
        adaptive_quad(mixed, [1.0, 0.0, 2.0], [2.0, 1.0, 3.0],
                      epsrel=1e-10, max_panels=64)
    with pytest.raises(QuadratureError) as alone:
        adaptive_quad(lambda x: np.abs(np.sin(1.0 / (x + 1e-12))), 0.0, 1.0,
                      epsrel=1e-10, max_panels=64)
    assert batch.value.problem == 1
    assert "[0.0, 1.0]" in str(batch.value)
    assert batch.value.achieved == alone.value.achieved
