"""Radiative frequency pull of a resonator from its coupling spectrum.

The dispersive counterpart of an environment-induced decay rate: given
the coupling rate gamma(w) tabulated over frequency, the mode frequency
shifts by

    w_L = -PV integral_0^inf (dw/2pi) [ gamma(w)/(w - w_r)
                                      + gamma(w)/(w + w_r)
                                      - 2 gamma(w)/w ]

The three terms combine to gamma(w) * 2 w_r^2 / (w (w^2 - w_r^2)), so a
strictly Ohmic spectrum gamma = c*w pulls nothing, and only deviations
from linearity shift the mode.  The principal value is taken by residue
subtraction: the pole term at w_r has a closed form, and the regular
remainder is one quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GridError, QuadratureError
from .pchip import Pchip
from .quadrature import adaptive_quad
from .spectrum import SpectralDensity

# Relative tolerance of the principal-value quadrature of lamb_shift.
SHIFT_EPSREL = 1e-11


@dataclass(frozen=True)
class LambResult:
    """Frequency pull ``shift`` (rad/s) and its quadrature error estimate.

    ``abs_err`` excludes two larger errors.  The PCHIP table's: at 1201
    knots on [w_r/50, 50 w_r], against 19201 knots, it is 2.5e-10 to
    3.2e-8 of the shift at most biases of ``configs/lamb_shift.json``, and
    4.4e-7 at bias 0.95, where the shift crosses zero.  And the window's,
    which dominates: ``lamb_shift`` continues gamma(w) linearly above
    50 w_r, where it is not yet linear (N(E) ~ E - delta^2/(2E)), and holds
    gamma(w)/w below w_r/50.  On ``configs/lamb_shift.json`` that puts the
    shift +596 to +630 Hz off, 2.9e-4 to 2.3e-3 relative, and 1.5e-2 at
    bias 0.95; ``bench/ref/lamb_shift.csv`` carries the same offset.
    """

    shift: float
    abs_err: float


def pv_integral(g: Callable[[np.ndarray], np.ndarray], pole: float,
                lo: float, hi: float, *, epsrel: float = 1e-11,
                points: Sequence[float] = ()) -> tuple[float, float]:
    """Cauchy principal value of ``g(w)/(w - pole)`` over [lo, hi].

    ``g`` is the regular factor: vectorised, and finite and smooth near
    the pole.  The pole term ``g(pole)/(w - pole)`` has the principal
    value ``g(pole)*log((hi - pole)/(pole - lo))``; the regular rest is
    one batched quadrature with the two sides of the pole as separate
    problems, since they may cancel (the QUADPACK QAWC idea).

    ``points`` seeds panel breakpoints at sharp but integrable features
    (knots, band edges); those within ``1e-10*max(|lo|, |hi|)`` of the
    pole are dropped, as the Kronrod nodes of so thin a panel round onto
    it.  Returns the value and the quadrature error estimate.
    """
    if not lo < pole < hi:
        raise ValueError("pole must lie strictly inside the interval")
    with np.errstate(divide="ignore", invalid="ignore"):
        g0 = float(g(np.array([pole]))[0])
    if not math.isfinite(g0):
        raise ValueError("g must be finite at the pole: pass the regular "
                         "factor g, not g/(w - pole)")
    pts = np.asarray(points, dtype=float)
    pts = pts[np.abs(pts - pole) > 1e-10 * max(abs(lo), abs(hi))]
    a, b = np.array([lo, pole]), np.array([pole, hi])
    # each side also integrates sign*|g0|, taken off below: where g hardly
    # varies, the remainder alone would ask for a relative tolerance under
    # the rounding of g(w) - g0.  A side whose remainder is near -|g0|
    # cancels that lift and stalls alike; it is retried with sign -1.
    sign = np.ones(2)
    while True:
        lift = sign * abs(g0) / (b - a)
        try:
            val, err = adaptive_quad(
                lambda x: (g(x[0]) - g0) / (x[0] - pole) + lift[x[1]],
                a, b, points=pts, epsrel=epsrel)
            break
        except QuadratureError as exc:
            if sign[exc.problem] < 0:
                raise
            sign[exc.problem] = -1.0
    singular = g0 * math.log((hi - pole) / (pole - lo))
    return (float(val.sum() - sign.sum() * abs(g0)) + singular,
            float(err.sum()))


def _rate_over_omega(s: SpectralDensity) -> Callable[[np.ndarray], np.ndarray]:
    """gamma(w)/w: PCHIP of the table, continued linearly in w off the grid."""
    interp = Pchip(s.grid, s.values)
    lo, hi = s.grid[0], s.grid[-1]
    slope_lo = s.values[0] / lo
    slope_hi = s.values[-1] / hi

    def ratio(w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        out = np.full(w.shape, slope_lo)
        inside = (w >= lo) & (w <= hi)
        out[inside] = interp(w[inside]) / w[inside]
        out[w > hi] = slope_hi
        return out

    return ratio


def lamb_shift(s: SpectralDensity, omega_r: float) -> LambResult:
    """Frequency pull (rad/s) of a mode at ``omega_r`` from spectrum ``s``.

    The grid must cover [omega_r/50, 50*omega_r], up to a few ulps of
    rounding in its ends.  Beyond the tabulated window the spectrum is
    continued linearly in frequency (Ohmic asymptote), whose
    contribution above the grid is added in closed form.  The result
    still depends on the window: the continuation is not exact there,
    and on ``configs/lamb_shift.json`` the [omega_r/50, 50*omega_r]
    window puts the shift +596 to +630 Hz off, the dominant error (see
    :class:`LambResult`).
    """
    if not omega_r > 0:
        raise ValueError("mode frequency must be positive")
    # a grid built as geomspace(0.02*w, 50*w) can miss w/50 by an ulp
    slack = 4.0 * np.finfo(float).eps
    if (s.grid[0] > omega_r / 50.0 * (1.0 + slack)
            or s.grid[-1] < 50.0 * omega_r * (1.0 - slack)):
        raise GridError("spectrum grid must span [omega_r/50, 50*omega_r]")

    ratio = _rate_over_omega(s)
    scale = omega_r * omega_r / math.pi

    top = float(s.grid[-1])
    val, err = pv_integral(lambda w: scale * ratio(w) / (w + omega_r),
                           omega_r, 0.0, top, epsrel=SHIFT_EPSREL,
                           points=s.grid[:-1])
    slope_hi = s.values[-1] / top
    tail = (slope_hi * omega_r / (2.0 * math.pi)
            * math.log((top + omega_r) / (top - omega_r)))
    return LambResult(-(val + tail), err)


def default_grid(omega_r: float, points: int = 4001,
                 lo_factor: float = 0.01, hi_factor: float = 100.0) -> np.ndarray:
    """Log-spaced tabulation grid centred on ``omega_r``."""
    if points < 2:
        raise GridError("grid needs at least two points")
    return np.geomspace(lo_factor * omega_r, hi_factor * omega_r, points)
