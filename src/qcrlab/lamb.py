"""Radiative frequency pull of a resonator from its coupling spectrum.

The dispersive counterpart of an environment-induced decay rate: given
the coupling rate gamma(w) tabulated over frequency, the mode frequency
shifts by

    w_L = -PV integral_0^inf (dw/2pi) [ gamma(w)/(w - w_r)
                                      + gamma(w)/(w + w_r)
                                      - 2 gamma(w)/w ]

The three terms combine to gamma(w) * 2 w_r^2 / (w (w^2 - w_r^2)), so a
strictly Ohmic spectrum gamma = c*w pulls nothing, and only deviations
from linearity shift the mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridError
from .pchip import Pchip
from .quadrature import adaptive_quad
from .spectrum import SpectralDensity


@dataclass(frozen=True)
class LambResult:
    shift: float
    abs_err: float


def pv_integral(f: Callable[[np.ndarray], np.ndarray], pole: float,
                lo: float, hi: float, *, epsrel: float = 1e-11,
                levels: int = 9,
                points: tuple[float, ...] = ()) -> tuple[float, float]:
    """Cauchy principal value of a simple-pole integrand over [lo, hi].

    Symmetric neighbourhoods of half-width ``eps_k = eps_0 / 2^k`` are
    excised around the pole, which cancels the odd singular part exactly;
    the remaining excision bias is linear (then cubic, quintic, ...) in
    ``eps`` and is removed by Richardson extrapolation over the levels.

    ``f`` must be vectorised and finite except for the simple pole.
    ``points`` seeds panel breakpoints away from the pole so that sharp
    but integrable features (interpolation knots, band edges) cannot slip
    between quadrature nodes.  Returns the extrapolated value and an
    error estimate.
    """
    if not lo < pole < hi:
        raise ValueError("pole must lie strictly inside the interval")
    if levels < 2:
        raise ValueError("need at least two excision levels")
    eps0 = min(1e-2 * abs(pole), 0.45 * (pole - lo), 0.45 * (hi - pole))
    if not eps0 > 0:
        raise ValueError("degenerate interval around the pole")

    # outer pieces once, then shrink the excision by cheap annuli
    pts_lo = [pole - eps0 * 4.0**i for i in range(1, 12)]
    pts_hi = [pole + eps0 * 4.0**i for i in range(1, 12)]
    pts_lo += [p for p in points if p < pole - eps0]
    pts_hi += [p for p in points if p > pole + eps0]
    left, el = adaptive_quad(f, lo, pole - eps0,
                             points=[p for p in pts_lo if lo < p],
                             epsrel=epsrel)
    right, er = adaptive_quad(f, pole + eps0, hi,
                              points=[p for p in pts_hi if p < hi],
                              epsrel=epsrel)
    quad_err = el + er
    seq = [left + right]
    eps = eps0
    for _ in range(1, levels):
        half = 0.5 * eps
        la, ea = adaptive_quad(f, pole - eps, pole - half, epsrel=epsrel)
        ra, eb = adaptive_quad(f, pole + half, pole + eps, epsrel=epsrel)
        seq.append(seq[-1] + la + ra)
        quad_err += ea + eb
        eps = half

    # Richardson table; the excision error expands in odd powers of eps
    rows = [np.array(seq, dtype=float)]
    for j in range(1, min(5, levels)):
        prev = rows[-1]
        fac = 2.0 ** (2 * j - 1) - 1.0
        rows.append(prev[1:] + (prev[1:] - prev[:-1]) / fac)
    value = float(rows[-1][-1])
    extrap_err = abs(float(rows[-1][-1] - rows[-2][-1]))
    return value, extrap_err + quad_err


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


def lamb_shift(s: SpectralDensity, omega_r: float, *,
               epsrel: float = 1e-11) -> LambResult:
    """Frequency pull (rad/s) of a mode at ``omega_r`` from spectrum ``s``.

    The grid must cover [omega_r/50, 50*omega_r], up to a few ulps of
    rounding in its ends.  Beyond the tabulated window the spectrum is
    continued linearly in frequency (Ohmic asymptote), whose
    contribution above the grid is added in closed form, making the
    result insensitive to the cutoff.
    """
    if not omega_r > 0:
        raise ValueError("mode frequency must be positive")
    # a grid built as geomspace(0.02*w, 50*w) can miss w/50 by an ulp
    slack = 4.0 * np.finfo(float).eps
    if (s.grid[0] > omega_r / 50.0 * (1.0 + slack)
            or s.grid[-1] < 50.0 * omega_r * (1.0 - slack)):
        raise GridError("spectrum grid must span [omega_r/50, 50*omega_r]")

    ratio = _rate_over_omega(s)
    wr2 = omega_r * omega_r

    def integrand(w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        return (wr2 / math.pi) * ratio(w) / ((w - omega_r) * (w + omega_r))

    top = float(s.grid[-1])
    val, err = pv_integral(integrand, omega_r, 0.0, top, epsrel=epsrel,
                           points=tuple(float(w) for w in s.grid[:-1]))
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
