"""Quantum-limited heat conduction between two metallic islands.

Island A exchanges heat with island B through a single photonic channel
bounded by the conductance quantum, and with the phonon bath through the
electron--phonon coupling of its normal metal.  The steady state solves
the power balance; its linearization around the bath temperature gives
the differential response 1/(1 + a T0^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError
from .units import HBAR, K_B

_PHOTON_COEFF = math.pi * K_B ** 2 / (12.0 * HBAR)  # W/K^2


@dataclass(frozen=True)
class ThermalNetwork:
    """Two-island network: photon channel + electron-phonon + constant load."""

    t0: float                    # phonon bath temperature (K)
    p_const: float = 0.0         # constant heat load on island A (W)
    ep_sigma: float = 0.0        # electron-phonon constant (W m^-3 K^-5)
    volume: float = 0.0          # island-A normal-metal volume (m^3)
    a_coeff: float | None = None  # optional override of the response constant

    def __post_init__(self):
        if self.t0 <= 0:
            raise ValueError("bath temperature must be positive")
        if self.p_const < 0 or self.ep_sigma < 0 or self.volume < 0:
            raise ValueError("loads and material constants must be "
                             "nonnegative")
        if self.a_coeff is not None and self.a_coeff < 0:
            raise ValueError("a_coeff must be nonnegative")


def g_quantum(t: float) -> float:
    """Single-channel thermal conductance bound, pi k_B^2 T / (6 hbar)."""
    if t < 0:
        raise ValueError("temperature must be nonnegative")
    return math.pi * K_B ** 2 * t / (6.0 * HBAR)


def a_coefficient(net: ThermalNetwork) -> float:
    """Cubic response constant: electron-phonon vs photon-channel stiffness."""
    if net.a_coeff is not None:
        return net.a_coeff
    return 30.0 * net.ep_sigma * net.volume * HBAR / (math.pi * K_B ** 2)


def differential_response(t0: float, a: float) -> float:
    """Slope dT_A/dT_B of the steady state at global equilibrium."""
    if t0 <= 0:
        raise ValueError("bath temperature must be positive")
    if a < 0:
        raise ValueError("response constant must be nonnegative")
    return 1.0 / (1.0 + a * t0 ** 3)


def _balance(t_a: float, net: ThermalNetwork, t_b: float) -> float:
    p_photon = _PHOTON_COEFF * (t_b ** 2 - t_a ** 2)
    p_ep = net.ep_sigma * net.volume * (net.t0 ** 5 - t_a ** 5)
    return p_photon + p_ep + net.p_const


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int) -> float:
    """Root of ``f`` in the bracket ``[xa, xb]`` by Brent's method.

    A line-for-line port of scipy's ``brentq.c`` (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4), so it returns the
    same root as ``scipy.optimize.brentq`` bit for bit.  ``f(xa)`` and
    ``f(xb)`` must differ in sign.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(xa) and f(xb) must differ in sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise ConvergenceError(
        f"Brent's method did not converge in {maxiter} iterations")


def steady_state(net: ThermalNetwork, t_b: float) -> float:
    """Island-A temperature balancing photon, phonon, and constant loads."""
    if t_b <= 0:
        raise ValueError("island-B temperature must be positive")
    lo = 1e-12
    hi = max(t_b, net.t0)
    f_lo = _balance(lo, net, t_b)
    if f_lo <= 0:
        return lo if f_lo == 0 else _raise_bracket(net, t_b)
    for _ in range(200):
        if _balance(hi, net, t_b) < 0:
            break
        hi *= 2.0
    else:
        return _raise_bracket(net, t_b)
    root = _brentq(lambda t_a: _balance(t_a, net, t_b), lo, hi,
                   xtol=1e-18, rtol=8.9e-16, maxiter=300)
    residual = abs(_balance(root, net, t_b))
    if not residual < 1e-18:
        raise ConvergenceError(
            f"heat balance residual {residual:.3e} W at the root")
    return float(root)


def _raise_bracket(net: ThermalNetwork, t_b: float):
    raise ConvergenceError(
        f"could not bracket the steady state for t_b={t_b}, t0={net.t0}")
