"""Quantum-limited heat conduction between two metallic islands.

Island A exchanges heat with island B through a single photonic channel
bounded by the conductance quantum, and with the phonon bath through the
electron--phonon coupling of its normal metal.  The steady state solves
the power balance by Newton's method; its linearization around the bath
temperature gives the differential response 1/(1 + a T0^3).
"""

from __future__ import annotations

import math
import sys

from ._record import Frozen, require_finite
from .errors import ConvergenceError
from .units import HBAR, K_B

_PHOTON_COEFF = math.pi * K_B ** 2 / (12.0 * HBAR)  # W/K^2


class ThermalNetwork(Frozen):
    """Two-island network: photon channel + electron-phonon + constant load."""

    t0: float                    # phonon bath temperature (K)
    p_const: float = 0.0         # constant heat load on island A (W)
    ep_sigma: float = 0.0        # electron-phonon constant (W m^-3 K^-5)
    volume: float = 0.0          # island-A normal-metal volume (m^3)

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValueError("bath temperature must be positive")
        if not (self.p_const >= 0 and self.ep_sigma >= 0
                and self.volume >= 0):
            raise ValueError("loads and material constants must be "
                             "nonnegative")
        require_finite(self, "t0", "p_const", "ep_sigma", "volume")
        if not math.isfinite(_fifth(self.t0)):
            raise ValueError(f"t0 = {self.t0!r} K overflows the "
                             "electron-phonon balance, which takes its "
                             "fifth power")


def g_quantum(t: float) -> float:
    """Single-channel thermal conductance bound, pi k_B^2 T / (6 hbar)."""
    if t < 0:
        raise ValueError("temperature must be nonnegative")
    return math.pi * K_B ** 2 * t / (6.0 * HBAR)


def a_coefficient(net: ThermalNetwork) -> float:
    """Cubic response constant: electron-phonon vs photon-channel stiffness."""
    return 30.0 * net.ep_sigma * net.volume * HBAR / (math.pi * K_B ** 2)


def differential_response(t0: float, a: float) -> float:
    """Slope dT_A/dT_B of the steady state at global equilibrium."""
    if t0 <= 0:
        raise ValueError("bath temperature must be positive")
    if a < 0:
        raise ValueError("response constant must be nonnegative")
    return 1.0 / (1.0 + a * t0 ** 3)


def _fifth(t: float) -> float:
    """``t ** 5``, or inf where a Python float power raises OverflowError.
    Not a product: ``t * t * t * t * t`` rounds unlike libm's ``pow`` for
    about 4 arguments in 10, and moves the last digit of ``steady_state``."""
    try:
        return float(t) ** 5
    except OverflowError:
        return math.inf


def _balance(t_a: float, net: ThermalNetwork, t_b: float) -> float:
    p_photon = _PHOTON_COEFF * (t_b * t_b - t_a * t_a)
    p_ep = net.ep_sigma * net.volume * (_fifth(net.t0) - _fifth(t_a))
    return p_photon + p_ep + net.p_const


def steady_state(net: ThermalNetwork, t_b: float) -> float:
    """Island-A temperature balancing photon, phonon, and constant loads.

    For ``t_a > 0`` the balance is strictly decreasing and concave, and it
    is positive at 0, so it has one root, which lies below the closed-form
    bound ``sqrt(balance(0) / coeff)`` (the balance is ``-ep t_a^5 <= 0``
    there).  Newton's method from that bound falls monotonically onto the
    root, and stops when an iterate no longer decreases.

    Raises ``ConvergenceError`` when ``balance(0)`` is below the smallest
    normal float, as for a photon-only island at ``t_b`` below about
    2e-148 K: the heat flows underflow there, and no root could be
    resolved to full relative accuracy.  Raises ``ValueError`` naming
    ``t_b`` when the balance overflows a double at an iterate, as its
    ``t_a^5`` does at the start for ``t_b = 1e100`` K.
    """
    if t_b <= 0:
        raise ValueError("island-B temperature must be positive")
    t_b = float(t_b)    # a numpy scalar would warn where a product overflows
    ep = net.ep_sigma * net.volume
    load = _balance(0.0, net, t_b)
    if not load >= sys.float_info.min:
        raise ConvergenceError(
            f"heat balance underflows for t_b={t_b}, t0={net.t0}: its "
            f"loads at t_a = 0 sum to {load:.3e} W")
    t_a = math.sqrt(load / _PHOTON_COEFF)
    for _ in range(200):
        f = _balance(t_a, net, t_b)
        if not math.isfinite(f):
            raise ValueError(f"heat balance overflows a double for "
                             f"t_b={t_b!r} K, t0={net.t0!r} K: it is {f!r} "
                             f"W at t_a = {t_a!r} K")
        if not f < 0:
            break
        step = f / (2.0 * _PHOTON_COEFF * t_a
                    + 5.0 * ep * (t_a * t_a * t_a * t_a))
        if not t_a + step < t_a:
            break
        t_a += step
    else:
        raise ConvergenceError(
            f"Newton's method did not converge in 200 iterations for "
            f"t_b={t_b}, t0={net.t0}")
    residual = abs(_balance(t_a, net, t_b))
    if not residual < 1e-18:
        raise ConvergenceError(
            f"heat balance residual {residual:.3e} W at the root")
    return t_a
