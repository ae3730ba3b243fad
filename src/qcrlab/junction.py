"""Normal-metal--insulator--superconductor tunnelling building blocks.

Units and conventions
---------------------
* energies in joules, temperatures in kelvin, rates in 1/s;
* ``dos`` is the smeared BCS density of states normalised to the
  normal-state value, an even function of energy, and ``cumulative_dos``
  its closed-form antiderivative, an odd function;
* ``forward_rate`` is the normalised rate F(E) of single-electron
  tunnelling events in which the electron *gains* energy ``E`` from the
  electromagnetic environment and the bias source.  It carries the 1/h
  normalisation but no junction-resistance or coupling prefactor, so
  every coupling formula in :mod:`qcrlab.spectrum` scales it explicitly.
  It integrates ``cumulative_dos`` against a positive thermal kernel
  over ``[0, max(E, delta) + 60 kT]``, all distinct ``|E|`` in one batched
  quadrature, and obtains ``E < 0`` from detailed balance,
  F(-E) = exp(-E/kT) F(E).  At zero temperature F(E) is
  ``cumulative_dos(max(E, 0))/h`` with no quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import QuadratureError
from .quadrature import adaptive_quad
from .units import K_B, PLANCK


@dataclass(frozen=True)
class JunctionParams:
    """Electrical parameters of one NIS tunnel junction.

    Parameters
    ----------
    delta:
        Superconducting gap (J).
    dynes:
        Dimensionless subgap smearing parameter of the density of
        states, typically 1e-6 .. 1e-4.
    r_t:
        Tunnelling resistance (ohm).
    temp_n:
        Electron temperature of the normal-metal electrode (K).
    """

    delta: float
    dynes: float
    r_t: float
    temp_n: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("gap energy must be positive")
        if not 0 <= self.dynes < 1:
            raise ValueError("smearing parameter must lie in [0, 1)")
        if not self.r_t > 0:
            raise ValueError("tunnelling resistance must be positive")
        if self.temp_n < 0:
            raise ValueError("electron temperature must be nonnegative")


@dataclass(frozen=True)
class DeviceConfig:
    """Junction-count and island parameters of the refrigerator element.

    ``junctions=2`` describes the symmetric series (SINIS) configuration
    in which the applied bias divides equally over the two junctions and
    both contribute to the rates.  ``charging_energy`` is the single
    electron charging cost of the normal island (J).
    """

    junctions: int = 2
    charging_energy: float = 0.0

    def __post_init__(self):
        if self.junctions not in (1, 2):
            raise ValueError("only 1- and 2-junction devices are supported")
        if self.charging_energy < 0:
            raise ValueError("charging energy must be nonnegative")


def dos(eps, p: JunctionParams):
    """Smeared superconducting density of states (normalised, even).

    Evaluates ``|Re[(eps + i*dynes*delta) / sqrt((eps + i*dynes*delta)^2
    - delta^2)]|``.  With ``dynes=0`` this is exactly zero inside the gap
    and diverges integrably at the gap edges.
    """
    eps = np.asarray(eps, dtype=float)
    z = eps + 1j * (p.dynes * p.delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.abs(np.real(z / np.sqrt(z * z - p.delta**2)))
    if n.ndim == 0:
        return float(n)
    return n


def fermi(e, t: float):
    """Fermi occupation 1/(exp(e/kT)+1); a step with f(0)=1/2 at t=0."""
    e = np.asarray(e, dtype=float)
    if t < 0:
        raise ValueError("temperature must be nonnegative")
    if t == 0:
        out = np.where(e < 0, 1.0, np.where(e > 0, 0.0, 0.5))
    else:
        out = expit(-e / (K_B * t))
    if out.ndim == 0:
        return float(out)
    return out


def cumulative_dos(eps, p: JunctionParams):
    """Antiderivative N(eps) of ``dos`` with N(0) = 0, odd in energy.

    N(eps) = Re[sqrt(z - delta) sqrt(z + delta)], z = eps + i*dynes*delta,
    with principal roots (Dynes et al., PRL 41, 1509 (1978)).  That real
    part has the sign of ``eps``, so it is evaluated as
    ``sign(eps) Re sqrt((z - delta)(z + delta))``: one square root, and no
    cancellation inside the gap.  With ``dynes=0`` it is zero inside the
    gap and ``sign(eps)*sqrt(eps^2 - delta^2)`` outside it.
    """
    eps = np.asarray(eps, dtype=float)
    g = p.dynes * p.delta
    n = np.copysign(np.sqrt((eps - p.delta) * (eps + p.delta) - g * g
                            + 2j * g * eps).real, eps)
    if n.ndim == 0:
        return float(n)
    return n


def _rate_at_temperature(e: np.ndarray, p: JunctionParams,
                         epsrel: float) -> np.ndarray:
    beta = 1.0 / (K_B * p.temp_n)
    span = min(30.0 / beta, p.delta)

    def integrand(xk):
        x, k = xk
        a, b = beta * x, beta * e[k]
        # the kernel K(eps, E) with every exponent shifted by -max(a, b),
        # so nothing overflows and no term cancels
        m = np.maximum(a, b)
        ea, eb = np.exp(a - m), np.exp(b - m)
        num = -np.expm1(-2.0 * a) * ea * (np.exp(-m) + eb)
        den = ea + np.exp(-a - m) + eb + np.exp(-b - m)
        return cumulative_dos(x, p) * (beta * num / (den * den))

    # panel edges at the gap edge and the Fermi kink, and thermal brackets
    # around each so the first Kronrod pass already samples the structure
    anchors = np.stack(np.broadcast_arrays(p.delta, e), axis=1)
    pts = np.concatenate([anchors - span, anchors, anchors + span], axis=1)
    top = np.maximum(e, p.delta) + 60.0 / beta
    val, _ = adaptive_quad(integrand, 0.0, top, points=pts, epsrel=epsrel)
    return val / PLANCK


def forward_rate(e_gain, p: JunctionParams, *, epsrel: float = 1e-11):
    """Normalised tunnelling rate F(E) for energy gain ``e_gain`` (1/s).

    F(E) = (1/h) * integral deps dos(eps) f(eps-E) [1 - f(eps)] with the
    occupations taken at the normal-metal electron temperature.  The
    superconductor side is assumed fully gapped in occupation (its
    quasiparticle distribution enters only through ``dos``).

    Integrated by parts with the odd antiderivative N = ``cumulative_dos``,
    F(E) = (1/h) * integral_0^(max(E, delta) + 60 kT) deps N(eps) K(eps, E),
    K = beta sinh(a) (1 + e^b) / (2 (cosh a + cosh b)^2), a = beta eps,
    b = beta E.  K is positive, so the integral does not cancel, and one
    integrand serves every smearing, zero included.  At zero temperature
    the occupations collapse to the window (0, E) and F(E) = N(max(E, 0))/h
    in closed form.

    Vectorised: an array of energies gives an array of rates (a float
    gives a float), and each distinct ``|E|`` is integrated once, in one
    batched quadrature.  Negative energies come from detailed balance,
    F(-E) = exp(-E/kT) F(E), which is exact for this integrand and
    spares integrating exponentially small occupations.

    Raises
    ------
    QuadratureError
        When the integral at some energy does not converge; the message
        names that energy.
    """
    e = np.asarray(e_gain, dtype=float)
    if p.temp_n == 0.0:
        # the occupations collapse to the window (0, E), empty for E <= 0
        return cumulative_dos(np.maximum(e, 0.0), p) / PLANCK
    mag, inv = np.unique(np.abs(e).ravel(), return_inverse=True)
    try:
        rate = _rate_at_temperature(mag, p, epsrel)
    except QuadratureError as exc:
        i = int(np.argmax(inv == exc.problem))
        raise QuadratureError(
            f"forward rate F(E) at E = {float(e.flat[i])!r} J: {exc}",
            achieved=exc.achieved, problem=i) from exc
    out = (rate[inv].reshape(e.shape)
           * np.exp(np.minimum(e, 0.0) / (K_B * p.temp_n)))
    if out.ndim == 0:
        return float(out)
    return out
