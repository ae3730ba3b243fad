"""Normal-metal--insulator--superconductor tunnelling building blocks.

Units and conventions
---------------------
* energies in joules, temperatures in kelvin, rates in 1/s;
* ``dos`` is the smeared BCS density of states normalised to the
  normal-state value, an even function of energy;
* ``forward_rate`` is the normalised rate F(E) of single-electron
  tunnelling events in which the electron *gains* energy ``E`` from the
  electromagnetic environment and the bias source.  It carries the 1/h
  normalisation but no junction-resistance or coupling prefactor, so
  every coupling formula in :mod:`qcrlab.spectrum` scales it explicitly.
  It is vectorised over energies, integrating all distinct ``|E|`` in
  one batched quadrature, and obtains ``E < 0`` from detailed balance,
  F(-E) = exp(-E/kT) F(E).
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


def _rate_at_zero_temperature(e: np.ndarray, p: JunctionParams,
                              epsrel: float) -> np.ndarray:
    # occupation factors collapse to a window (0, E), empty for E <= 0
    if p.dynes == 0.0:
        # the BCS integrand has the exact antiderivative sqrt(eps^2 - delta^2)
        return np.sqrt(np.maximum(e * e - p.delta**2, 0.0)) / PLANCK
    val, _ = adaptive_quad(lambda xk: dos(xk[0], p), 0.0, e,
                           points=[p.delta], epsrel=epsrel)
    return val / PLANCK


def _rate_at_temperature(e: np.ndarray, p: JunctionParams,
                         epsrel: float) -> np.ndarray:
    kt = K_B * p.temp_n
    window = np.maximum(max(30.0 * kt, 10.0 * p.delta), 3.0 * e)
    beta = 1.0 / kt
    span = min(30.0 * kt, p.delta)

    if p.dynes == 0.0:
        # the BCS dos vanishes in the gap and diverges at its edges; with
        # eps = +-delta*cosh(theta), dos(eps) deps = delta*cosh(theta) dtheta
        # is smooth, and both branches share one theta integral
        def integrand(tk):
            theta, k = tk
            c = p.delta * np.cosh(theta)
            return c * (expit(-(c - e[k]) * beta) * expit(c * beta)
                        + expit((c + e[k]) * beta) * expit(-c * beta))

        # panel edges where the branch eps > 0 meets the Fermi kink at E,
        # its thermal brackets, and the thermal bracket of the gap edge
        anchors = np.stack(np.broadcast_arrays(
            p.delta + span, e - span, e, e + span), axis=1) / p.delta
        pts = np.arccosh(np.where(anchors > 1.0, anchors, np.nan))
        val, _ = adaptive_quad(integrand, 0.0, np.arccosh(window / p.delta),
                               points=pts, epsrel=epsrel)
        return val / PLANCK

    def integrand(xk):
        x, k = xk
        return dos(x, p) * expit(-(x - e[k]) * beta) * expit(x * beta)

    # panel edges at the gap edges, the Fermi kinks, and thermal brackets
    # around each so the first Kronrod pass already samples the structure
    anchors = np.stack(np.broadcast_arrays(-p.delta, 0.0, e, p.delta), axis=1)
    pts = np.concatenate([anchors - span, anchors, anchors + span], axis=1)
    val, _ = adaptive_quad(integrand, -window, window, points=pts,
                           epsrel=epsrel)
    return val / PLANCK


def forward_rate(e_gain, p: JunctionParams, *, epsrel: float = 1e-11):
    """Normalised tunnelling rate F(E) for energy gain ``e_gain`` (1/s).

    F(E) = (1/h) * integral deps dos(eps) f(eps-E) [1 - f(eps)] with the
    occupations taken at the normal-metal electron temperature.  The
    superconductor side is assumed fully gapped in occupation (its
    quasiparticle distribution enters only through ``dos``).

    Vectorised: an array of energies gives an array of rates (a float
    gives a float), and each distinct ``|E|`` is integrated once, in one
    batched quadrature.  Negative energies come from detailed balance,
    F(-E) = exp(-E/kT) F(E), which is exact for this integrand and
    spares integrating exponentially small occupations.  For zero
    temperature and zero smearing the closed form ``sqrt(E^2 - delta^2)/h``
    above the gap and zero below it is used; at finite temperature zero
    smearing is integrated in ``theta``, with ``eps = +-delta*cosh(theta)``,
    which removes the gap-edge divergence of ``dos``.

    Raises
    ------
    QuadratureError
        When the integral at some energy does not converge; the message
        names that energy.
    """
    e = np.asarray(e_gain, dtype=float)
    if p.temp_n == 0.0:
        # exp(-|E|/kT) vanishes, so F(E < 0) = F(0) = 0 needs no integral
        integrate, direct, boltzmann = (_rate_at_zero_temperature,
                                        np.maximum(e, 0.0), 1.0)
    else:
        integrate, direct = _rate_at_temperature, np.abs(e)
        boltzmann = np.exp(np.minimum(e, 0.0) / (K_B * p.temp_n))
    mag, inv = np.unique(direct.ravel(), return_inverse=True)
    try:
        rate = integrate(mag, p, epsrel)
    except QuadratureError as exc:
        i = int(np.argmax(inv == exc.problem))
        raise QuadratureError(
            f"forward rate F(E) at E = {float(e.flat[i])!r} J: {exc}",
            achieved=exc.achieved, problem=i) from exc
    out = rate[inv].reshape(e.shape) * boltzmann
    if out.ndim == 0:
        return float(out)
    return out
