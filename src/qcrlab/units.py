"""Physical constants and unit helpers.

All internal energies are in joules, angular frequencies in rad/s,
temperatures in kelvin.  Conversions from laboratory units (micro-eV,
GHz) happen at the boundary, typically in the CLI layer.
"""

from __future__ import annotations

import math

# exact SI-2019 defining constants; bit for bit the scipy.constants values,
# without importing that package at start-up
#: elementary charge (C)
E_CHARGE = 1.602176634e-19
#: Planck constant (J s)
PLANCK = 6.62607015e-34
#: reduced Planck constant (J s)
HBAR = PLANCK / (2.0 * math.pi)
#: Boltzmann constant (J/K)
K_B = 1.380649e-23

#: resistance quantum h/e^2 (ohm)
R_K = PLANCK / E_CHARGE**2


def uev_to_joule(x: float) -> float:
    """Energy in micro-electronvolt -> joule."""
    return x * 1e-6 * E_CHARGE


def ghz_to_omega(f: float) -> float:
    """Frequency in GHz -> angular frequency in rad/s."""
    return 2.0 * math.pi * f * 1e9
