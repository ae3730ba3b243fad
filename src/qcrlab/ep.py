"""Non-Hermitian two-mode analysis: eigenvalues, exceptional points, flux maps.

Two coupled resonator modes with individual loss rates are described in
the frame of mode 1 by

    H_eff = [[-i k1/2,  g       ],
             [ g,       d - i k2/2]],    d = omega2 - omega1.

Eigenvalue coalescence (exceptional points) occurs where the
discriminant (d - i(k2-k1)/2)^2 + 4 g^2 vanishes, which happens exactly
at d = 0, k2 = k1 -+ 4g; ``ep_locus`` returns those points in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from ._record import Frozen, require_finite


class TwoModeParams(Frozen):
    """Two lossy modes with coherent coupling g (angular units, rad/s)."""

    omega1: float
    kappa1: float
    omega2: float
    kappa2: float
    g: float

    def __post_init__(self):
        if not (self.kappa1 >= 0 and self.kappa2 >= 0):
            raise ValueError("loss rates must be nonnegative")
        if not self.g >= 0:
            raise ValueError("coupling must be nonnegative")
        require_finite(self, "omega1", "kappa1", "omega2", "kappa2", "g")
        if not math.isfinite(self.g * self.g):
            raise ValueError(f"coupling g = {self.g!r} rad/s overflows the "
                             "transmission, which squares it")

    @property
    def delta(self) -> float:
        return self.omega2 - self.omega1


def _discriminant(delta: float, kappa1: float, kappa2: float,
                  g: float) -> complex:
    # Written so that the exact locus (delta=0, k2-k1=4g) cancels to 0.0
    # in double precision: z*z gives -fl(4 g^2) there, matching 4.0*(g*g).
    z = complex(delta, -0.5 * (kappa2 - kappa1))
    return z * z + 4.0 * (g * g)


def eigenvalues(p: TwoModeParams) -> tuple[complex, complex]:
    """Complex mode frequencies (relative to omega1), ordered by real part."""
    disc = _discriminant(p.delta, p.kappa1, p.kappa2, p.g)
    root = cmath.sqrt(disc)
    trace = complex(p.delta, -0.5 * (p.kappa1 + p.kappa2))
    lam_a = 0.5 * (trace - root)
    lam_b = 0.5 * (trace + root)
    if (lam_a.real, lam_a.imag) <= (lam_b.real, lam_b.imag):
        return lam_a, lam_b
    return lam_b, lam_a


def eigenvector_overlap(p: TwoModeParams) -> float:
    """|<v+|v->| for the normalized right eigenvectors (1 at coalescence)."""
    lam = eigenvalues(p)
    vecs = []
    for lm in lam:
        v = np.array([p.g, lm + 0.5j * p.kappa1], dtype=complex)
        norm = np.linalg.norm(v)
        if norm == 0.0:  # g = 0 and lossless mode-1 eigenvalue
            v = np.array([1.0, 0.0], dtype=complex)
            norm = 1.0
        vecs.append(v / norm)
    return float(abs(np.vdot(vecs[0], vecs[1])))


def ep_locus(p_template: TwoModeParams) -> list[tuple[float, float]]:
    """Exceptional points (delta*, kappa2*) at fixed kappa1 and g.

    The discriminant (delta - i(kappa2 - kappa1)/2)^2 + 4 g^2 vanishes
    exactly at delta = 0, kappa2 = kappa1 - 4g and kappa1 + 4g.  Each
    returned point has delta = 0.0 and kappa2 the double nearest one of
    those values (4g is exact, so the sum is the only rounding); the
    lower point is kept only when its loss rate is nonnegative.  Points
    come in ascending kappa2.
    """
    g = p_template.g
    k1 = p_template.kappa1
    if g <= 0:
        raise ValueError("coupling must be positive to host an "
                         "exceptional point")
    return [(0.0, k2) for k2 in (k1 - 4.0 * g, k1 + 4.0 * g) if k2 >= 0.0]


class FluxMap(Frozen):
    """SQUID-tuned mode-2 frequency versus flux (in units of Phi_0)."""

    phi_grid: tuple[float, ...]
    omega2_max: float

    def __post_init__(self):
        if self.omega2_max <= 0:
            raise ValueError("omega2_max must be positive")
        if len(self.phi_grid) == 0:
            raise ValueError("flux grid must be non-empty")
        require_finite(self, "omega2_max")
        object.__setattr__(self, "phi_grid", tuple(float(x)
                                                   for x in self.phi_grid))
        for phi in self.phi_grid:
            # tested before omega2, whose cos raises at an infinite argument
            if not (math.isfinite(math.pi * phi)
                    and math.isfinite(self.omega2(phi))):
                raise ValueError("omega2 must be finite on the flux grid, "
                                 f"not at phi = {phi!r}")

    def omega2(self, phi: float) -> float:
        return self.omega2_max * math.sqrt(abs(math.cos(math.pi * phi)))

    def omega2_of_phi(self) -> np.ndarray:
        return np.array([self.omega2(p) for p in self.phi_grid])


def s21(omega: np.ndarray, p: TwoModeParams, kappa_ext: float) -> np.ndarray:
    """Two-port transmission past mode 1, loaded by mode 2."""
    w = np.asarray(omega, dtype=float)
    load = 1j * (p.omega2 - w) + 0.5 * p.kappa2
    denom = 1j * (p.omega1 - w) + 0.5 * p.kappa1
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = denom + np.where(np.abs(load) > 0, p.g * p.g / load, np.inf)
    return 1.0 - (0.5 * kappa_ext) / denom


def transmission_map(fm: FluxMap, p_template: TwoModeParams,
                     probe_grid: Sequence[float], *,
                     kappa_ext: float | None = None) -> np.ndarray:
    """|S21| on the (flux, probe frequency) grid, shape (n_phi, n_probe)."""
    probe = np.asarray(probe_grid, dtype=float)
    if probe.ndim != 1 or len(probe) == 0:
        raise ValueError("probe grid must be a non-empty 1-d sequence")
    if kappa_ext is None:
        kappa_ext = p_template.kappa1
    if not 0.0 <= kappa_ext <= p_template.kappa1:
        raise ValueError("external coupling must lie within kappa1")
    out = np.empty((len(fm.phi_grid), len(probe)))
    for i, phi in enumerate(fm.phi_grid):
        p = replace(p_template, omega2=fm.omega2(phi))
        out[i] = np.abs(s21(probe, p, kappa_ext))
    return out
