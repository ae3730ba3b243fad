"""Non-Hermitian two-mode analysis: eigenvalues, exceptional points, flux maps.

Two coupled resonator modes with individual loss rates are described in
the frame of mode 1 by

    H_eff = [[-i k1/2,  g       ],
             [ g,       d - i k2/2]],    d = omega2 - omega1.

Eigenvalue coalescence (exceptional points) occurs where the
discriminant (d - i(k2-k1)/2)^2 + 4 g^2 vanishes.  ``ep_locus`` locates
such points by a two-dimensional root search followed by a last-ulp
polish so the returned floats reproduce the coalescence essentially
exactly in double precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True)
class TwoModeParams:
    """Two lossy modes with coherent coupling g (angular units, rad/s)."""

    omega1: float
    kappa1: float
    omega2: float
    kappa2: float
    g: float

    def __post_init__(self):
        if self.kappa1 < 0 or self.kappa2 < 0:
            raise ValueError("loss rates must be nonnegative")
        if self.g < 0:
            raise ValueError("coupling must be nonnegative")

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


def _ulp_polish(delta: float, kappa2: float, kappa1: float, g: float,
                span: int = 40) -> tuple[float, float]:
    """Refine a root of the discriminant to the last representable bits.

    The discriminant is holomorphic with simple zeros in the variable
    w = delta - i(kappa2 - kappa1)/2, so a few complex Newton steps reach
    machine precision; a final scan over neighbouring floats then picks
    the representable (delta, kappa2) minimizing |discriminant|.
    """
    w = complex(delta, -0.5 * (kappa2 - kappa1))
    for _ in range(8):
        f = w * w + 4.0 * (g * g)
        if f == 0 or w == 0:
            break
        w = w - f / (2.0 * w)
    delta = w.real
    kappa2 = kappa1 - 2.0 * w.imag
    deltas = [delta, 0.0] if abs(delta) < 1e-6 * max(g, 1.0) else [delta]
    best = (abs(_discriminant(delta, kappa1, kappa2, g)), delta, kappa2)
    for d in deltas:
        k = kappa2
        for _ in range(span):
            k = math.nextafter(k, -math.inf)
        for _ in range(2 * span + 1):
            mag = abs(_discriminant(d, kappa1, k, g))
            if mag < best[0]:
                best = (mag, d, k)
            k = math.nextafter(k, math.inf)
    return best[1], best[2]


def ep_locus(p_template: TwoModeParams, *,
             delta_span: float | None = None,
             kappa2_max: float | None = None,
             starts: int = 5) -> list[tuple[float, float]]:
    """Exceptional points (delta*, kappa2*) at fixed kappa1 and g.

    Runs a 2-d root search on the real and imaginary parts of the
    discriminant from a grid of starting points, deduplicates converged
    roots, and polishes each to the nearest representable coalescence.
    Every returned point satisfies |lam+ - lam-| < 1e-9 g and
    eigenvector overlap > 1 - 1e-6.
    """
    from scipy import optimize
    g = p_template.g
    k1 = p_template.kappa1
    if g <= 0:
        raise ValueError("coupling must be positive to host an "
                         "exceptional point")
    if delta_span is None:
        delta_span = 4.0 * g
    if kappa2_max is None:
        kappa2_max = k1 + 8.0 * g

    def residual(x):
        disc = _discriminant(x[0], k1, x[1], g)
        return [disc.real, disc.imag]

    found: list[tuple[float, float]] = []
    for d0 in np.linspace(-delta_span, delta_span, starts):
        for k0 in np.linspace(0.0, kappa2_max, starts + 2):
            sol = optimize.root(residual, [d0, k0], method="hybr",
                                options={"xtol": 1e-14})
            if not sol.success:
                continue
            d, k = float(sol.x[0]), float(sol.x[1])
            if k < 0 or k > kappa2_max or abs(d) > delta_span:
                continue
            if any(math.hypot(d - dd, k - kk) < 1e-6 * g
                   for dd, kk in found):
                continue
            d, k = _ulp_polish(d, k, k1, g)
            probe = replace(p_template, omega1=0.0, omega2=d, kappa2=k)
            lam = eigenvalues(probe)
            if abs(lam[1] - lam[0]) >= 1e-9 * g:
                continue
            if eigenvector_overlap(probe) <= 1.0 - 1e-6:
                continue
            found.append((d, k))
    if not found:
        raise ConvergenceError("no exceptional point in the search box")
    found.sort(key=lambda t: (t[1], t[0]))
    return found


@dataclass(frozen=True)
class FluxMap:
    """SQUID-tuned mode-2 frequency versus flux (in units of Phi_0)."""

    phi_grid: tuple[float, ...]
    omega2_max: float

    def __post_init__(self):
        if self.omega2_max <= 0:
            raise ValueError("omega2_max must be positive")
        if len(self.phi_grid) == 0:
            raise ValueError("flux grid must be non-empty")
        object.__setattr__(self, "phi_grid", tuple(float(x)
                                                   for x in self.phi_grid))
        if not np.all(np.isfinite(self.omega2_of_phi())):
            raise ValueError("omega2 must be finite on the flux grid")

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
        denom = denom + np.where(np.abs(load) > 0, p.g ** 2 / load, np.inf)
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
