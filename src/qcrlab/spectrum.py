"""Bias- and drive-tunable coupling rates of a mode to tunnel junctions.

The photon-assisted tunnelling rates below describe a resonator mode
("primary") whose photons are absorbed or emitted by quasiparticle
tunnelling across one or two voltage-biased NIS junctions, optionally
assisted by a strongly populated second mode ("supporting").  Everything
reduces to sums of the junction forward rate F evaluated at shifted
energies:

    arg = tau * e*V_j + lp * hbar*w_p + ls * hbar*w_s - E_N

with tau = +-1 the tunnelling direction, lp = +-1 the number of primary
photons absorbed, ls the number of supporting photons absorbed, and
``V_j`` the bias dropped over one junction.  For a two-junction series
device the bias divides equally and both junctions contribute, giving an
overall factor of 2.

Directed rates: ``down`` collects photon-absorption terms (lp = +1,
mode relaxation), ``up`` collects emission terms (lp = -1, mode
excitation).  Since F is monotone, ``down >= up`` always holds here.
"""

from __future__ import annotations

import math
from typing import Literal, NamedTuple

import numpy as np

from ._record import Frozen, Record, require_finite
from .errors import (GridError, NonpositiveTemperatureError, QcrlabError,
                     TruncationError, UndefinedSteadyStateError)
from .junction import DeviceConfig, JunctionParams, forward_rate
from .units import E_CHARGE, HBAR, K_B, R_K


class ModeParams(Frozen):
    """One harmonic mode coupled to the junction environment.

    ``alpha`` is the capacitive coupling fraction entering the rate
    prefactor; ``rho`` is the dimensionless zero-point displacement
    entering the Fock matrix elements.  When ``rho`` is None it defaults
    to ``alpha * sqrt(pi * impedance / R_K)``.
    """

    omega: float
    impedance: float
    alpha: float
    rho: float | None = None

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("mode frequency must be positive")
        if not self.impedance > 0:
            raise ValueError("mode impedance must be positive")
        if not 0 <= self.alpha <= 1:
            raise ValueError("coupling fraction must lie in [0, 1]")
        if self.rho is not None and not self.rho >= 0:
            raise ValueError("displacement parameter must be nonnegative")
        require_finite(self, "omega", "impedance", "alpha",
                       *(() if self.rho is None else ("rho",)))

    @property
    def rho_eff(self) -> float:
        if self.rho is not None:
            return self.rho
        return self.alpha * math.sqrt(math.pi * self.impedance / R_K)


class DriveState(Frozen):
    """Photon statistics of the supporting mode.

    ``distribution`` selects Poisson ("coherent") or geometric
    ("thermal") occupation probabilities of mean ``mean_n``, a float or an
    array.  ``l_max`` bounds the net photon number exchanged per
    tunnelling event and ``fock_cut`` truncates the initial-state sum.
    """

    mean_n: float
    distribution: Literal["coherent", "thermal"] = "coherent"
    l_max: int = 5
    fock_cut: int = 40

    def __post_init__(self):
        _checked_mean(self.mean_n)
        if self.distribution not in ("coherent", "thermal"):
            raise ValueError("distribution must be 'coherent' or 'thermal'")
        if self.l_max < 0 or self.fock_cut < 0:
            raise ValueError("truncation orders must be nonnegative")


class RatePair(NamedTuple):
    """Directed transition rates of one mode (1/s)."""

    up: float
    down: float

    @property
    def net(self) -> float:
        return self.down - self.up


class SpectralDensity(Record):
    """Coupling rate tabulated on a strictly increasing frequency grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        _check_grid(self.grid)
        if self.grid.shape != self.values.shape:
            raise ValueError("values must match the grid's shape")
        if not (np.isfinite(self.values).all() and (self.values >= 0).all()):
            raise ValueError("coupling rates must be finite and nonnegative")


def _check_grid(grid: np.ndarray) -> None:
    """Raise GridError unless ``grid`` is 1-d, finite, positive, strictly
    increasing and at least two points long."""
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise GridError("frequency grid must be a strictly increasing 1-d "
                        "array of at least two points")
    if not np.isfinite(grid).all():
        raise GridError("frequency grid must be finite")
    if grid[0] <= 0:
        raise GridError("frequency grid must be positive")


class OptimalBias(NamedTuple):
    voltage: float
    t_eff: float


def log_factorial(k) -> np.ndarray:
    """``log(k!)`` elementwise over nonnegative integers ``k``, by
    ``math.lgamma``."""
    k = np.asarray(k, dtype=float)
    return np.array([math.lgamma(x + 1.0) for x in k.flat]).reshape(k.shape)


def _checked_mean(mean_n) -> np.ndarray:
    """``mean_n`` as a float array; ValueError naming the first entry that
    is negative or not finite."""
    n = np.asarray(mean_n, dtype=float)
    bad = n[~np.isfinite(n) | (n < 0)]
    if bad.size:
        raise ValueError(f"mean photon numbers must be finite and "
                         f"nonnegative, got {bad.flat[0].item()!r}")
    return n


def fock_distribution(ks, mean_n,
                      distribution: Literal["coherent", "thermal"]):
    """Poisson ("coherent") or geometric ("thermal") Fock probabilities.

    Evaluated at the nonnegative integer indices ``ks`` for mean
    ``mean_n``, in the log domain; ``mean_n = 0`` is the vacuum.  An array
    ``mean_n`` gives one row per entry, equal to the call with that entry
    alone.  Raises ValueError naming the first index that is negative or
    not an integer, or the first mean that is negative or not finite.
    """
    ks = np.asarray(ks)
    bad = ks[~np.isfinite(ks) | (ks < 0) | (np.floor(ks) != ks)]
    if bad.size:
        raise ValueError(f"Fock indices must be nonnegative integers, got "
                         f"{bad.flat[0].item()!r}")
    n = _checked_mean(mean_n)
    n = n.reshape(n.shape + (1,) * ks.ndim)
    # math.log per entry, as a float mean_n takes it; the vacuum is set below
    log = np.vectorize(lambda x: math.log(x) if x > 0 else 0.0, otypes=[float])
    if distribution == "coherent":
        logp = ks * log(n) - n - log_factorial(ks)
    else:
        logp = ks * log(n / (1.0 + n)) - log(1.0 + n)
    return np.where(n == 0.0, ks == 0, np.exp(logp))


def _overlap_sq(m_max: int, ds, rho: float) -> np.ndarray:
    """``|<m + d| D(rho) |m>|^2`` for ``m = 0..m_max``, one row per ``d``.

    The overlap is ``e^{-x} x^d m!/(m + d)! L_m^(d)(x)^2`` with
    ``x = rho^2``.  The Laguerre polynomials come from their recurrence
    in ``m``, all orders ``ds`` at once, in the normalised form that
    scipy's ``eval_genlaguerre`` steps through, ``p_m = L_m^(d)/C(m + d, m)``
    and its forward difference ``s_m``; that keeps the relative error
    small near the zeros of ``L``.  The product is taken in the log
    domain, so large indices neither overflow nor underflow prematurely;
    a zero of ``L`` gives an exact zero.  Raises :class:`QcrlabError`
    when ``L`` itself overflows, as at ``rho = 40`` up to ``m = 400``.
    """
    ds = np.asarray(ds)
    if rho == 0.0:
        return np.where(ds[:, None] == 0, 1.0, np.zeros(m_max + 1))
    x = rho * rho
    # s_m = -x/(m + d + 1) p_m + m/(m + d + 1) s_{m-1},  p_{m+1} = p_m + s_m
    m = np.arange(1.0, m_max)[:, None]
    a, b = -x / (m + ds + 1.0), m / (m + ds + 1.0)
    p = np.ones((m_max + 1, ds.size))
    step = -x / (ds + 1.0)
    if m_max:
        p[1] = step + 1.0
    # an overflow here leaves a non-finite table, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(m_max - 1):
            step = a[i] * p[i + 1] + b[i] * step
            p[i + 2] = step + p[i + 1]
    p = p.T
    lf = log_factorial(np.arange(m_max + ds.max() + 1))
    with np.errstate(divide="ignore"):
        # m!/(m + d)! C(m + d, m)^2 = (m + d)!/(m! d!^2)
        log_m = (-x + 2.0 * ds[:, None] * math.log(rho)
                 + lf[np.arange(m_max + 1) + ds[:, None]] - lf[:m_max + 1]
                 - 2.0 * lf[ds][:, None] + 2.0 * np.log(np.abs(p)))
    table = np.where(p == 0.0, 0.0, np.exp(log_m))
    if not np.isfinite(table).all():
        raise QcrlabError(f"displacement overlaps at rho = {rho!r} overflow "
                          f"within fock_cut = {m_max}")
    return table


def fock_matrix_sq(k: int, l: int, rho: float) -> float:
    """Squared displaced-oscillator overlap |<l| D(rho) |k>|^2.

    Symmetric in (k, l); reduces to the identity at rho = 0; rows and
    columns sum to one.
    """
    if k < 0 or l < 0:
        raise ValueError("Fock indices must be nonnegative")
    if rho < 0:
        raise ValueError("displacement must be nonnegative")
    return float(_overlap_sq(min(k, l), [abs(k - l)], rho)[0, -1])


def _sideband_weights(d: DriveState, rho: float) -> dict[int, np.ndarray]:
    """Drive-averaged weight of exchanging ``s`` supporting photons.

    w(s) = sum_k P_k |<k - s| D(rho) |k>|^2, the transition taking the
    supporting mode from Fock state k to k - s (s photons absorbed by
    the tunnelling electron).  Vacuum therefore carries no s > 0 weight.
    One weight per entry of ``d.mean_n``, shaped like it.  The overlaps
    do not depend on the drive strength; each call builds their table
    once for all ``s``, and a drive sweep is one call.
    """
    pk = fock_distribution(np.arange(d.fock_cut + 1), d.mean_n,
                           d.distribution)
    mass = pk.sum(axis=-1)
    for n, m in zip(np.ravel(d.mean_n).tolist(), np.ravel(mass).tolist()):
        if m < 1.0 - 1e-8:
            raise TruncationError(
                f"fock_cut={d.fock_cut} keeps only {m:.10f} of the drive "
                f"distribution at mean_n = {n!r}; raise the truncation")
    # row |s| holds |<k - s| D(rho) |k>|^2 from k = max(s, 0) on
    table = _overlap_sq(d.fock_cut, np.arange(d.l_max + 1), rho)
    return {s: np.sum(pk[..., max(s, 0):]
                      * table[abs(s), :max(d.fock_cut + 1 - max(s, 0), 0)],
                      axis=-1)
            for s in range(-d.l_max, d.l_max + 1)}


def _directed_rates(v, hw_p, shifts: dict, hw_s: float,
                    mode: ModeParams, j: JunctionParams, dev: DeviceConfig,
                    epsrel: float) -> RatePair:
    """Directed rates of ``mode``: its coupling times weighted sums of F.

    The sums run over the tunnelling directions and the sidebands
    ``shifts``.  Broadcasts over arrays of device bias ``v``, photon
    energy ``hw_p`` and sideband weights, which share one shape; every
    energy of the call goes through one batched ``forward_rate``.  A
    scalar result comes back as floats.
    """
    en = dev.charging_energy
    terms = [(w, tau * E_CHARGE, s * hw_s - en) for s, w in shifts.items()
             if np.count_nonzero(w) for tau in (1.0, -1.0)]
    if terms:
        up = down = 0.0
        # the energies [direction, ..., term]: absorbed, then emitted
        vj = np.asarray(v, dtype=float)[..., None] / dev.junctions
        base = (np.array([t[1] for t in terms]) * vj
                + np.array([t[2] for t in terms]))
        hw = np.asarray(hw_p, dtype=float)[..., None]
        rates = forward_rate(np.array([base + hw, base - hw]), j,
                             epsrel=epsrel)
        for k, (w, _, _) in enumerate(terms):
            down = down + w * rates[0, ..., k]
            up = up + w * rates[1, ..., k]
    else:   # no sideband weighs anything: zeros of the broadcast shape
        up = down = np.zeros(np.broadcast_shapes(
            np.shape(v), np.shape(hw_p), *map(np.shape, shifts.values())))
    # one identical term per junction of the series array
    pref = dev.junctions * math.pi * mode.alpha**2 * mode.impedance / j.r_t
    if np.ndim(up) == 0:
        return RatePair(float(pref * up), float(pref * down))
    return RatePair(pref * up, pref * down)


def transition_rates(v, mode: ModeParams, j: JunctionParams,
                     dev: DeviceConfig, *, epsrel: float = 1e-11) -> RatePair:
    """Directed photon rates of a mode coupled to dc-biased junctions.

    Broadcasts over device biases ``v`` (volts) in one batched ``F(E)``
    call; a float ``v`` gives floats.  Each entry is the scalar call at its
    bias to within ``epsrel``.  It is that call bitwise while the batch has
    fewer than 25 distinct ``|E|`` (at most four per bias), which are
    integrated directly, since an ``adaptive_quad`` result does not depend
    on its batch.  With more, ``forward_rate`` reads its interpolant: at
    10 mK and ``epsrel=1e-9``, 101 biases over ``[0, 2 delta/e]`` differ
    from their scalar calls by up to 8.1e-13 relative.
    """
    return _directed_rates(v, HBAR * mode.omega, {0: 1.0}, 0.0, mode, j, dev,
                           epsrel)


def rf_transition_rates(v: float, mode_p: ModeParams, mode_s: ModeParams,
                        d: DriveState, j: JunctionParams, dev: DeviceConfig,
                        *, epsrel: float = 1e-11) -> RatePair:
    """Directed primary-mode rates with a driven supporting mode.

    The supporting mode is traced out over its photon statistics; each
    tunnelling event may exchange up to ``d.l_max`` supporting photons
    with matrix elements of displacement ``mode_s.rho_eff``.  Broadcasts
    over an array ``d.mean_n`` in one batched ``F(E)`` call, as
    ``transition_rates`` does over ``v``; a float ``mean_n`` gives floats.
    """
    return _directed_rates(v, HBAR * mode_p.omega,
                           _sideband_weights(d, mode_s.rho_eff),
                           HBAR * mode_s.omega, mode_p, j, dev, epsrel)


def steady_p1(r: RatePair) -> float:
    """Steady excited-state probability up/(up + down) of a two-level cut."""
    if r.up < 0 or r.down < 0:
        raise ValueError("rates must be nonnegative")
    tot = r.up + r.down
    if tot == 0.0:
        raise UndefinedSteadyStateError("both rates vanish")
    return r.up / tot


def effective_temperature(r: RatePair, omega: float) -> float:
    """Temperature whose Boltzmann factor reproduces up/down at ``omega``."""
    if not omega > 0:
        raise ValueError("mode frequency must be positive")
    if not (r.down > r.up > 0):
        raise NonpositiveTemperatureError(
            "effective temperature requires down > up > 0")
    return HBAR * omega / (K_B * math.log(r.down / r.up))


def optimal_bias(mode: ModeParams, j: JunctionParams, dev: DeviceConfig, *,
                 epsrel: float = 1e-11) -> OptimalBias:
    """Bias minimising the effective mode temperature.

    Searches device-level voltages whose per-junction share spans
    [0, 2*delta/e]: a 161-point batched scan brackets the global minimum
    by its two neighbours, and the same scan over that bracket narrows it
    80-fold until it is narrower than ``1e-4 * span / 161``.
    """
    coarse = 161
    lo, hi = 0.0, dev.junctions * 2.0 * j.delta / E_CHARGE
    xtol = 1e-4 * hi / coarse

    def t_eff(up: float, down: float) -> float:
        try:
            return effective_temperature(RatePair(up, down), mode.omega)
        except NonpositiveTemperatureError:
            return math.inf

    while True:
        vs = np.linspace(lo, hi, coarse)
        scan = transition_rates(vs, mode, j, dev, epsrel=epsrel)
        ts = np.array([t_eff(*r) for r in zip(scan.up, scan.down)])
        if not np.any(np.isfinite(ts)):
            raise NonpositiveTemperatureError(
                "effective temperature undefined over the whole scan")
        i = int(np.argmin(ts))
        if hi - lo < xtol:
            return OptimalBias(float(vs[i]), float(ts[i]))
        lo, hi = vs[max(i - 1, 0)], vs[min(i + 1, coarse - 1)]


def on_off_ratio(mode: ModeParams, j: JunctionParams, dev: DeviceConfig, *,
                 points: int = 201, epsrel: float = 1e-11) -> float:
    """Net-coupling tunability: max subthreshold rate over the v = 0 rate.

    Scans device biases whose per-junction share runs up to the gap (the
    device threshold) and returns gamma(V_on)/gamma(0) with V_on the
    scanned argmax.  In the subgap-dominated regime this ratio scales as
    sqrt(delta / (hbar omega)) / dynes.
    """
    span = dev.junctions * j.delta / E_CHARGE
    # the scan starts at v = 0, so its first entry is the off rate
    nets = transition_rates(np.linspace(0.0, span, points), mode, j, dev,
                            epsrel=epsrel).net
    r0 = float(nets[0])
    if r0 <= 0:
        raise UndefinedSteadyStateError(
            "zero-bias net rate vanishes; on/off ratio undefined")
    return float(nets.max()) / r0


def tabulate_spectrum(v: float, grid: np.ndarray, mode_template: ModeParams,
                      j: JunctionParams, dev: DeviceConfig, *,
                      epsrel: float = 1e-11) -> SpectralDensity:
    """Net coupling rate versus frequency at fixed bias and coupling.

    Each grid frequency is evaluated with the template's impedance and
    coupling fraction held fixed; only the mode frequency varies.
    """
    grid = np.asarray(grid, dtype=float)
    _check_grid(grid)
    vals = _directed_rates(v, HBAR * grid, {0: 1.0}, 0.0, mode_template, j,
                           dev, epsrel).net
    return SpectralDensity(grid, vals)
