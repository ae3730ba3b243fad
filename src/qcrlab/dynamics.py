"""Photon-number ladder dynamics under switched junction damping.

A single resonator mode is modelled as a birth--death chain on Fock
states with downward rate m*down and upward rate (m+1)*up, where the
totals combine the junction rates at the instantaneous bias with an
optional extra linear channel (e.g. a transmission line) of its own
thermal occupation.

The chain is linear, so its generating function G(s) = sum_m P_m s^m
is a Moebius map of the initial one, G0 (Kendall, Ann. Math. Stat. 19,
1 (1948)): G(s) = G0(1 - eta u/(1 + n u))/(1 + n u), u = 1 - s, where
eta = exp(-int (down - up) dt) and dn/dt = up - (down - up) n, n(0) = 0.
Two scalars thus carry the dynamics, exactly on the infinite ladder;
only the initial state is cut at ``n_cut``.  At constant rates both have
closed forms; on a bias ramp the rates are cubics of the bias between
samples, so -log eta is a quartic in time and n one integral of a
positive integrand.  No ODE stepper is involved.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, FitError, TruncationError
from .junction import DeviceConfig, JunctionParams
from .pchip import Pchip
from .quadrature import adaptive_quad
from .spectrum import (ModeParams, RatePair, fock_distribution,
                       log_factorial, transition_rates)

RateSource = Callable[[float], RatePair]

# Biases sampled along a ramp: the knots of its rate interpolant, and the
# ends of the pieces a ramp is propagated in.
RAMP_SAMPLES = 33
# Relative tolerance of the ramp integrals of n(t).
RAMP_RTOL = 1e-10


# Not called by this module; kept because benchmark tracing patches it by name.
def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call.

    ``scipy.integrate`` is the costliest import of the package, so it
    loads only if this is called.
    """
    from scipy.integrate import solve_ivp as _solve_ivp
    return _solve_ivp(*args, **kwargs)


@dataclass
class LadderState:
    """Probability distribution over Fock states 0..n_cut."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float).copy()
        if self.probs.ndim != 1:
            raise ValueError("probs must be one-dimensional")
        if np.any(self.probs < -1e-12):
            raise ValueError("probabilities must be nonnegative")
        self.probs = np.clip(self.probs, 0.0, None)
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to one")

    @classmethod
    def ground(cls, n_cut: int = 30) -> "LadderState":
        p = np.zeros(n_cut + 1)
        p[0] = 1.0
        return cls(p)

    @classmethod
    def thermal(cls, mean_n: float, n_cut: int = 30) -> "LadderState":
        return cls._renormalised(mean_n, n_cut, "thermal")

    @classmethod
    def coherent(cls, mean_n: float, n_cut: int = 30) -> "LadderState":
        return cls._renormalised(mean_n, n_cut, "coherent")

    @classmethod
    def _renormalised(cls, mean_n: float, n_cut: int,
                      distribution: str) -> "LadderState":
        """The distribution cut at ``n_cut``; the cut must keep 1 - 1e-6."""
        if mean_n < 0:
            raise ValueError("mean photon number must be nonnegative")
        p = fock_distribution(np.arange(n_cut + 1), mean_n, distribution)
        kept = p.sum()
        if kept < 1.0 - 1e-6:
            raise TruncationError(f"n_cut = {n_cut} keeps {kept:.6g} of the "
                                  f"{distribution} state; raise n_cut")
        return cls(p / kept)

    @property
    def n_cut(self) -> int:
        return len(self.probs) - 1

    @property
    def mean_n(self) -> float:
        return float(np.arange(self.n_cut + 1) @ self.probs)


@dataclass(frozen=True)
class PulseSchedule:
    """Trapezoidal bias waveform: off level, ramp, flat top, ramp, off."""

    v_on: float
    width: float
    rise_fall: float = 0.0
    t_start: float = 0.0
    v_off: float = 0.0

    def __post_init__(self):
        if self.width < 0 or self.rise_fall < 0 or self.t_start < 0:
            raise ValueError("schedule times must be nonnegative")

    @property
    def t_end_pulse(self) -> float:
        return self.t_start + 2 * self.rise_fall + self.width

    def breakpoints(self) -> list[float]:
        r = self.rise_fall
        pts = [self.t_start, self.t_start + r,
               self.t_start + r + self.width, self.t_end_pulse]
        return sorted(set(pts))

    def voltage(self, t: float) -> float:
        r = self.rise_fall
        t0 = self.t_start
        if t <= t0 or t >= self.t_end_pulse:
            return self.v_off
        if t < t0 + r:
            return self.v_off + (self.v_on - self.v_off) * (t - t0) / r
        if t <= t0 + r + self.width:
            return self.v_on
        return self.v_off + (self.v_on - self.v_off) * (self.t_end_pulse - t) / r


@dataclass
class LadderTrajectory:
    """The ladder at ``times``: ``init`` mapped through ``eta`` and ``n``."""

    times: np.ndarray
    eta: np.ndarray
    n: np.ndarray
    init: LadderState

    @property
    def mean_n(self) -> np.ndarray:
        return self.eta * self.init.mean_n + self.n

    @property
    def ground_pop(self) -> np.ndarray:
        """``G(0) = G0(1 - eta/(1 + n))/(1 + n)``."""
        p = 1.0 / (1.0 + self.n)
        return p * np.polynomial.polynomial.polyval(1.0 - self.eta * p,
                                                    self.init.probs)

    @cached_property
    def probs(self) -> np.ndarray:
        """Fock probabilities 0..n_cut at each sample, built on first access.

        The power series of G from nonnegative terms: an initial photon
        stays with chance ``eta p``, ``p = 1/(1 + n)`` (binomial thinning),
        and ``j`` survivors become ``m`` photons with chance
        ``p C(m, j) p^j (1 - p)^(m - j)`` (``j + 1`` geometrics of ratio
        ``1 - p``).  A row misses only the mass above ``n_cut``.
        """
        k = np.arange(self.init.n_cut + 1.0)
        j = k[:, None]
        kj = np.maximum(k - j, 0.0)
        lf = log_factorial(k)
        log_choose = np.where(j <= k, lf - lf[:, None] - lf[kj.astype(int)],
                              -np.inf)

        def kept(p):  # [j, k]: chance that j of k photons stay, each with p
            # j log p and (k - j) log(1 - p), each 0 where its count is 0
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.exp(log_choose + np.where(j > 0, j * np.log(p), 0.0)
                              + np.where(kj > 0, kj * np.log1p(-p), 0.0))

        rows = [p * (kept(p).T @ (kept(eta * p) @ self.init.probs))
                for eta, p in zip(self.eta, 1.0 / (1.0 + self.n))]
        return np.array(rows).reshape(len(self.times), len(k))


class DcRateSource:
    """Memoised bias -> directed junction rates adapter.

    Each distinct bias costs one ``transition_rates`` call, looked up in
    this module at call time, so a wrapper installed there sees it.
    """

    def __init__(self, mode: ModeParams, j: JunctionParams, dev: DeviceConfig,
                 *, epsrel: float = 1e-11):
        @cache
        def rates(v: float) -> RatePair:
            return transition_rates(v, mode, j, dev, epsrel=epsrel)

        self._rates = rates

    def __call__(self, v: float) -> RatePair:
        return self._rates(v)


def _relax(n_a: float, up: float, net: float, u):
    """``(-log eta, n)`` gained over a time ``u`` at constant rates.

    ``n`` relaxes from ``n_a`` towards ``up/net`` at the rate ``net``.
    """
    if net == 0.0:
        return net * u, n_a + up * u
    return net * u, n_a * np.exp(-net * u) - up * np.expm1(-net * u) / net


def evolve(init: LadderState, sched: PulseSchedule, env: RateSource,
           extra_gamma: float = 0.0, extra_occupation: float = 0.0,
           t_end: float | None = None, *,
           t_eval: Sequence[float] | None = None) -> LadderTrajectory:
    """Evolve the ladder from ``init`` over the pulse waveform to ``t_end``.

    Propagates ``y = (-log eta, n)`` of the Moebius map from ``(0, 0)``,
    segment by segment, so the cost does not depend on ``n_cut``.  ``env``
    maps a device bias to directed junction rates; it is sampled only at
    the waveform levels and at ``RAMP_SAMPLES`` evenly spaced biases along
    ramps, which a monotone cubic (PCHIP) bridges.

    On a stretch of constant bias, ``-log eta`` grows by ``(down - up) u``
    and ``n`` relaxes exponentially towards ``up/(down - up)``.  A ramp is
    split at the times its bias crosses a sample; between two, the bias is
    linear in time and each rate a cubic of it, so ``-log eta`` gains the
    exact quartic antiderivative ``dL``, and
    ``n(t) = n_a e^{-dL(t)} + int_a^t up(tau) e^{-(dL(t) - dL(tau))} dtau``.
    The integrals of every ramp piece and every sample on it go through
    one batched :func:`~qcrlab.quadrature.adaptive_quad` call to relative
    tolerance ``RAMP_RTOL``.

    Raises
    ------
    ConvergenceError
        When a sampled rate is not finite; the message names its bias.
    """
    if t_end is None:
        t_end = sched.t_end_pulse
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if extra_gamma < 0 or extra_occupation < 0:
        raise ValueError("extra channel parameters must be nonnegative")
    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, 201)
    t_eval = np.array(t_eval, dtype=float)
    if np.any(t_eval < 0) or np.any(t_eval > t_end) or np.any(np.diff(t_eval) < 0):
        raise ValueError("t_eval must be sorted inside [0, t_end]")

    def rates(v: float) -> tuple[float, float]:
        """Total ``(up, down)``: the junction's plus the extra channel's."""
        r = env(v)
        up = r.up + extra_gamma * extra_occupation
        down = r.down + extra_gamma * (1.0 + extra_occupation)
        if not (math.isfinite(up) and math.isfinite(down)):
            raise ConvergenceError(f"ladder rates at bias {v!r} V are not "
                                   f"finite: up {up!r}, down {down!r}")
        return up, down

    poly = np.polynomial.polynomial
    levels = {v: rates(v) for v in (sched.v_off, sched.v_on)}
    edges = {0.0, t_end, *sched.breakpoints()}
    rise_end = sched.t_start + sched.rise_fall
    if sched.rise_fall > 0 and sched.v_on != sched.v_off:
        vgrid = np.linspace(min(sched.v_off, sched.v_on),
                            max(sched.v_off, sched.v_on), RAMP_SAMPLES)
        # ascending-power coefficients [power, interval] of up and of the
        # antiderivative of net, zero at the interval's left knot
        c = Pchip(vgrid, [rates(v) for v in vgrid.tolist()]).c[::-1]
        c_up, c_lnet = c[..., 0], poly.polyint(c[..., 1] - c[..., 0])
        slope = (sched.v_on - sched.v_off) / sched.rise_fall
        # the bias is linear on a ramp, so it meets the samples at evenly
        # spaced times
        fall_start = rise_end + sched.width
        edges.update(np.linspace(sched.t_start, rise_end, RAMP_SAMPLES).tolist())
        edges.update(np.linspace(fall_start, sched.t_end_pulse,
                                 RAMP_SAMPLES).tolist())
    seg_edges = sorted(b for b in edges if 0.0 <= b <= t_end)

    # each segment reads its level, or its ramp interval, at its midpoint;
    # on a ramp, each sample and the end is one integral to take
    segs, ramp = [], []
    for a, b in zip(seg_edges[:-1], seg_edges[1:]):
        j0, j1 = np.searchsorted(t_eval, [a, b], side="right")
        u = np.append(t_eval[j0:j1], b) - a   # the samples, then the end
        v = sched.voltage(0.5 * (a + b))
        segs.append((j0, j1, u, levels.get(v)))
        if v not in levels:
            i = min(max(int(np.searchsorted(vgrid, v, side="right")) - 1, 0),
                    RAMP_SAMPLES - 2)
            dvdt = slope if a < rise_end else -slope
            # s(u) = s_a + dvdt u: the bias above the interval's left knot
            s_a = v - vgrid[i] - 0.5 * dvdt * (b - a)
            ramp.extend((i, s_a, dvdt, x) for x in u)

    if ramp:
        ival, s_a, dvdt, ramp_u = np.array(ramp).T
        ival = ival.astype(int)
        pv = poly.polyval
        lnet_u = pv(s_a + dvdt * ramp_u, c_lnet[:, ival], tensor=False)
        gain = (lnet_u - pv(s_a, c_lnet[:, ival], tensor=False)) / dvdt

        def integrand(arg):
            x, own = arg
            s = s_a[own] + dvdt[own] * x
            k = ival[own]
            return (pv(s, c_up[:, k], tensor=False)
                    * np.exp((pv(s, c_lnet[:, k], tensor=False) - lnet_u[own])
                             / dvdt[own]))

        fed = adaptive_quad(integrand, np.zeros(ramp_u.size), ramp_u,
                            epsrel=RAMP_RTOL).value

    # (-log eta, n) at each sample; those at t = 0 keep the identity map
    log_eta, n = np.zeros(t_eval.size), np.zeros(t_eval.size)
    l_a, n_a, q = 0.0, 0.0, 0   # the map at the segment's start
    for j0, j1, u, level in segs:
        if level is not None:
            dl, dn = _relax(n_a, level[0], level[1] - level[0], u)
        else:
            dl, fed_u = gain[q:q + u.size], fed[q:q + u.size]
            q += u.size
            dn = n_a * np.exp(-dl) + fed_u
        log_eta[j0:j1] = l_a + dl[:-1]
        n[j0:j1] = dn[:-1]
        l_a, n_a = l_a + float(dl[-1]), float(dn[-1])
    return LadderTrajectory(t_eval, np.exp(-log_eta), n, init)


def extract_gamma_by_pulse_sweep(widths: Sequence[float],
                                 sched_template: PulseSchedule,
                                 env: RateSource,
                                 extra_gamma: float = 0.0,
                                 extra_occupation: float = 0.0, *,
                                 t_probe_before: float,
                                 t_probe_after: float,
                                 init: LadderState) -> float:
    """Pulse-induced damping rate recovered from a pulse-width sweep.

    For each flat-top width the ladder is simulated and the stored-field
    amplitude proxy sqrt(<n>) is probed before and after the pulse.  The
    log amplitude drop is linear in the width with slope
    -(gamma_pulse - gamma_off)/2; identical rise and fall edges only move
    the intercept.  Returns the damping added during the pulse on top of
    the off-state decay (so a zero-amplitude pulse extracts zero).
    """
    widths = [float(w) for w in widths]
    if len(set(widths)) < 4:
        raise FitError("need at least four distinct pulse widths")
    if any(w < 0 for w in widths):
        raise ValueError("pulse widths must be nonnegative")
    longest = replace(sched_template, width=max(widths))
    if not (t_probe_before <= sched_template.t_start
            and t_probe_after >= longest.t_end_pulse):
        raise ValueError("probe times must bracket every pulse")

    drops = []
    for w in widths:
        sched = replace(sched_template, width=w)
        traj = evolve(init, sched, env, extra_gamma, extra_occupation,
                      t_end=t_probe_after, t_eval=[t_probe_before, t_probe_after])
        amp = np.sqrt(traj.mean_n)
        if amp[0] <= 0 or amp[1] <= 0:
            raise FitError("stored field vanished at a probe time")
        drops.append(math.log(amp[1] / amp[0]))

    slope = float(np.polyfit(widths, drops, 1)[0])
    rate = -2.0 * slope
    if rate < 0:
        warnings.warn("extracted pulse rate is negative; widths may not "
                      "resolve the decay", stacklevel=2)
    return rate


def reset_infidelity(init: LadderState, hold: float, rates_on: RatePair,
                     extra_gamma: float = 0.0,
                     extra_occupation: float = 0.0) -> float:
    """Residual excitation 1 - p0 after holding the on-state bias.

    ``rates_on`` are the directed junction rates at the hold bias; the
    optional extra channel is added as in :func:`evolve`.
    """
    if hold <= 0:
        raise ValueError("hold time must be positive")
    sched = PulseSchedule(v_on=1.0, width=hold, v_off=1.0)
    traj = evolve(init, sched, lambda v: rates_on, extra_gamma,
                  extra_occupation, t_end=hold, t_eval=[hold])
    return float(1.0 - traj.ground_pop[-1])
