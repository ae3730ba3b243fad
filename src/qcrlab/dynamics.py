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
from dataclasses import replace
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from ._record import Frozen, Record, require_finite
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


class LadderState(Record):
    """Probability distribution over Fock states 0..n_cut."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float).copy()
        if self.probs.ndim != 1:
            raise ValueError("probs must be one-dimensional")
        # written so that NaN fails it
        bad = self.probs[~(self.probs >= -1e-12)]
        if bad.size:
            raise ValueError(f"probabilities must be nonnegative, got "
                             f"{bad[0].item()!r}")
        self.probs = np.clip(self.probs, 0.0, None)
        total = self.probs.sum()
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"probabilities must sum to one, got "
                             f"{total.item()!r}")

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
        """The distribution cut at ``n_cut``; the cut must keep 1 - 1e-6.

        ``fock_distribution`` checks ``mean_n``.
        """
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


class PulseSchedule(Frozen):
    """Trapezoidal bias waveform: off level, ramp, flat top, ramp, off."""

    v_on: float
    width: float
    rise_fall: float = 0.0
    t_start: float = 0.0
    v_off: float = 0.0

    def __post_init__(self):
        # written so that NaN fails it
        if not (self.width >= 0 and self.rise_fall >= 0
                and self.t_start >= 0):
            raise ValueError("schedule times must be nonnegative")
        require_finite(self, "v_on", "width", "rise_fall", "t_start",
                       "v_off")

    @property
    def t_end_pulse(self) -> float:
        return self.t_start + 2 * self.rise_fall + self.width

    def breakpoints(self) -> list[float]:
        r = self.rise_fall
        pts = [self.t_start, self.t_start + r,
               self.t_start + r + self.width, self.t_end_pulse]
        return sorted(set(pts))

    def voltage(self, t):
        """The bias at time ``t``; an array of times gives an array."""
        t = np.asarray(t, dtype=float)
        t0, r, t1 = self.t_start, self.rise_fall, self.t_end_pulse
        rise_end = t0 + r
        # with r = 0 no time is on a ramp, so its quotient is never read
        with np.errstate(divide="ignore", invalid="ignore"):
            ramp = self.v_off + (self.v_on - self.v_off) * np.where(
                t < rise_end, t - t0, t1 - t) / r
        v = np.where((t <= t0) | (t >= t1), self.v_off,
                     np.where((t < rise_end) | (t > rise_end + self.width),
                              ramp, self.v_on))
        return float(v) if v.ndim == 0 else v


class LadderTrajectory(Record):
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
        return p * _horner(1.0 - self.eta * p, self.init.probs)

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


def _horner(x, c):
    """``sum_k c[k] x^k`` over the first axis of ``c``, in the order of
    operations of ``numpy.polynomial.polynomial.polyval``."""
    y = c[-1] + x * 0
    for ck in c[-2::-1]:
        y = ck + y * x
    return y


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
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if extra_gamma < 0 or extra_occupation < 0:
        raise ValueError("extra channel parameters must be nonnegative")
    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, 201)
    t_eval = np.array(t_eval, dtype=float)
    # written so that NaN fails it
    if not ((t_eval >= 0).all() and (t_eval <= t_end).all()
            and (np.diff(t_eval) >= 0).all()):
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

    levels = {v: rates(v) for v in (sched.v_off, sched.v_on)}
    edges = {0.0, t_end, *sched.breakpoints()}
    rise_end = sched.t_start + sched.rise_fall
    if sched.rise_fall > 0 and sched.v_on != sched.v_off:
        vgrid = np.linspace(min(sched.v_off, sched.v_on),
                            max(sched.v_off, sched.v_on), RAMP_SAMPLES)
        # ascending-power coefficients [power, interval] of up and of the
        # antiderivative of net, zero at the interval's left knot
        c = Pchip(vgrid, [rates(v) for v in vgrid.tolist()]).c[::-1]
        c_up, c_net = c[..., 0], c[..., 1] - c[..., 0]
        c_lnet = np.concatenate([np.zeros((1, c_net.shape[1])),
                                 c_net / np.arange(1.0, 5.0)[:, None]])
        slope = (sched.v_on - sched.v_off) / sched.rise_fall
        # the bias is linear on a ramp, so it meets the samples at evenly
        # spaced times
        fall_start = rise_end + sched.width
        edges.update(np.linspace(sched.t_start, rise_end, RAMP_SAMPLES).tolist())
        edges.update(np.linspace(fall_start, sched.t_end_pulse,
                                 RAMP_SAMPLES).tolist())
    edges = np.array(sorted(b for b in edges if 0.0 <= b <= t_end))
    a, b = edges[:-1], edges[1:]

    # each segment reads its level, or its ramp interval, at its midpoint;
    # the flat axis holds every segment's end, then every sample after
    # t = 0, in the segment it ends or lies inside
    later = t_eval > 0.0
    in_seg = np.searchsorted(edges, t_eval[later]) - 1
    seg = np.concatenate([np.arange(a.size), in_seg])
    u = np.concatenate([b - a, t_eval[later] - a[in_seg]])

    v = sched.voltage(0.5 * (a + b))
    off = (v == sched.v_off)[seg]
    (up_off, down_off), (up_on, down_on) = (levels[sched.v_off],
                                            levels[sched.v_on])
    up = np.where(off, up_off, up_on)
    net = np.where(off, down_off - up_off, down_on - up_on)
    # on a level, -log eta gains net u; n decays by e^{-net u} and is fed
    # up (1 - e^{-net u})/net, or up u at net = 0
    dl = net * u
    decay = np.where(net == 0.0, 1.0, np.exp(-net * u))
    with np.errstate(divide="ignore", invalid="ignore"):
        fed = np.where(net == 0.0, up * u, -(up * np.expm1(-net * u) / net))
    ramp = ((v != sched.v_off) & (v != sched.v_on))[seg]
    if ramp.any():
        on = seg[ramp]      # the segment of each sample on a ramp
        i = np.clip(np.searchsorted(vgrid, v[on], side="right") - 1, 0,
                    RAMP_SAMPLES - 2)
        dvdt = np.where(a[on] < rise_end, slope, -slope)
        # s(u) = s_a + dvdt u: the bias above the interval's left knot
        s_a = v[on] - vgrid[i] - 0.5 * dvdt * (b[on] - a[on])
        ramp_u = u[ramp]
        lnet_u = _horner(s_a + dvdt * ramp_u, c_lnet[:, i])
        gain = (lnet_u - _horner(s_a, c_lnet[:, i])) / dvdt

        def integrand(arg):
            x, own = arg
            s = s_a[own] + dvdt[own] * x
            k = i[own]
            return (_horner(s, c_up[:, k])
                    * np.exp((_horner(s, c_lnet[:, k]) - lnet_u[own])
                             / dvdt[own]))

        dl[ramp] = gain
        decay[ramp] = np.exp(-gain)
        fed[ramp] = adaptive_quad(integrand, np.zeros(ramp_u.size), ramp_u,
                                  epsrel=RAMP_RTOL).value

    # chain the segment ends in plain floats: the map at each segment's start
    l_a, n_a = [0.0], [0.0]
    for dl_k, decay_k, fed_k in zip(dl[:a.size].tolist(),
                                    decay[:a.size].tolist(),
                                    fed[:a.size].tolist()):
        l_a.append(l_a[-1] + dl_k)
        n_a.append(n_a[-1] * decay_k + fed_k)
    # (-log eta, n) at each sample; those at t = 0 keep the identity map
    log_eta, n = np.zeros(t_eval.size), np.zeros(t_eval.size)
    log_eta[later] = np.array(l_a)[in_seg] + dl[a.size:]
    n[later] = np.array(n_a)[in_seg] * decay[a.size:] + fed[a.size:]
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
