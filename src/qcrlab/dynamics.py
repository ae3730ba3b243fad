"""Photon-number ladder dynamics under switched junction damping.

A single resonator mode is modelled as a birth--death chain on Fock
states 0..n_cut with downward rate m*down_tot and upward rate
(m+1)*up_tot, where the totals combine the junction rates at the
instantaneous bias with an optional extra linear channel (e.g. a
transmission line) of its own thermal occupation.

The solver integrates the chain with an adaptive explicit stepper, one
call per stretch of constant bias and, on ramps, one call per interval
between the knots of the monotone cubic that interpolates the rates in
bias (knot to knot), so no step straddles a jump of the rates' second
derivative.  The generator conserves total probability exactly, so norm
drift measures integration error and is checked.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, FitError, LeakageError
from .junction import DeviceConfig, JunctionParams
from .spectrum import (ModeParams, RatePair, fock_distribution,
                       transition_rates)

RateSource = Callable[[float], RatePair]

# Biases sampled along a ramp: the knots of its rate interpolant, and the
# ends of the pieces a ramp is integrated in.
RAMP_SAMPLES = 33


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call.

    Only ``evolve`` needs ``scipy.integrate``, the costliest import of
    the package, so commands that never integrate the ladder do not pay
    for it at start-up.
    """
    from scipy.integrate import solve_ivp as _solve_ivp
    return _solve_ivp(*args, **kwargs)


@dataclass
class LadderState:
    """Probability distribution over Fock states 0..n_cut."""

    probs: np.ndarray
    n_cut: int = 30

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float).copy()
        if self.probs.ndim != 1 or len(self.probs) != self.n_cut + 1:
            raise ValueError("probs must have length n_cut + 1")
        if np.any(self.probs < -1e-12):
            raise ValueError("probabilities must be nonnegative")
        self.probs = np.clip(self.probs, 0.0, None)
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to one")

    @classmethod
    def ground(cls, n_cut: int = 30) -> "LadderState":
        p = np.zeros(n_cut + 1)
        p[0] = 1.0
        return cls(p, n_cut)

    @classmethod
    def thermal(cls, mean_n: float, n_cut: int = 30) -> "LadderState":
        return cls._renormalised(mean_n, n_cut, "thermal")

    @classmethod
    def coherent(cls, mean_n: float, n_cut: int = 30) -> "LadderState":
        return cls._renormalised(mean_n, n_cut, "coherent")

    @classmethod
    def _renormalised(cls, mean_n: float, n_cut: int,
                      distribution: str) -> "LadderState":
        """The distribution cut at ``n_cut`` and rescaled to unit sum."""
        if mean_n < 0:
            raise ValueError("mean photon number must be nonnegative")
        p = fock_distribution(np.arange(n_cut + 1), mean_n, distribution)
        return cls(p / p.sum(), n_cut)

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
    """Sampled solution of the ladder master equation."""

    times: np.ndarray
    probs: np.ndarray  # shape (len(times), n_cut + 1)

    @property
    def mean_n(self) -> np.ndarray:
        m = np.arange(self.probs.shape[1])
        return self.probs @ m

    @property
    def ground_pop(self) -> np.ndarray:
        return self.probs[:, 0]

    def state_at(self, t: float) -> LadderState:
        """State at the sampled time closest to ``t``."""
        if not len(self.times):
            raise ValueError("trajectory holds no samples")
        i = int(np.argmin(np.abs(self.times - t)))
        return LadderState(self.probs[i], self.probs.shape[1] - 1)


class DcRateSource:
    """Memoised bias -> directed junction rates adapter."""

    def __init__(self, mode: ModeParams, j: JunctionParams, dev: DeviceConfig,
                 *, epsrel: float = 1e-11):
        self._mode = mode
        self._j = j
        self._dev = dev
        self._epsrel = epsrel
        self._cache: dict[float, RatePair] = {}

    def __call__(self, v: float) -> RatePair:
        r = self._cache.get(v)
        if r is None:
            r = transition_rates(v, self._mode, self._j, self._dev,
                                 epsrel=self._epsrel)
            self._cache[v] = r
        return r


def _total_rates(env_rates: RatePair, extra_gamma: float,
                 extra_occupation: float) -> tuple[float, float]:
    up = env_rates.up + extra_gamma * extra_occupation
    down = env_rates.down + extra_gamma * (1.0 + extra_occupation)
    return up, down


def _rhs_factory(n_cut: int):
    m = np.arange(n_cut + 1, dtype=float)
    up_out = m + 1.0
    up_out[-1] = 0.0  # closed top keeps the chain norm-conserving

    def rhs(p: np.ndarray, up: float, down: float) -> np.ndarray:
        dp = np.empty_like(p)
        dp[:] = -(down * m + up * up_out) * p
        dp[:-1] += down * m[1:] * p[1:]
        dp[1:] += up * up_out[:-1] * p[:-1]
        return dp

    return rhs


def _scalar_pchip(x: np.ndarray, y: np.ndarray) -> Callable[[float], tuple]:
    """PCHIP through the columns of ``y`` at knots ``x``, for one point.

    Reads the breakpoints and coefficients of scipy's
    ``PchipInterpolator`` once and sums each cubic in ascending powers
    of the offset from its interval's left knot, as scipy's evaluator
    does, so the values agree with it bit for bit while a call works on
    plain floats.  Outside ``[x[0], x[-1]]`` the end cubics extrapolate.
    """
    from scipy.interpolate import PchipInterpolator
    pp = PchipInterpolator(x, y)
    knots = pp.x.tolist()
    last = len(knots) - 2
    # coef[i][j]: ascending-power coefficients of column j on interval i
    coef = pp.c[::-1].transpose(1, 2, 0).tolist()

    def at(v: float) -> tuple:
        i = min(max(bisect_right(knots, v) - 1, 0), last)
        s = v - knots[i]
        out = []
        for cs in coef[i]:
            res, z = 0.0, 1.0
            for c in cs:
                res += c * z
                z *= s
            out.append(res)
        return tuple(out)

    return at


def evolve(init: LadderState, sched: PulseSchedule, env: RateSource,
           extra_gamma: float = 0.0, extra_occupation: float = 0.0,
           t_end: float | None = None, *, t_eval: Sequence[float] | None = None,
           rtol: float = 1e-10, atol: float = 1e-14) -> LadderTrajectory:
    """Integrate the ladder over the pulse waveform up to ``t_end``.

    ``env`` maps a device bias to directed junction rates; it is sampled
    only at the waveform levels and at ``RAMP_SAMPLES`` evenly spaced
    biases along ramps, which a monotone cubic (PCHIP) bridges, so
    expensive rate evaluations are not repeated inside the stepper.
    Ramps are integrated knot to knot: each ramp is split at the times
    its bias crosses a sample, where the interpolant's second derivative
    jumps, and each piece is one stepper call.
    """
    if t_end is None:
        t_end = sched.t_end_pulse
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if extra_gamma < 0 or extra_occupation < 0:
        raise ValueError("extra channel parameters must be nonnegative")
    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, 201)
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < 0) or np.any(t_eval > t_end) or np.any(np.diff(t_eval) < 0):
        raise ValueError("t_eval must be sorted inside [0, t_end]")

    n_cut = init.n_cut
    rhs = _rhs_factory(n_cut)

    flat_levels = {sched.v_off, sched.v_on}
    rate_of_v: dict[float, tuple[float, float]] = {
        v: _total_rates(env(v), extra_gamma, extra_occupation)
        for v in flat_levels}

    edges = {0.0, t_end, *sched.breakpoints()}
    ramp = None
    if sched.rise_fall > 0 and sched.v_on != sched.v_off:
        vlo = min(sched.v_off, sched.v_on)
        vhi = max(sched.v_off, sched.v_on)
        vgrid = np.linspace(vlo, vhi, RAMP_SAMPLES)
        ramp = _scalar_pchip(vgrid, np.array(
            [_total_rates(env(v), extra_gamma, extra_occupation)
             for v in vgrid]))
        # the bias is linear on a ramp, so it meets the samples at evenly
        # spaced times
        rise_end = sched.t_start + sched.rise_fall
        fall_start = rise_end + sched.width
        edges.update(np.linspace(sched.t_start, rise_end, RAMP_SAMPLES).tolist())
        edges.update(np.linspace(fall_start, sched.t_end_pulse,
                                 RAMP_SAMPLES).tolist())

    def rates_at(t: float) -> tuple[float, float]:
        v = sched.voltage(t)
        hit = rate_of_v.get(v)
        if hit is not None:
            return hit
        assert ramp is not None
        return ramp(v)

    seg_edges = sorted(b for b in edges if 0.0 <= b <= t_end)

    times_out: list[float] = []
    probs_out: list[np.ndarray] = []
    p = init.probs.copy()
    if t_eval[0] == 0.0:
        times_out.append(0.0)
        probs_out.append(p.copy())
        t_eval = t_eval[1:]

    for a, b in zip(seg_edges[:-1], seg_edges[1:]):
        sub = t_eval[(t_eval > a) & (t_eval <= b)]
        constant = sched.voltage(0.5 * (a + b)) in rate_of_v and (
            sched.voltage(float(np.nextafter(a, b)))
            == sched.voltage(float(np.nextafter(b, a))))
        if constant:
            u, d = rates_at(0.5 * (a + b))
            fun = lambda t, y, u=u, d=d: rhs(y, u, d)
        else:
            fun = lambda t, y: rhs(y, *rates_at(t))
        # the end state comes from the same solve: b is sampled with the
        # rest, or, with nothing to sample, is where the last step ends
        ask = sub if not len(sub) or sub[-1] == b else np.append(sub, b)
        sol = solve_ivp(fun, (a, b), p, method="DOP853", rtol=rtol, atol=atol,
                        t_eval=ask if len(ask) else None)
        if not sol.success:
            raise ConvergenceError(f"ladder integration failed: {sol.message}")
        times_out.extend(sub.tolist())
        probs_out.extend(sol.y[:, :len(sub)].T)
        p = sol.y[:, -1]

    probs = np.vstack(probs_out) if probs_out else np.empty((0, n_cut + 1))
    times = np.asarray(times_out)

    norm_drift = np.abs(probs.sum(axis=1) - 1.0)
    if probs.size and norm_drift.max() > 1e-9:
        raise ConvergenceError(
            f"probability drifted by {norm_drift.max():.2e}; tighten tolerances")
    if probs.size and probs[:, -1].max() > 1e-6:
        raise LeakageError(
            f"top-level population reached {probs[:, -1].max():.2e}; "
            "raise n_cut")
    return LadderTrajectory(times, probs)


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
