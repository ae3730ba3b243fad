"""High-bias junction photon source and amplification-chain calibration.

Above the gap the junction environment runs hot and the resonator emits
into its transmission line.  This module covers the emitted-power model,
Bose-occupation bookkeeping, the high-voltage input-power expansion, the
aV + b + c/V output-power fit yielding chain gain and noise temperature,
and the one-port reflection fit supplying the damping rates.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Sequence

import numpy as np

from ._record import Frozen, require_finite
from .errors import (ConfigError, FitError, GridError,
                     UndefinedSteadyStateError)
from .junction import DeviceConfig, JunctionParams
from .spectrum import ModeParams, RatePair, transition_rates
from .tableio import read_table
from .units import E_CHARGE, HBAR, K_B


class PhotonSourceParams(Frozen):
    """Resonator-to-line coupling geometry for the emitted-power formula."""

    c_coupling: float   # coupling capacitance (F)
    omega0: float       # fundamental angular frequency (rad/s)
    z0: float           # transmission-line impedance (ohm)
    l_res: float        # resonator length (m)
    c_per_len: float    # capacitance per unit length (F/m)

    def __post_init__(self):
        names = ("c_coupling", "omega0", "z0", "l_res", "c_per_len")
        for name in names:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        require_finite(self, *names)
        if not math.isfinite(_emission_prefactor(self)):
            raise ValueError("the emitted-power prefactor 2 c_coupling^2 "
                             "hbar omega0^3 z0 / (l_res c_per_len) overflows "
                             f"a double at c_coupling = {self.c_coupling!r} "
                             f"F, omega0 = {self.omega0!r} rad/s")


class CalibrationParams(Frozen):
    """Rates and occupations entering the high-voltage power expansion."""

    gamma_tr: float     # resonator-line coupling rate (1/s)
    gamma_t_bar: float  # junction damping in the high-bias limit (1/s)
    gamma_x: float      # excess-loss rate (1/s)
    n_tr: float         # transmission-line photon number
    n_x: float          # excess-bath photon number
    omega_r: float      # resonator angular frequency (rad/s)
    delta: float        # gap energy (J)

    def __post_init__(self):
        names = ("gamma_tr", "gamma_t_bar", "gamma_x", "n_tr", "n_x")
        for name in names:
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.omega_r > 0:
            raise ValueError("omega_r must be positive")
        if not self.delta >= 0:
            raise ValueError("delta must be nonnegative")
        require_finite(self, *names, "omega_r", "delta")


class CalibrationRecord(Frozen):
    """Result of the output-power fit and derived chain figures."""

    a: float            # W/V
    b: float            # W
    c: float            # W*V
    gain: float
    t_noise: float      # K
    residual: float     # RMS W

    def __post_init__(self):
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")

    def as_dict(self) -> dict:
        return asdict(self)


def _emission_prefactor(p: PhotonSourceParams) -> float:
    # products, which overflow to inf where a float power would raise
    return 2.0 * (p.c_coupling * p.c_coupling) * HBAR \
        * (p.omega0 * p.omega0 * p.omega0) * p.z0 / (p.l_res * p.c_per_len)


def output_power(p: PhotonSourceParams, n_res: float, n_tl: float) -> float:
    """Net power emitted into the line for given mode/line occupations."""
    return _emission_prefactor(p) * (n_res - n_tl)


def bose_occupation(t: float, omega: float) -> float:
    if t <= 0:
        raise ValueError("temperature must be positive")
    if omega <= 0:
        raise ValueError("frequency must be positive")
    return 1.0 / math.expm1(HBAR * omega / (K_B * t))


def temp_from_occupation(n: float, omega: float) -> float:
    if n <= 0:
        raise ValueError("occupation must be positive")
    if omega <= 0:
        raise ValueError("frequency must be positive")
    return HBAR * omega / (K_B * math.log1p(1.0 / n))


def p_tr_model(v: float, cp: CalibrationParams) -> float:
    """Input power to the line in the high-bias expansion (valid eV >> 2*gap)."""
    if v == 0:
        raise ZeroDivisionError("input-power model diverges at zero bias")
    if v < 0:
        raise ValueError("model domain is positive bias")
    gsum = cp.gamma_tr + cp.gamma_t_bar + cp.gamma_x
    if gsum == 0:
        return 0.0
    pref = cp.gamma_tr * cp.gamma_t_bar / gsum
    if pref == 0.0:
        return 0.0
    bracket = cp.gamma_x * (cp.n_x - cp.n_tr) / cp.gamma_t_bar \
        - cp.n_tr - 0.5
    body = 0.25 * E_CHARGE * v + HBAR * cp.omega_r * bracket \
        - 0.5 * (cp.delta * cp.delta / (E_CHARGE * v)) \
        * (1.0 + cp.gamma_t_bar / gsum)
    return pref * body


def _unfittable(x: np.ndarray) -> np.ndarray:
    """Where the output-power fit cannot hold ``x``: not finite, or
    ``len(x) * x**2`` overflows, which bounds the sums of squares of its
    column norms and its residual."""
    with np.errstate(over="ignore"):
        return ~np.isfinite(len(x) * x * x)


def _unfittable_bias(v: np.ndarray) -> np.ndarray:
    """Where the fit cannot hold the positive bias ``v`` or its inverse."""
    with np.errstate(over="ignore"):
        return _unfittable(v) | _unfittable(1.0 / v)


def fit_output_power(samples: Sequence[tuple[float, float]]
                     ) -> tuple[float, float, float, float]:
    """Least-squares (a, b, c, rms) for P_out = a*V + b + c/V; a sample
    whose V, 1/V or P the fit cannot square is a ``FitError`` naming it."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be (V, P) pairs")
    if not np.isfinite(arr).all():
        raise ValueError("samples must be finite")
    v, p = arr[:, 0], arr[:, 1]
    if len(set(v.tolist())) < 3:
        raise FitError("need at least three distinct bias points")
    if np.any(v <= 0):
        raise ValueError("bias points must be positive")
    bad = np.flatnonzero(_unfittable_bias(v) | _unfittable(p))
    if bad.size:
        i = bad[0]
        raise FitError(f"output-power fit overflows at sample {i + 1}: bias "
                       f"{float(v[i])!r} V, power {float(p[i])!r} W; it "
                       "squares V, 1/V and P")
    design = np.column_stack([v, np.ones_like(v), 1.0 / v])
    scale = np.linalg.norm(design, axis=0)
    coef, _, rank, _ = np.linalg.lstsq(design / scale, p, rcond=None)
    if rank < 3:
        raise FitError("degenerate basis: bias points are collinear "
                       "in (V, 1, 1/V)")
    coef = coef / scale
    resid = p - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return float(coef[0]), float(coef[1]), float(coef[2]), rms


def gain_from_fit(a: float, cp: CalibrationParams) -> float:
    """Chain gain from the linear fit coefficient and the known rates."""
    if cp.gamma_t_bar <= 0 or cp.gamma_tr <= 0:
        raise ValueError("gain requires positive junction and line rates")
    return (4.0 * a / E_CHARGE) \
        * (cp.gamma_t_bar + cp.gamma_tr + cp.gamma_x) \
        / (cp.gamma_t_bar * cp.gamma_tr)


def noise_temperature(p_out_zero: float, gain: float, bw: float) -> float:
    """Chain noise temperature from the zero-bias output power."""
    if gain <= 0:
        raise ValueError("gain must be positive")
    if bw <= 0:
        raise ValueError("bandwidth must be positive")
    return p_out_zero / (gain * K_B * bw)


def reflection_model(omega: np.ndarray, omega_r: float, gamma_tr: float,
                     gamma_int: float) -> np.ndarray:
    """One-port reflection off a resonator with internal and line loss."""
    dw = 1j * (np.asarray(omega, dtype=float) - omega_r)
    return (dw + 0.5 * (gamma_int - gamma_tr)) \
        / (dw + 0.5 * (gamma_int + gamma_tr))


def _real_rows(z: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of ``z`` stacked as rows of one real array."""
    return np.concatenate([z.real, z.imag])


def _gauss_newton(x: np.ndarray, gamma: np.ndarray, p: np.ndarray,
                  free: np.ndarray) -> np.ndarray:
    """Gauss-Newton on ``reflection_model - gamma`` over the ``free``
    entries of ``p = (omega_r, gamma_tr, gamma_int)``.  Each step is halved
    until it lowers the sum of squares; the search stops once the step is
    below 1e-14 of the largest parameter."""
    def cost(q):
        return float(np.sum(np.abs(reflection_model(x, *q) - gamma) ** 2))

    best = cost(p)
    for _ in range(100):
        den = 1j * (x - p[0]) + 0.5 * (p[1] + p[2])
        model = reflection_model(x, *p)
        jac = np.column_stack([-1j * p[1] / den ** 2,
                               -(1.0 + model) / (2.0 * den),
                               (1.0 - model) / (2.0 * den)]) * free
        step = np.linalg.lstsq(_real_rows(jac), _real_rows(gamma - model),
                               rcond=None)[0] * free
        while np.abs(step).max() > 1e-14 * np.abs(p).max():
            trial = cost(p + step)
            if trial < best:
                break
            step /= 2
        else:
            return p
        p, best = p + step, trial
    raise FitError("reflection fit did not converge")


def fit_reflection(trace: Sequence[tuple[float, complex]]
                   ) -> tuple[float, float, float]:
    """(omega_r, gamma_tr, gamma_int) from a complex reflection trace.

    The model ``(i(w - w_r) + a)/(i(w - w_r) + b)``, with
    ``a = (gamma_int - gamma_tr)/2`` and ``b = (gamma_int + gamma_tr)/2``,
    is a Moebius map of ``w``, so ``gamma (i(w - w_r) + b) = i(w - w_r) + a``
    is linear in ``(w_r, a, b)`` (Probst et al., Rev. Sci. Instrum. 86,
    024706 (2015)).  Its least-squares solution starts Gauss-Newton on the
    true residual.  A rate whose optimum is negative is held at 0 while
    the others are refitted.
    """
    omega = np.array([float(t[0]) for t in trace])
    gamma = np.array([complex(t[1]) for t in trace])
    if not (np.isfinite(omega).all() and np.isfinite(gamma).all()):
        raise ValueError("reflection trace must be finite")
    if len(omega) < 7:
        raise FitError("reflection trace too short to constrain three "
                       "parameters")
    order = np.argsort(omega)
    omega, gamma = omega[order], gamma[order]
    # frequencies relative to the centre of the trace keep the unknowns on
    # the scale of the linewidth
    centre = 0.5 * (omega[0] + omega[-1])
    x = omega - centre
    design = np.column_stack([1j * (gamma - 1.0), np.ones_like(gamma),
                              -gamma])
    (shift, a, b), _, rank, _ = np.linalg.lstsq(
        _real_rows(design), _real_rows(1j * x * (gamma - 1.0)), rcond=None)
    if rank < 3:
        raise FitError("degenerate reflection trace: no resonance to fit")
    p = np.array([shift, b - a, a + b])
    free = np.ones(3, dtype=bool)
    p = _gauss_newton(x, gamma, p, free)
    while (p[1:] < 0).any():
        free[1:] &= p[1:] >= 0
        p[~free] = 0.0
        p = _gauss_newton(x, gamma, p, free)
    wr, gtr, gint = float(centre + p[0]), float(p[1]), float(p[2])
    linewidth = gtr + gint
    span = omega[-1] - omega[0]
    if linewidth <= 0 or span < 5.0 * linewidth:
        raise GridError("trace must span at least five linewidths")
    # twice the median step, without np.median, which imports numpy.ma
    steps = np.sort(np.diff(omega))
    if linewidth < steps[(len(steps) - 1) // 2] + steps[len(steps) // 2]:
        raise GridError("linewidth unresolved by the frequency grid")
    return wr, gtr, gint


def two_bath_occupation(gamma_a, n_a, gamma_b, n_b):
    """Steady occupation of a mode damped by two thermal channels."""
    if np.any(gamma_a < 0) or np.any(gamma_b < 0):
        raise ValueError("rates must be nonnegative")
    tot = gamma_a + gamma_b
    if np.any(tot == 0):
        raise ValueError("at least one channel must couple")
    return (gamma_a * n_a + gamma_b * n_b) / tot


def junction_occupation(rates: RatePair):
    """Effective photon number of the junction environment, up/(down-up)."""
    if np.any(rates.down <= rates.up):
        raise ValueError("environment occupation undefined without net "
                         "damping")
    return rates.up / (rates.down - rates.up)


class SourcePoint(Frozen):
    """Composed photon-source observables at one bias, or over a bias array."""

    bias: float
    gamma_t: float
    n_res: float
    power: float
    t_res: float


def source_sweep_point(v, src: PhotonSourceParams,
                       mode: ModeParams, j: JunctionParams,
                       dev: DeviceConfig, *, gamma_tr: float,
                       n_tr: float, epsrel: float = 1e-11) -> SourcePoint:
    """Emitted power and mode temperature with the junction rates composed in.

    The mode relaxes to the two-bath steady state between the line
    (gamma_tr, n_tr) and the junction environment at the given bias; the
    emitted power follows from the resulting occupation imbalance.
    Broadcasts over device biases ``v`` as ``transition_rates`` does.
    """
    rates = transition_rates(v, mode, j, dev, epsrel=epsrel)
    gamma_t = rates.down - rates.up
    bad = np.ravel(v)[np.ravel(gamma_t) <= 0]
    if bad.size:
        raise UndefinedSteadyStateError("junction channel must damp the mode "
                                        f"at bias {float(bad[0])!r} V")
    n_t = junction_occupation(rates)
    n_res = two_bath_occupation(gamma_tr, n_tr, gamma_t, n_t)
    with np.errstate(over="ignore"):
        power = output_power(src, n_res, n_tr)
    bad = np.ravel(v)[~np.isfinite(np.ravel(power))]
    if bad.size:
        raise ValueError("the emitted power overflows a double at bias "
                         f"{float(bad[0])!r} V")
    # math.log1p one element at a time: numpy's can differ in the last bit
    t_res = [temp_from_occupation(n, src.omega0) if n > 0 else 0.0
             for n in np.ravel(n_res).tolist()]
    t_res = t_res[0] if np.ndim(v) == 0 else np.reshape(t_res, np.shape(v))
    return SourcePoint(bias=v, gamma_t=gamma_t, n_res=n_res, power=power,
                       t_res=t_res)


def calibration_pipeline(samples: Sequence[tuple[float, float]],
                         p_out_zero: float, cp: CalibrationParams,
                         bw: float) -> CalibrationRecord:
    """Fit the output-power sweep and derive chain gain and noise; a
    fitted slope that gives no positive gain, and a fit that overflows to
    a gain, noise temperature or residual that is not finite, are each a
    ``FitError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c, rms = fit_output_power(samples)
    g = gain_from_fit(a, cp)
    if not g > 0:
        raise FitError(f"fitted slope a = {a!r} W/V gives a chain gain of "
                       f"{g!r}, not a positive one")
    tn = noise_temperature(p_out_zero, g, bw)
    if not all(map(math.isfinite, (g, tn, rms))):
        raise FitError(f"the output-power fit overflows: gain {g!r}, noise "
                       f"temperature {tn!r} K, residual {rms!r} W")
    return CalibrationRecord(a=a, b=b, c=c, gain=g, t_noise=tn, residual=rms)


def _finite_columns(path: str, *names: str) -> list[np.ndarray]:
    """The named columns of the table at ``path``; ConfigError naming the
    file, column and data row of the first sample that is not finite."""
    table = read_table(path)
    cols = [table.column(name) for name in names]
    for name, col in zip(names, cols):
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise ConfigError(f"{path}: column {name!r} holds "
                              f"{float(col[bad[0]])!r} in data row "
                              f"{bad[0] + 1}, not a finite number")
    return cols


def load_power_samples(path: str) -> list[tuple[float, float]]:
    """Read (bias_V, power_W) pairs from a measurement-style CSV; every
    bias must be positive, the domain of the output-power fit, and no
    row may overflow that fit."""
    v, p = _finite_columns(path, "bias_V", "power_W")
    bad = np.flatnonzero(v <= 0)
    if bad.size:
        raise ConfigError(f"{path}: column 'bias_V' holds {float(v[bad[0]])!r}"
                          f" in data row {bad[0] + 1}, not a positive bias")
    bias_bad = _unfittable_bias(v)
    bad = np.flatnonzero(bias_bad | _unfittable(p))
    if bad.size:
        i = bad[0]
        name, col = ("bias_V", v) if bias_bad[i] else ("power_W", p)
        raise ConfigError(f"{path}: column {name!r} holds {float(col[i])!r} "
                          f"in data row {i + 1}, which overflows the "
                          "output-power fit")
    return list(zip(v.tolist(), p.tolist()))


def load_reflection_trace(path: str) -> list[tuple[float, complex]]:
    """Read (freq_Hz, re_gamma, im_gamma) rows, returning angular frequency."""
    f, re, im = _finite_columns(path, "freq_Hz", "re_gamma", "im_gamma")
    return [(2.0 * math.pi * fi, complex(r, i))
            for fi, r, i in zip(f.tolist(), re.tolist(), im.tolist())]
