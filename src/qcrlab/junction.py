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
  every coupling formula in :mod:`qcrlab.spectrum` scales it explicitly;
  its docstring gives the kernel, the cached interpolant and the accuracy.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ._record import Frozen, require_finite
from .errors import QuadratureError
from .quadrature import adaptive_quad
from .units import K_B, PLANCK


class JunctionParams(Frozen):
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
        Electron temperature of the normal-metal electrode (K), any
        value from zero up.
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
        if not self.temp_n >= 0:
            raise ValueError("electron temperature must be nonnegative")
        require_finite(self, "delta", "dynes", "r_t", "temp_n")


class DeviceConfig(Frozen):
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
        if not self.charging_energy >= 0:
            raise ValueError("charging energy must be nonnegative")
        require_finite(self, "charging_energy")


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
    return float(n) if n.ndim == 0 else n


def fermi(e, t: float):
    """Fermi occupation 1/(exp(e/kT)+1); a step with f(0)=1/2 at kT=0."""
    e = np.asarray(e, dtype=float)
    if t < 0:
        raise ValueError("temperature must be nonnegative")
    if K_B * t == 0:
        out = np.where(e < 0, 1.0, np.where(e > 0, 0.0, 0.5))
    else:
        # 1/(e^x + 1) through u = e^{-|x|} <= 1, which cannot overflow
        x = e / (K_B * t)
        u = np.exp(-np.abs(x))
        out = np.where(x > 0, u, 1.0) / (1.0 + u)
    return float(out) if out.ndim == 0 else out


def cumulative_dos(eps, p: JunctionParams):
    """Antiderivative N(eps) of ``dos`` with N(0) = 0, odd in energy.

    N(eps) = Re[sqrt(z - delta) sqrt(z + delta)], z = eps + i*dynes*delta,
    with principal roots (Dynes et al., PRL 41, 1509 (1978)).  That real
    part has the sign of ``eps``, so it is evaluated as
    ``sign(eps) Re sqrt((z - delta)(z + delta))``: one square root, and no
    cancellation inside the gap.  With ``dynes=0`` it is zero inside the
    gap and ``sign(eps)*sqrt(eps^2 - delta^2)`` outside it.
    """
    n = _shifted_cumulative_dos(np.asarray(eps, dtype=float), 0.0, p)
    return float(n) if n.ndim == 0 else n


def _shifted_cumulative_dos(e, x, p: JunctionParams) -> np.ndarray:
    """``cumulative_dos(e + x)`` with the gap factor (e - delta) + x, so
    a shift x far below the resolution of e still moves a sharp edge."""
    eps = e + x
    g = p.dynes * p.delta
    return np.copysign(np.sqrt(((e - p.delta) + x) * (eps + p.delta)
                               - g * g + 2j * g * eps).real, eps)


def _symmetric(steps: np.ndarray) -> np.ndarray:
    """Offsets ``0, ±steps``, sorted."""
    return np.concatenate([-steps[::-1], [0.0], steps])


# Breakpoint offsets in u = (eps - E)/kT.  dos has a square-root edge at
# delta, smeared on the dynes scale, so its offsets shrink geometrically,
# ``±4^-k`` span for k = 0 .. 8; the kernel peaks at u = 0 with
# exponential tails, so its panels widen as the tails fall,
# ``±(k^2 + 1)/2`` for k = 1 .. 8 (out to 32.5, where the tails are below
# 1e-14).
_GAP_GRADING = _symmetric(4.0 ** -np.arange(8.0, -1.0, -1.0))
_KINK_GRADING = _symmetric((np.arange(1.0, 9.0) ** 2 + 1.0) / 2.0)


def _kernel(b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The kernel K at eps = E + kT u, for b = E/kT and u >= -60.

    Every exponent is shifted by -(b + max(u, 0)), so nothing overflows
    and no term cancels.  A small term is raised to no less than e^-40 of
    the term it is added to, exp(-up) in the numerator and exp(lo) >=
    e^-60 in the denominator.  That is under half an ulp of the sum, so
    every sum keeps its bits, and exp stays off its slow subnormal and
    underflow paths.
    """
    up, lo = np.maximum(u, 0.0), np.minimum(u, 0.0)
    a, m = b + u, b + up
    ea, eb = np.exp(lo), np.exp(-up)
    num = -np.expm1(-2.0 * a) * ea * (np.exp(np.maximum(-m, -up - 40.0))
                                      + eb)
    den = (ea + np.exp(np.maximum(-a - m, lo - 40.0)) + eb
           + np.exp(np.maximum(-b - m, lo - 40.0)))
    return num / (den * den)


def _rate_at_temperature(e: np.ndarray, p: JunctionParams,
                         epsrel: float) -> np.ndarray:
    kt = K_B * p.temp_n
    b = e / kt

    def integrand(uk):
        u, k = uk
        return _shifted_cumulative_dos(e[k], kt * u, p) * _kernel(b[k], u)

    # panel edges graded toward the kink u = 0 and toward the gap edge let
    # the first Kronrod pass resolve both.  Far above the gap edge its
    # region weighs under e^-60 of the total, and so, since N increases,
    # does everything below u = -60
    gap_u = (p.delta - e) / kt
    pts = np.empty((e.size, _GAP_GRADING.size + _KINK_GRADING.size))
    pts[:, :_GAP_GRADING.size] = np.where(
        (gap_u < -60.0)[:, None], np.nan,
        gap_u[:, None] + _GAP_GRADING * min(30.0, p.delta / kt))
    pts[:, _GAP_GRADING.size:] = _KINK_GRADING
    top = np.maximum(gap_u, 0.0) + 60.0
    val, _ = adaptive_quad(integrand, np.maximum(-b, -60.0), top, points=pts,
                           epsrel=epsrel)
    return val / PLANCK


# Piecewise Chebyshev interpolant of log F(|E|) on first-kind points of
# degree 24; a panel is accepted once its last three coefficients are at
# most epsrel, which bounds the relative error of F itself.
_CHEB_N = 25
_CHEB_T = np.cos(np.pi * (np.arange(_CHEB_N) + 0.5) / _CHEB_N)
# values at _CHEB_T to coefficients: c_k = (2/n) sum_j f_j T_k(t_j), c_0/2
_CHEB_DCT = (2.0 / _CHEB_N) * np.cos(
    np.pi * np.outer(np.arange(_CHEB_N), np.arange(_CHEB_N) + 0.5) / _CHEB_N)
_CHEB_DCT[0] *= 0.5
# bases 0 and 1 start from panels no narrower than this many kT
_START_KT = 4.0


class _Base(NamedTuple):
    """The accepted panels of one dyadic base interval, sorted by energy."""

    lo: np.ndarray
    hi: np.ndarray
    coef: np.ndarray
    nodes: int      # energies integrated to build it, rejected panels too


@functools.lru_cache(maxsize=16)
def _published_bases(p: JunctionParams, epsrel: float) -> dict:
    """Base index -> complete ``_Base``, or None where F is not usable.

    Base 0 is ``[0, delta]`` and base k > 0 is ``[2^(k-1), 2^k] delta``.
    Every base is refined on its own, so extending the domain never
    changes a base already built; a base is stored only once complete.
    """
    return {}


def _start_panels(k: int, lo: float, hi: float,
                  p: JunctionParams) -> list[tuple[float, float]]:
    """First-round panels of base ``k``, halving toward its kinks.

    log F bends on the thermal scale at E = 0 and at the gap edge, so
    base 0 starts from panels halving toward both of its ends and base 1
    toward its lower end, down to about ``_START_KT`` kT; other bases
    start whole.  Bisection would reach these panels too, but only after
    integrating the parents it rejects on the way.
    """
    width = hi - lo
    depth = 0
    if k < 2:
        depth = max(int(math.log2(width / (_START_KT * K_B * p.temp_n))), 0)
    steps = [width * 0.5**i for i in range(1, depth + 1)]
    edges = sorted({lo, hi, *(lo + s for s in steps),
                    *(hi - s for s in steps if k == 0)})
    return list(zip(edges[:-1], edges[1:]))


def _build_panels(e_max: float, p: JunctionParams,
                  epsrel: float) -> _Base | None:
    """Panels covering ``[0, e_max]``, building each missing base whole.

    None, to integrate directly, when a node rate is not finite and
    positive, which marks that base unusable.
    """
    published = _published_bases(p, epsrel)
    edges = [0.0, p.delta]
    while edges[-1] < e_max:
        edges.append(2.0 * edges[-1])
    bases = [published.get(k, False) for k in range(len(edges) - 1)]
    if any(b is None for b in bases):
        return None
    # per base being built: accepted (lo, hi, coef) and energies integrated
    accepted = {k: [] for k, b in enumerate(bases) if not b}
    cost = dict.fromkeys(accepted, 0)
    pending = [(k, a, b) for k in accepted
               for a, b in _start_panels(k, edges[k], edges[k + 1], p)]
    while pending:
        ks, lo, hi = (np.array(v) for v in zip(*pending))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * _CHEB_T
        # an error at one node spreads over its whole panel, and the
        # quadrature's own estimate can be a few times optimistic
        rates = _rate_at_temperature(nodes.ravel(), p, epsrel / 10).reshape(
            nodes.shape)
        usable = (np.isfinite(rates) & (rates > 0.0)).all(axis=1)
        if not usable.all():
            published[int(ks[~usable][0])] = None
            return None
        # row sums, not a matrix product, so a panel's coefficients do not
        # depend on which other panels share the round
        coef = (np.log(rates)[:, None, :] * _CHEB_DCT).sum(axis=2)
        done = (np.abs(coef[:, -3:]) <= epsrel).all(axis=1)
        pending = []
        for k, a, m, b, c, ok in zip(ks.tolist(), lo, mid, hi, coef, done):
            cost[k] += _CHEB_N
            if ok:
                accepted[k].append((a, b, c))
            else:
                pending += [(k, a, m), (k, m, b)]
        for k in set(accepted) - {k for k, _, _ in pending}:
            lo_k, hi_k, coef_k = zip(*sorted(accepted.pop(k),
                                             key=lambda t: t[0]))
            bases[k] = published[k] = _Base(np.array(lo_k), np.array(hi_k),
                                             np.array(coef_k), cost[k])
    return _Base(*(np.concatenate([getattr(b, f) for b in bases])
                   for f in ("lo", "hi", "coef")),
                 sum(b.nodes for b in bases))


def _clenshaw(panels: _Base, x: np.ndarray) -> np.ndarray:
    """Evaluate the interpolant of log F at the sorted energies ``x``."""
    i = np.searchsorted(panels.hi, x)
    lo, hi, c = panels.lo[i], panels.hi[i], panels.coef[i]
    t2 = 2.0 * (2.0 * x - (lo + hi)) / (hi - lo)
    b1 = np.zeros(x.shape)
    b2 = np.zeros(x.shape)
    for k in range(_CHEB_N - 1, 0, -1):
        b1, b2 = c[:, k] + t2 * b1 - b2, b1
    return c[:, 0] + 0.5 * t2 * b1 - b2


def interpolant_size(p: JunctionParams, epsrel: float) -> tuple[int, int]:
    """Panels and integrated energies of the F(E) interpolant cached so far.

    Counts every base published for ``(p, epsrel)`` in this process;
    ``(0, 0)`` when no call has built one.
    """
    bases = [b for b in _published_bases(p, epsrel).values() if b is not None]
    return (sum(b.lo.size for b in bases), sum(b.nodes for b in bases))


def _unique(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(x, return_inverse=True)`` for a 1-d ``x`` without NaN."""
    order = x.argsort()
    xs = x[order]
    first = np.ones(xs.size, dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    inv = np.empty(xs.size, dtype=np.intp)
    inv[order] = first.cumsum() - 1
    return xs[first], inv


def _integrand_holds(e_max: float, p: JunctionParams) -> bool:
    """Whether the integrand of F holds every ``|E| <= e_max`` in doubles.

    It reaches energies up to twice ``e_max``, where the top interpolant
    base ends, plus the kernel's 60 kT tail.  ``N`` squares them, and the
    kernel doubles them in units of kT.
    """
    kt = K_B * p.temp_n
    top = 2.0 * max(e_max, p.delta) + 60.0 * kt
    return math.isfinite(top * top) and (kt == 0.0
                                         or math.isfinite(2.0 * top / kt))


def forward_rate(e_gain, p: JunctionParams, *, epsrel: float = 1e-11):
    """Normalised tunnelling rate F(E) for energy gain ``e_gain`` (1/s).

    F(E) = (1/h) * integral deps dos(eps) f(eps-E) [1 - f(eps)] with the
    occupations taken at the normal-metal electron temperature.  The
    superconductor side is assumed fully gapped in occupation (its
    quasiparticle distribution enters only through ``dos``).

    Integrated by parts with the odd antiderivative N = ``cumulative_dos``
    in the kink coordinate u = (eps - E)/kT, F(E) = (1/h) * integral du
    N(E + kT u) K over ``[max(-b, -60), (max(E, delta) - E)/kT + 60]``,
    K = sinh(a) (1 + e^b) / (2 (cosh a + cosh b)^2), a = b + u, b = E/kT.
    K is positive, so the integral does not cancel, and one integrand
    serves every smearing, zero included.  The Fermi kink sits at u = 0
    for every E, and K is computed from u, not from an energy rounded on
    the scale of E, so it stays resolved at any temperature above zero.
    At zero temperature, and wherever kT underflows to zero, F(E) =
    N(max(E, 0))/h in closed form.

    Vectorised: an array of energies gives an array of rates (a float
    gives a float), and each distinct ``|E|`` is integrated once, in one
    batched quadrature.  Negative energies come from detailed balance,
    F(-E) = exp(-E/kT) F(E), which is exact for this integrand and
    spares integrating exponentially small occupations.

    A call with at least 25 distinct ``|E|`` is served from a piecewise
    Chebyshev interpolant of ``log F`` over ``[0, max|E|]`` (Battles and
    Trefethen, SIAM J. Sci. Comput. 25, 1743 (2004)):
    each panel carries degree 24, its nodes are integrated at
    ``epsrel/10``, and it is bisected until its last three coefficients
    are at most ``epsrel``, so the interpolant agrees with the integral to
    about ``epsrel`` relative.  Panels are cached per ``(p, epsrel)`` on
    fixed dyadic intervals, and a missing interval is built whole, from
    panels halving toward its kinks at 0 and delta, so what a call returns
    depends only on its input, never on earlier calls.  A call
    integrates directly when a node rate of its intervals underflows or a
    node quadrature fails.

    Accuracy: a call with fewer than 25 distinct ``|E|`` integrates
    directly, with panel edges graded geometrically toward the gap edge
    and widening away from the kink.  The first Kronrod pass then
    resolves both: a scalar call at 1 nK to 0.3 K takes one or two
    refinement rounds at ``epsrel=1e-9``, three with ``dynes=0``, and up
    to 7 at ``1e-11`` with ``dynes=0``.  Nor is the error estimate fooled
    near the gap edge: over random junctions (0.01-0.3 K, dynes 0 and
    1e-6 to 1e-3) and energies crowded around it, the direct path stayed
    within 0.06 ``epsrel`` of the integral converged at ``epsrel/1000``.
    At 200 ueV and dynes 1e-4, F(E) meets its closed form to 2.5e-11 at
    1 uK and to 2e-14 from 10 nK down to 1e-300 K.

    Raises
    ------
    ValueError
        When an energy is not finite, the message naming the first one, or
        when the integrand cannot hold the largest ``|E|`` because its
        ``E/kT`` or the product inside ``N(E)`` overflows a double, the
        message naming that energy.
    QuadratureError
        When the integral at some energy does not converge; the message
        names that energy.
    """
    e = np.asarray(e_gain, dtype=float)
    bad = e[~np.isfinite(e)]
    if bad.size:
        raise ValueError(f"forward rate F(E) needs finite energies, got "
                         f"E = {float(bad[0])!r} J")
    mag, inv = _unique(np.abs(e).ravel())
    if mag.size and not _integrand_holds(float(mag[-1]), p):
        raise ValueError(f"forward rate F(E) at E = "
                         f"{float(e.flat[np.abs(e).argmax()])!r} J "
                         "overflows its integrand in doubles")
    if K_B * p.temp_n == 0.0:
        # the occupations collapse to the window (0, E), empty for E <= 0
        return cumulative_dos(np.maximum(e, 0.0), p) / PLANCK
    panels = None
    if mag.size >= _CHEB_N:
        try:
            panels = _build_panels(mag[-1], p, epsrel)
        except QuadratureError:
            # a build node failed: integrate the call's own energies, so
            # that any error names one of them
            pass
    try:
        rate = (_rate_at_temperature(mag, p, epsrel) if panels is None
                else np.exp(_clenshaw(panels, mag)))
    except QuadratureError as exc:
        i = int(np.argmax(inv == exc.problem))
        raise QuadratureError(
            f"forward rate F(E) at E = {float(e.flat[i])!r} J: {exc}",
            achieved=exc.achieved, problem=i) from exc
    out = (rate[inv].reshape(e.shape)
           * np.exp(np.minimum(e, 0.0) / (K_B * p.temp_n)))
    return float(out) if out.ndim == 0 else out
