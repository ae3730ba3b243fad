"""Principal-value quadrature and broadband frequency pull."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad

from qcrlab import (DeviceConfig, JunctionParams, ModeParams,
                    SpectralDensity, lamb_shift, pv_integral)
from qcrlab.errors import GridError
from qcrlab.lamb import _rate_over_omega, default_grid
from qcrlab.quadrature import adaptive_quad
from qcrlab.spectrum import tabulate_spectrum
from qcrlab.units import E_CHARGE, ghz_to_omega, uev_to_joule

WR = 2.0 * math.pi * 4.67e9


class TestPvIntegral:
    # each case passes the regular factor g of an integrand g(w)/(w - pole)

    def test_shifted_identity_plus_pole(self):
        # w/(w-1) = 1 + 1/(w-1); the PV of the pole term over the
        # symmetric interval (0, 2) vanishes, leaving exactly 2
        val, err = pv_integral(lambda w: w, 1.0, 0.0, 2.0)
        assert val == pytest.approx(2.0, abs=1e-9)
        assert err < 1e-6

    def test_even_denominator_finite_cutoff(self):
        # PV of 1/(w^2 - a^2) over (0, X) is (1/2a) ln((X-a)/(X+a));
        # at X = 1e6 a that is about -1e-6/a, small but not zero
        a = 3.7
        cutoff = 1e6 * a
        val, _ = pv_integral(lambda w: 1.0 / (w + a), a, 0.0, cutoff)
        exact = (1.0 / (2.0 * a)) * math.log((cutoff - a) / (cutoff + a))
        assert val == pytest.approx(exact, rel=1e-5)
        assert abs(val) < 2e-6 / a  # vanishes in the infinite-cutoff limit

    def test_odd_about_pole_vanishes(self):
        # (w-5)/((w-5)^2+1) is odd about the pole: the sides cancel
        val, _ = pv_integral(
            lambda w: (w - 5.0) ** 2 / ((w - 5.0) ** 2 + 1.0), 5.0, 3.0, 7.0)
        assert abs(val) < 1e-10

    def test_breakpoints_capture_narrow_feature(self):
        # a bump far from the pole must contribute even when it is much
        # narrower than the surrounding panels
        lo, hi = 2.0, 2.002

        def bump(w):
            w = np.asarray(w)
            return np.where((w >= lo) & (w <= hi), 1.0, 0.0)

        val, _ = pv_integral(bump, 1.0, 0.0, 10.0, points=(lo, hi))
        exact = math.log((hi - 1.0) / (lo - 1.0))
        assert val == pytest.approx(exact, rel=1e-10)

    def test_nearly_constant_factor(self):
        # the regular rest (g(w) - g(pole))/(w - pole) is 1e-10 here, far
        # below the rounding of g itself, and must still converge
        lo, hi, pole, tilt = 0.0, 5.0, 2.0, 1e-10
        val, _ = pv_integral(lambda w: 2.0 + tilt * w, pole, lo, hi)
        log = math.log((hi - pole) / (pole - lo))
        exact = 2.0 * log + tilt * ((hi - lo) + pole * log)
        assert val == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("hi, exact", [
        (2.0, -2.0),                  # both sides' remainders equal -g(1)
        (4.0, math.log(3.0) - 4.0),   # the left side's alone does
    ])
    def test_remainder_cancelling_the_pole_value(self, hi, exact):
        # (2 - w)/(w - 1) = 1/(w - 1) - 1: each side's regular rest
        # integrates -1 per unit length, against g(pole) = 1
        val, _ = pv_integral(lambda w: 2.0 - w, 1.0, 0.0, hi)
        assert val == pytest.approx(exact, rel=1e-13)

    @given(lo=st.floats(-3.0, 3.0), width=st.floats(0.1, 10.0),
           frac=st.floats(0.02, 0.98), c=st.floats(-2.0, 2.0),
           side=st.sampled_from(["left", "right"]))
    def test_linear_factor_with_one_side_cancelling(self, lo, width, frac,
                                                    c, side):
        # g = c + k (w - pole): the regular rest is k on both sides, and
        # k is chosen so that one side integrates to exactly -|c|
        hi = lo + width
        pole = lo + frac * width
        assume(lo < pole < hi and abs(c) > 1e-3)
        k = -abs(c) / ((pole - lo) if side == "left" else (hi - pole))
        val, _ = pv_integral(lambda w: c + k * (w - pole), pole, lo, hi)
        log = math.log((hi - pole) / (pole - lo))
        exact = c * log + k * (hi - lo)
        assert abs(val - exact) <= 1e-12 * (abs(c * log) + abs(k) * width)

    def test_pole_must_be_interior(self):
        with pytest.raises(ValueError):
            pv_integral(lambda w: w, 3.0, 0.0, 2.0)

    @pytest.mark.parametrize("f", [
        lambda w: 1.0 / (w - 1.0),
        lambda w: (w - 1.0) / (w - 1.0),
    ], ids=["inf", "nan"])
    def test_singular_factor_at_pole_rejected(self, f):
        # a caller passing the whole integrand, pole included, fails loudly
        with pytest.raises(ValueError, match="finite at the pole"):
            pv_integral(f, 1.0, 0.0, 2.0)


def cauchy_oracle(g, pole, lo, hi):
    # QUADPACK QAWC: an independent principal-value quadrature
    val, _ = quad(lambda w: float(g(np.array([w]))[0]), lo, hi,
                  weight="cauchy", wvar=pole, epsabs=0.0, epsrel=1e-12,
                  limit=200)
    return val


coef = st.floats(-2.0, 2.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestPvIntegralOracle:
    # QAWC flags roundoff at its tight tolerance; its values still agree

    @given(lo=st.floats(-3.0, 3.0), width=st.floats(0.1, 10.0),
           frac=st.floats(0.02, 0.98), a=coef, b=coef, c=coef,
           k=st.floats(0.0, 5.0), phase=st.floats(0.0, 6.3),
           centre=st.floats(-3.0, 13.0),
           knots=st.lists(st.floats(0.0, 1.0), max_size=6),
           hug=st.sampled_from([None, -math.inf, math.inf]))
    def test_matches_qawc(self, lo, width, frac, a, b, c, k, phase, centre,
                          knots, hug):
        hi = lo + width
        pole = lo + frac * width
        assume(lo < pole < hi)

        def g(w):
            return (a + b * np.sin(k * w + phase)
                    + c * np.exp(-(w - centre) ** 2))

        points = [lo + x * width for x in knots]
        if hug is not None:     # a knot one ulp off the pole
            points.append(float(np.nextafter(pole, hug)))
        val, err = pv_integral(g, pole, lo, hi, points=tuple(points))
        ref = cauchy_oracle(g, pole, lo, hi)
        scale = abs(a) + abs(b) + abs(c)
        assert abs(val - ref) <= 1e-10 * abs(ref) + 1e-11 * scale
        assert err >= 0.0

    @given(pole=st.floats(-3.0, 3.0), half=st.floats(0.1, 5.0), a=coef,
           b=coef, c=coef, k=st.floats(0.0, 5.0),
           hug=st.sampled_from([None, -math.inf, math.inf]))
    def test_odd_integrand_sides_cancel(self, pole, half, a, b, c, k, hug):
        # g even about the pole makes g/(w - pole) odd: the PV is zero
        def g(w):
            x = w - pole
            return a + b * np.cos(k * x) + c * np.exp(-x * x)

        points = (() if hug is None
                  else (float(np.nextafter(pole, hug)),))
        val, _ = pv_integral(g, pole, pole - half, pole + half,
                             points=points)
        ref = cauchy_oracle(g, pole, pole - half, pole + half)
        scale = abs(a) + abs(b) + abs(c)
        assert abs(val) <= 1e-11 * scale
        assert abs(val - ref) <= 1e-10 * scale


def ohmic_density(slope: float, points: int = 801) -> SpectralDensity:
    grid = default_grid(WR, points=points)
    return SpectralDensity(grid, slope * grid)


class TestLambShift:
    def test_ohmic_spectrum_pulls_nothing(self):
        c = 123.0 / WR
        res = lamb_shift(ohmic_density(c), WR)
        assert abs(res.shift) < 1e-6 * c * WR

    def test_narrow_band_closed_form(self):
        w0, width, g0 = 2.0 * WR, 2.0 * WR / 100.0, 4.4e5
        lo_e, hi_e = w0 - width / 2.0, w0 + width / 2.0
        pad = 1e-4 * width
        base = np.geomspace(WR / 50.0, 50.0 * WR, 401)
        band = np.linspace(lo_e, hi_e, 2001)
        grid = np.unique(np.concatenate([base, [lo_e - pad, hi_e + pad],
                                         band]))
        vals = np.where((grid >= lo_e) & (grid <= hi_e), g0, 0.0)
        res = lamb_shift(SpectralDensity(grid, vals), WR)
        closed = -(g0 * width / (2.0 * math.pi)) * (
            1.0 / (w0 - WR) + 1.0 / (w0 + WR) - 2.0 / w0)
        assert res.shift == pytest.approx(closed, rel=1e-2)

    def test_linearity(self):
        grid = default_grid(WR, points=301)
        vals = (1.0 + np.tanh((grid - 2 * WR) / WR)) * 1e4
        s1 = lamb_shift(SpectralDensity(grid, vals), WR).shift
        s3 = lamb_shift(SpectralDensity(grid, 3.0 * vals), WR).shift
        assert s3 == pytest.approx(3.0 * s1, rel=1e-9)

    def test_cutoff_insensitive_for_asymptotically_ohmic(self):
        # gamma ~ c w at high frequency: doubling the cutoff moves the
        # result by far less than 1%
        c = 55.0 / WR
        bump = lambda w: c * w + 2e4 * np.exp(-((w - 3 * WR) / WR) ** 2)
        g1 = default_grid(WR, points=801, hi_factor=100.0)
        g2 = default_grid(WR, points=901, hi_factor=200.0)
        s1 = lamb_shift(SpectralDensity(g1, bump(g1)), WR).shift
        s2 = lamb_shift(SpectralDensity(g2, bump(g2)), WR).shift
        assert s2 == pytest.approx(s1, rel=1e-2)

    def test_spectrum_whose_left_remainder_cancels_the_pole_value(self):
        # gamma = a + b w: at one ratio a/b the regular rest below the
        # mode integrates to exactly -g(w_r).  The Ohmic part pulls
        # nothing, so the shift is a times that of gamma = 1.
        grid = default_grid(WR, points=401)
        scale = WR * WR / math.pi
        knots = grid[grid < WR * (1.0 - 1e-10)]  # none on the pole

        def left_parts(vals):
            ratio = _rate_over_omega(SpectralDensity(grid, vals))
            g = lambda w: scale * ratio(w) / (w + WR)
            g0 = float(g(np.array([WR]))[0])
            rest, _ = adaptive_quad(lambda w: (g(w) - g0) / (w - WR),
                                    0.0, WR, points=knots, epsrel=1e-13)
            return rest + g0

        flat = np.ones_like(grid)
        a = -left_parts(grid / WR) / left_parts(flat)
        assert 0.0 < a < 1.0
        res = lamb_shift(SpectralDensity(grid, a + grid / WR), WR)
        ref = a * lamb_shift(SpectralDensity(grid, flat), WR).shift
        assert res.shift == pytest.approx(ref, rel=1e-9)

    def test_grid_must_cover_working_band(self):
        grid = np.geomspace(WR, 10 * WR, 101)  # misses WR/50
        with pytest.raises(GridError):
            lamb_shift(SpectralDensity(grid, np.ones_like(grid)), WR)
        with pytest.raises(ValueError):
            lamb_shift(ohmic_density(1e-6), -WR)

    def test_grid_span_tolerates_rounding_of_its_ends(self):
        # at this frequency geomspace(0.02*w, ...)[0] exceeds w/50 by an ulp
        w = ghz_to_omega(4.693151102069304)
        grid = default_grid(w, points=301, lo_factor=0.02, hi_factor=50.0)
        assert grid[0] > w / 50.0
        c = 123.0 / w
        res = lamb_shift(SpectralDensity(grid, c * grid), w)
        assert abs(res.shift) < 1e-6 * c * w

    def test_error_estimate_nonnegative(self):
        res = lamb_shift(ohmic_density(1e-7, points=301), WR)
        assert res.abs_err >= 0.0


class TestLambShiftOracle:
    def test_sharp_spectrum_matches_per_interval_qawc(self):
        # T = 0 and dynes = 0 put a sharp photon-assisted threshold near
        # the mode, and the shift nearly cancels at this bias.  The oracle
        # is QAWC summed over the knot intervals of the same PCHIP table,
        # with the knot that sits 6e-5 rad/s below the pole left out.
        j = JunctionParams(delta=uev_to_joule(215.0), dynes=0.0, r_t=15e3,
                           temp_n=0.0)
        wr = ghz_to_omega(4.67)
        mode = ModeParams(omega=wr, impedance=35.0, alpha=0.5)
        grid = default_grid(wr, points=301, lo_factor=0.02, hi_factor=50.0)
        dens = tabulate_spectrum(1.1 * 2.0 * j.delta / E_CHARGE, grid, mode,
                                 j, DeviceConfig(junctions=2), epsrel=1e-9)
        res = lamb_shift(dens, wr)

        ratio = _rate_over_omega(dens)
        edges = np.concatenate([[0.0], grid])
        edges = np.delete(edges, np.argmin(np.abs(edges - wr)))

        def g(w):
            return (wr * wr / math.pi) * ratio(w) / (w + wr)

        pv = sum(quad(lambda w: float(g(np.array([w]))[0]), a, b,
                      weight="cauchy", wvar=wr, epsabs=0.0, epsrel=1e-10,
                      limit=200)[0]
                 for a, b in zip(edges[:-1], edges[1:]))
        top = grid[-1]
        tail = (dens.values[-1] / top * wr / (2.0 * math.pi)
                * math.log((top + wr) / (top - wr)))
        assert res.shift == pytest.approx(-(pv + tail), rel=2e-7)
