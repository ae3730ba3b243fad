"""Principal-value quadrature and broadband frequency pull."""

import math

import numpy as np
import pytest

from qcrlab import SpectralDensity, lamb_shift, pv_integral
from qcrlab.errors import GridError
from qcrlab.lamb import default_grid
from qcrlab.units import ghz_to_omega

WR = 2.0 * math.pi * 4.67e9


class TestPvIntegral:
    def test_shifted_identity_plus_pole(self):
        # w/(w-1) = 1 + 1/(w-1); the PV of the pole term over the
        # symmetric interval (0, 2) vanishes, leaving exactly 2
        val, err = pv_integral(lambda w: w / (w - 1.0), 1.0, 0.0, 2.0)
        assert val == pytest.approx(2.0, abs=1e-9)
        assert err < 1e-6

    def test_even_denominator_finite_cutoff(self):
        # PV of 1/(w^2 - a^2) over (0, X) is (1/2a) ln((X-a)/(X+a));
        # at X = 1e6 a that is about -1e-6/a, small but not zero
        a = 3.7
        cutoff = 1e6 * a
        val, _ = pv_integral(lambda w: 1.0 / (w * w - a * a), a, 0.0,
                             cutoff)
        exact = (1.0 / (2.0 * a)) * math.log((cutoff - a) / (cutoff + a))
        assert val == pytest.approx(exact, rel=1e-5)
        assert abs(val) < 2e-6 / a  # vanishes in the infinite-cutoff limit

    def test_odd_about_pole_vanishes(self):
        val, _ = pv_integral(lambda w: (w - 5.0) / ((w - 5.0) ** 2 + 1.0),
                             5.0, 3.0, 7.0)
        assert abs(val) < 1e-10

    def test_breakpoints_capture_narrow_feature(self):
        # a bump far from the pole must contribute even when it is much
        # narrower than the surrounding panels
        lo, hi = 2.0, 2.002

        def f(w):
            w = np.asarray(w)
            return np.where((w >= lo) & (w <= hi), 1.0, 0.0) / (w - 1.0)

        val, _ = pv_integral(f, 1.0, 0.0, 10.0, points=(lo, hi))
        exact = math.log((hi - 1.0) / (lo - 1.0))
        assert val == pytest.approx(exact, rel=1e-10)

    def test_pole_must_be_interior(self):
        with pytest.raises(ValueError):
            pv_integral(lambda w: w, 3.0, 0.0, 2.0)


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
