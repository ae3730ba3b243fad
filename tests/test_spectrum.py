"""Photon-exchange rates of junction-coupled modes, dc and driven."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln

from qcrlab import junction, spectrum
from qcrlab import (DeviceConfig, DriveState, JunctionParams, ModeParams,
                    RatePair, SpectralDensity, effective_temperature,
                    fock_matrix_sq, on_off_ratio, optimal_bias,
                    rf_transition_rates, steady_p1, tabulate_spectrum,
                    transition_rates)
from qcrlab.errors import (GridError, NonpositiveTemperatureError,
                           QcrlabError, TruncationError,
                           UndefinedSteadyStateError)
from qcrlab.units import (E_CHARGE, HBAR, K_B, R_K, ghz_to_omega,
                          uev_to_joule)

EPS = 1e-9  # quadrature tolerance for the cheaper checks


class TestOccupationProb:
    """A drive's Fock occupation probabilities, from ``fock_distribution``."""

    def test_poisson_value(self):
        d = DriveState(mean_n=2.0, distribution="coherent")
        p2 = spectrum.fock_distribution(2, d.mean_n, d.distribution)
        assert p2 == pytest.approx(2.0 * math.exp(-2.0), rel=1e-13)

    def test_geometric_value(self):
        d = DriveState(mean_n=1.0, distribution="thermal")
        p0 = spectrum.fock_distribution(0, d.mean_n, d.distribution)
        assert p0 == pytest.approx(0.5, rel=1e-13)

    def test_normalized(self):
        for dist in ("coherent", "thermal"):
            d = DriveState(mean_n=3.0, distribution=dist)
            p = spectrum.fock_distribution(np.arange(200), d.mean_n,
                                           d.distribution)
            assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_drive_is_vacuum(self):
        d = DriveState(mean_n=0.0)
        p = spectrum.fock_distribution(np.array([0, 5]), d.mean_n,
                                       d.distribution)
        assert p[0] == 1.0
        assert p[1] == 0.0

    @pytest.mark.parametrize("mean_n, named", [
        (math.nan, "nan"), ([1.0, math.nan], "nan"), (math.inf, "inf")])
    def test_nan_mean_fails_validation(self, mean_n, named):
        # NaN passed the check, and inf failed only in fock_distribution
        with pytest.raises(ValueError, match=f"got {named}$"):
            DriveState(mean_n=mean_n)


class TestFockDistribution:
    @pytest.mark.parametrize("distribution", ["coherent", "thermal"])
    @pytest.mark.parametrize("ks, named", [
        (-1, "-1"), (0.5, "0.5"), ([0, 2, -3, 1.5], "-3.0"),
        (np.array([[0.0, 1.0], [2.5, -1.0]]), "2.5"), ([1, np.nan], "nan")])
    def test_rejects_a_negative_or_fractional_index(self, distribution, ks,
                                                    named):
        with pytest.raises(ValueError, match=f"got {named}$"):
            spectrum.fock_distribution(ks, 1.0, distribution)

    @pytest.mark.parametrize("distribution", ["coherent", "thermal"])
    @pytest.mark.parametrize("mean_n, named", [
        (math.nan, "nan"), (-0.5, "-0.5"), ([2.0, math.inf], "inf")])
    def test_rejects_a_negative_or_nonfinite_mean(self, distribution,
                                                  mean_n, named):
        # the log guard read NaN as the vacuum's 0: thermal gave a uniform
        # distribution, coherent NaN probabilities
        with pytest.raises(ValueError, match=f"got {named}$"):
            spectrum.fock_distribution(np.arange(6), mean_n, distribution)

    @given(st.floats(-3.0, 3.5).map(lambda x: 10.0 ** x))
    def test_poisson_matches_gammaln(self, mean_n):
        ks = np.arange(int(mean_n + 12.0 * math.sqrt(mean_n) + 60.0))
        want = np.exp(ks * math.log(mean_n) - mean_n - gammaln(ks + 1))
        np.testing.assert_allclose(
            spectrum.fock_distribution(ks, mean_n, "coherent"), want,
            rtol=0, atol=1e-12)


def scipy_overlap_sq(m, d, rho):
    """``|<m + d| D(rho) |m>|^2`` from scipy's Laguerre polynomials."""
    x = rho * rho
    lag = eval_genlaguerre(m, d, x)
    with np.errstate(divide="ignore"):
        log_m = (-x + 2.0 * d * math.log(rho) + gammaln(m + 1)
                 - gammaln(m + d + 1) + 2.0 * np.log(np.abs(lag)))
    return np.where(lag == 0.0, 0.0, np.exp(log_m))


class TestLaguerreOverlaps:
    # fock_cut and l_max span the schema up to a fock_cut the O(fock_cut^2)
    # scipy oracle evaluates quickly; rho covers weak to strong coupling
    @settings(max_examples=15)
    @given(st.floats(-4.0, 0.5).map(lambda x: 10.0 ** x),
           st.integers(0, 2500), st.integers(0, 20))
    def test_overlaps_match_scipy(self, rho, fock_cut, l_max):
        got = spectrum._overlap_sq(fock_cut, np.arange(l_max + 1), rho)
        m = np.arange(fock_cut + 1)
        for d, row in enumerate(got):
            want = scipy_overlap_sq(m, d, rho)
            big = want >= 1e-12 * want.max()
            np.testing.assert_allclose(row[big], want[big], rtol=1e-9)
            assert np.all(row[~big] <= 1e-11 * want.max())

    def test_overflow_raises_naming_rho_and_cut(self):
        # L_m^(d)(1600) passes the largest double before m = 400, which
        # made every sideband weight NaN
        with pytest.raises(QcrlabError,
                           match=r"rho = 40\.0 .*fock_cut = 400"):
            spectrum._sideband_weights(DriveState(0, l_max=5, fock_cut=400),
                                       rho=40.0)

    def test_sidebands_beyond_the_cut_carry_no_weight(self):
        # s = 3, 4 exceed fock_cut = 2: their overlap slices had negative
        # ends, and the weights raised a broadcasting ValueError
        x = 0.3 ** 2
        w = spectrum._sideband_weights(DriveState(0.0, l_max=4, fock_cut=2),
                                       rho=0.3)
        assert [w[s] for s in range(1, 5)] == [0.0] * 4
        for s in range(-4, 1):
            assert w[s] == pytest.approx(
                math.exp(-x) * x ** -s / math.factorial(-s), rel=1e-13)

    def test_vacuum_column_closed_form(self):
        # |<|s|| D(rho) |0>|^2 = e^-x x^|s| / |s|!, the first overlap of
        # sideband s in the weights
        for rho, fock_cut, l_max in [(0.3, 40, 5), (0.31, 40, 5),
                                     (0.3, 60, 5), (0.3, 40, 3)]:
            x = rho * rho
            table = spectrum._overlap_sq(fock_cut, np.arange(l_max + 1), rho)
            for s in range(l_max + 1):
                assert table[s, 0] == pytest.approx(
                    math.exp(-x) * x ** s / math.factorial(s), rel=1e-13)

    @settings(max_examples=10)
    @given(st.integers(0, 25), st.floats(0.0, 2.0))
    def test_rows_and_columns_sum_to_one(self, k, rho):
        ls = range(k + 150)
        assert math.fsum(fock_matrix_sq(k, l, rho) for l in ls) == \
            pytest.approx(1.0, abs=1e-12)
        assert math.fsum(fock_matrix_sq(l, k, rho) for l in ls) == \
            pytest.approx(1.0, abs=1e-12)

class TestFockMatrix:
    def test_identity_at_zero_displacement(self):
        assert fock_matrix_sq(3, 3, 0.0) == 1.0
        assert fock_matrix_sq(3, 4, 0.0) == 0.0

    def test_vacuum_values(self):
        rho = 0.37
        x = rho * rho
        assert fock_matrix_sq(0, 0, rho) == pytest.approx(math.exp(-x),
                                                          rel=1e-13)
        assert fock_matrix_sq(0, 1, rho) == pytest.approx(x * math.exp(-x),
                                                          rel=1e-13)

    def test_symmetric(self):
        for k, l in ((0, 4), (2, 7), (5, 5), (10, 3)):
            assert fock_matrix_sq(k, l, 0.6) == pytest.approx(
                fock_matrix_sq(l, k, 0.6), rel=1e-12)

    def test_row_sum_rule(self):
        total = sum(fock_matrix_sq(3, l, 0.7) for l in range(200))
        assert total == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(0, 12), st.integers(0, 12), st.floats(0.0, 1.5))
    def test_bounded_probability(self, k, l, rho):
        val = fock_matrix_sq(k, l, rho)
        assert 0.0 <= val <= 1.0 + 1e-12


class TestTransitionRates:
    def test_zero_bias_detailed_balance(self, junction_50ghz, device,
                                        mode_10ghz):
        r = transition_rates(0.0, mode_10ghz, junction_50ghz, device,
                             epsrel=1e-11)
        boltz = math.exp(-HBAR * mode_10ghz.omega
                         / (K_B * junction_50ghz.temp_n))
        assert r.up / r.down == pytest.approx(boltz, rel=1e-6)

    def test_even_in_bias(self, junction_50ghz, device, mode_10ghz):
        for x in (0.3, 0.8, 1.2):
            v = x * 2.0 * junction_50ghz.delta / E_CHARGE
            ra = transition_rates(v, mode_10ghz, junction_50ghz, device,
                                  epsrel=EPS)
            rb = transition_rates(-v, mode_10ghz, junction_50ghz, device,
                                  epsrel=EPS)
            assert ra.up == pytest.approx(rb.up, rel=1e-12)
            assert ra.down == pytest.approx(rb.down, rel=1e-12)

    def test_down_exceeds_up(self, junction_50ghz, device, mode_10ghz):
        scale = 2.0 * junction_50ghz.delta / E_CHARGE
        for x in np.linspace(0.0, 1.6, 9):
            r = transition_rates(x * scale, mode_10ghz, junction_50ghz,
                                 device, epsrel=EPS)
            assert r.down > r.up >= 0.0

    def test_single_junction_halves_prefactor(self, junction_50ghz,
                                              mode_10ghz):
        # at zero bias both junctions see the same energetics, so the
        # two-junction device doubles the single-junction rates
        one = transition_rates(0.0, mode_10ghz, junction_50ghz,
                               DeviceConfig(junctions=1), epsrel=EPS)
        two = transition_rates(0.0, mode_10ghz, junction_50ghz,
                               DeviceConfig(junctions=2), epsrel=EPS)
        assert two.down == pytest.approx(2.0 * one.down, rel=1e-12)
        assert two.up == pytest.approx(2.0 * one.up, rel=1e-12)

    def test_rates_scale_inversely_with_resistance(self, junction_50ghz,
                                                   device, mode_10ghz):
        from dataclasses import replace
        stiff = replace(junction_50ghz, r_t=2.0 * junction_50ghz.r_t)
        v = 0.9 * junction_50ghz.delta / E_CHARGE
        soft_r = transition_rates(v, mode_10ghz, junction_50ghz, device,
                                  epsrel=EPS)
        stiff_r = transition_rates(v, mode_10ghz, stiff, device,
                                   epsrel=EPS)
        assert soft_r.down == pytest.approx(2.0 * stiff_r.down, rel=1e-12)
        assert soft_r.up == pytest.approx(2.0 * stiff_r.up, rel=1e-12)

    @pytest.mark.parametrize("points", [12, 101])
    def test_batch_against_scalar_calls(self, device, mode_10ghz, points):
        # 12 biases bring 23 distinct |E|, integrated directly as a scalar
        # call's are, and an adaptive_quad result does not depend on its
        # batch; 101 bring 201, read from the F(E) interpolant
        j = JunctionParams(delta=uev_to_joule(206.8), dynes=1e-4, r_t=15e3,
                           temp_n=0.01)
        v = np.linspace(0.0, 2.0 * j.delta / E_CHARGE, points)
        with mock.patch.object(junction, "_clenshaw",
                               wraps=junction._clenshaw) as interpolant:
            batch = transition_rates(v, mode_10ghz, j, device, epsrel=EPS)
        assert interpolant.called == (points > 12)
        scalar = [transition_rates(x, mode_10ghz, j, device, epsrel=EPS)
                  for x in v]
        for got, want in ((batch.up, [r.up for r in scalar]),
                          (batch.down, [r.down for r in scalar])):
            np.testing.assert_allclose(got, want, rtol=EPS, atol=0.0)
            if points == 12:
                np.testing.assert_array_equal(got, want)


class TestSteadyState:
    def test_p1_and_temperature_at_zero_bias(self, junction_50ghz, device,
                                             mode_10ghz):
        r = transition_rates(0.0, mode_10ghz, junction_50ghz, device,
                             epsrel=1e-11)
        t_eff = effective_temperature(r, mode_10ghz.omega)
        assert t_eff == pytest.approx(junction_50ghz.temp_n, rel=1e-6)
        hw = HBAR * mode_10ghz.omega
        expected_p1 = 1.0 / (1.0 + math.exp(hw / (K_B * t_eff)))
        assert steady_p1(r) == pytest.approx(expected_p1, rel=1e-9)

    def test_temperature_requires_net_damping(self):
        with pytest.raises(NonpositiveTemperatureError):
            effective_temperature(RatePair(up=2.0, down=1.0), 1e10)
        with pytest.raises(NonpositiveTemperatureError):
            effective_temperature(RatePair(up=0.0, down=1.0), 1e10)

    def test_p1_undefined_when_rates_vanish(self):
        with pytest.raises(UndefinedSteadyStateError):
            steady_p1(RatePair(up=0.0, down=0.0))


class TestOptimalBias:
    def test_matches_dense_grid_argmin(self, junction_50ghz, device,
                                       mode_10ghz):
        best = optimal_bias(mode_10ghz, junction_50ghz, device, epsrel=EPS)
        span = device.junctions * 2.0 * junction_50ghz.delta / E_CHARGE
        vs = np.linspace(0.0, span, 501)
        temps = []
        for v in vs:
            r = transition_rates(v, mode_10ghz, junction_50ghz, device,
                                 epsrel=EPS)
            try:
                temps.append(effective_temperature(r, mode_10ghz.omega))
            except NonpositiveTemperatureError:
                temps.append(math.inf)
        i = int(np.argmin(temps))
        assert abs(best.voltage - vs[i]) <= vs[1] - vs[0]
        assert best.t_eff <= temps[i] + 1e-12

    def test_makes_no_scalar_rate_call(self, junction_50ghz, device,
                                       mode_10ghz):
        # every evaluation is a 161-point batch, served by the F(E)
        # interpolant that the first one builds
        with mock.patch.object(spectrum, "transition_rates",
                               wraps=spectrum.transition_rates) as rates:
            optimal_bias(mode_10ghz, junction_50ghz, device, epsrel=EPS)
        assert rates.call_count > 1
        assert all(np.shape(c.args[0]) == (161,)
                   for c in rates.call_args_list)

    def test_on_off_ratio_positive_and_large(self, junction_50ghz, device,
                                             mode_10ghz):
        ratio = on_off_ratio(mode_10ghz, junction_50ghz, device, points=81,
                             epsrel=EPS)
        assert ratio > 1e3


class TestDrivenRates:
    def test_zero_displacement_reduces_to_dc(self, junction_cold, device):
        wp = ghz_to_omega(8.8)
        mode_p = ModeParams(omega=wp, impedance=35.0, alpha=0.5)
        mode_s = ModeParams(omega=2 * wp, impedance=35.0, alpha=0.5,
                            rho=0.0)
        d = DriveState(mean_n=0.0)
        rf = rf_transition_rates(0.0, mode_p, mode_s, d, junction_cold,
                                 device, epsrel=EPS)
        dc = transition_rates(0.0, mode_p, junction_cold, device,
                              epsrel=EPS)
        assert rf == dc  # bitwise: identical quadratures run

    def test_undriven_support_rescales_by_vacuum_overlap(self,
                                                         junction_cold,
                                                         device):
        wp = ghz_to_omega(8.8)
        mode_p = ModeParams(omega=wp, impedance=35.0, alpha=0.5)
        mode_s = ModeParams(omega=2 * wp, impedance=35.0, alpha=0.5)
        d = DriveState(mean_n=0.0)
        g_rf = rf_transition_rates(0.0, mode_p, mode_s, d, junction_cold,
                                   device, epsrel=EPS).net
        g_dc = transition_rates(0.0, mode_p, junction_cold, device,
                                epsrel=EPS).net
        rho2 = mode_s.rho_eff ** 2
        assert g_rf == pytest.approx(math.exp(-rho2) * g_dc, rel=1e-3)

    def test_drive_activates_coupling(self, junction_cold, device):
        wp = ghz_to_omega(8.8)
        mode_p = ModeParams(omega=wp, impedance=35.0, alpha=0.5)
        mode_s = ModeParams(omega=2 * wp, impedance=35.0, alpha=0.5)
        base = rf_transition_rates(0.0, mode_p, mode_s,
                                   DriveState(mean_n=0.0), junction_cold,
                                   device, epsrel=EPS).net
        driven = rf_transition_rates(0.0, mode_p, mode_s,
                                     DriveState(mean_n=1000.0, fock_cut=1300),
                                     junction_cold, device, epsrel=EPS).net
        assert driven >= 100.0 * base

    def test_sideband_order_converged(self, junction_cold, device):
        wp = ghz_to_omega(8.8)
        mode_p = ModeParams(omega=wp, impedance=35.0, alpha=0.5)
        mode_s = ModeParams(omega=2 * wp, impedance=35.0, alpha=0.5)
        d5 = DriveState(mean_n=3.0, l_max=5, fock_cut=60)
        d8 = DriveState(mean_n=3.0, l_max=8, fock_cut=60)
        g5 = rf_transition_rates(0.0, mode_p, mode_s, d5, junction_cold,
                                 device, epsrel=EPS).net
        g8 = rf_transition_rates(0.0, mode_p, mode_s, d8, junction_cold,
                                 device, epsrel=EPS).net
        assert g5 == pytest.approx(g8, rel=1e-6)

    def test_undersized_fock_cut_raises(self, junction_cold, device):
        wp = ghz_to_omega(8.8)
        mode_p = ModeParams(omega=wp, impedance=35.0, alpha=0.5)
        mode_s = ModeParams(omega=2 * wp, impedance=35.0, alpha=0.5)
        with pytest.raises(TruncationError):
            rf_transition_rates(0.0, mode_p, mode_s,
                                DriveState(mean_n=50.0, fock_cut=40),
                                junction_cold, device, epsrel=EPS)


class TestTabulation:
    def test_values_match_pointwise_rates(self, junction_50ghz, device,
                                          mode_10ghz):
        grid = np.geomspace(mode_10ghz.omega / 5, 5 * mode_10ghz.omega, 7)
        v = 1.0 * junction_50ghz.delta / E_CHARGE
        dens = tabulate_spectrum(v, grid, mode_10ghz, junction_50ghz,
                                 device, epsrel=EPS)
        for w, val in zip(grid, dens.values):
            probe = replace(mode_10ghz, omega=float(w))
            assert val == pytest.approx(
                transition_rates(v, probe, junction_50ghz, device,
                                 epsrel=EPS).net,
                rel=1e-12)

    def test_rejects_bad_grid(self):
        with pytest.raises(GridError):
            SpectralDensity(np.array([2.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(GridError):
            SpectralDensity(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        # a grid that is not 1-d is a grid defect, not a shape mismatch
        square = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(GridError):
            SpectralDensity(square, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            SpectralDensity(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            SpectralDensity(np.array([1.0, 2.0]), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN slips through every ordering test; inf would reach the
        # quadrature and fail there, long after the table was accepted
        for grid in ([1.0, bad], [bad, 1.0], [1.0, 2.0, bad]):
            with pytest.raises(GridError):
                SpectralDensity(np.array(grid), np.zeros(len(grid)))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SpectralDensity(np.array([1.0, 2.0]), np.array([1.0, bad]))

    def test_tabulation_checks_grid_before_rates(self, monkeypatch,
                                                 junction_50ghz, device,
                                                 mode_10ghz):
        def no_rates(*args, **kwargs):
            raise AssertionError("F(E) evaluated on a bad grid")

        monkeypatch.setattr(spectrum, "forward_rate", no_rates)
        w = mode_10ghz.omega
        for grid in ([[w, 2 * w], [3 * w, 4 * w]], [w], [2 * w, w],
                     [0.0, w], [w, math.nan], [w, math.inf]):
            with pytest.raises(GridError):
                tabulate_spectrum(0.0, np.array(grid), mode_10ghz,
                                  junction_50ghz, device)


class TestModeParams:
    def test_rho_default(self):
        m = ModeParams(omega=1e10, impedance=35.0, alpha=0.5)
        assert m.rho_eff == pytest.approx(
            0.5 * math.sqrt(math.pi * 35.0 / R_K), rel=1e-13)
        explicit = ModeParams(omega=1e10, impedance=35.0, alpha=0.5,
                              rho=0.02)
        assert explicit.rho_eff == 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            ModeParams(omega=0.0, impedance=35.0, alpha=0.5)
        with pytest.raises(ValueError):
            ModeParams(omega=1e10, impedance=-1.0, alpha=0.5)
        with pytest.raises(ValueError):
            ModeParams(omega=1e10, impedance=35.0, alpha=1.5)
