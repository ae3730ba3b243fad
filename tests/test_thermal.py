"""Photon-channel heat transport and island steady-state tests."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import constants as sc
from scipy.optimize import brentq

from qcrlab import (
    ThermalNetwork,
    a_coefficient,
    differential_response,
    g_quantum,
    steady_state,
    thermal,
)
from qcrlab.errors import ConvergenceError

SIGMA = 2e9      # W m^-3 K^-5
VOLUME = 1e-18   # m^3


def make_net(**kw):
    base = dict(t0=0.1, ep_sigma=SIGMA, volume=VOLUME)
    base.update(kw)
    return ThermalNetwork(**base)


def bisect_oracle(t0, sigma, vol, p_const, t_b):
    """Independent bisection of the island heat balance."""
    coeff = math.pi * sc.k ** 2 / (12.0 * sc.hbar)

    def imbalance(ta):
        return (coeff * (t_b ** 2 - ta ** 2)
                + sigma * vol * (t0 ** 5 - ta ** 5) + p_const)

    lo, hi = 1e-6, 2.0
    assert imbalance(lo) > 0 > imbalance(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if imbalance(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestConductanceQuantum:
    def test_matches_closed_form(self):
        for t in (0.025, 0.1, 0.5):
            expect = math.pi * sc.k ** 2 * t / (6.0 * sc.hbar)
            assert g_quantum(t) == pytest.approx(expect, rel=1e-14)

    def test_hundred_millikelvin_value(self):
        assert g_quantum(0.1) == pytest.approx(9.464312e-14, rel=1e-6)

    def test_linear_in_temperature(self):
        assert g_quantum(0.3) == pytest.approx(3.0 * g_quantum(0.1),
                                               rel=1e-14)

    def test_zero_and_negative(self):
        assert g_quantum(0.0) == 0.0
        with pytest.raises(ValueError):
            g_quantum(-0.1)


class TestResponseConstant:
    def test_material_form(self):
        net = make_net()
        expect = 30.0 * SIGMA * VOLUME * sc.hbar / (math.pi * sc.k ** 2)
        assert a_coefficient(net) == pytest.approx(expect, rel=1e-14)

    def test_differential_response_form(self):
        a = a_coefficient(make_net())
        for t0 in (0.025, 0.1, 0.4):
            assert differential_response(t0, a) == pytest.approx(
                1.0 / (1.0 + a * t0 ** 3), rel=1e-14)

    def test_differential_response_bounds(self):
        a = a_coefficient(make_net())
        slopes = [differential_response(t, a) for t in (0.01, 0.1, 1.0)]
        assert all(0.0 < s <= 1.0 for s in slopes)
        assert differential_response(0.1, 0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            differential_response(0.0, 1.0)
        with pytest.raises(ValueError):
            differential_response(0.1, -1.0)


class TestSteadyState:
    def test_equilibrium_is_exact(self):
        net = make_net()
        assert steady_state(net, 0.1) == pytest.approx(0.1, abs=1e-12)

    def test_warm_bath_reference_point(self):
        net = make_net()
        assert steady_state(net, 0.13) == pytest.approx(0.102828998,
                                                        abs=2e-9)

    def test_agrees_with_independent_bisection(self):
        net = make_net()
        for t_b in (0.05, 0.13, 0.25):
            want = bisect_oracle(0.1, SIGMA, VOLUME, 0.0, t_b)
            assert steady_state(net, t_b) == pytest.approx(want, abs=1e-12)

    def test_finite_difference_matches_differential_response(self):
        net = make_net()
        h = 1e-6
        slope = (steady_state(net, 0.1 + h)
                 - steady_state(net, 0.1 - h)) / (2.0 * h)
        expect = differential_response(0.1, a_coefficient(net))
        assert slope == pytest.approx(expect, rel=1e-4)

    def test_response_grows_as_bath_cools(self):
        dt = 1e-3
        resp = []
        for t0 in (0.4, 0.3, 0.2, 0.1, 0.05, 0.025):
            net = make_net(t0=t0)
            resp.append((steady_state(net, t0 + dt) - t0) / dt)
        assert all(b > a for a, b in zip(resp, resp[1:]))
        assert all(0.0 < r <= 1.0 + 1e-12 for r in resp)

    def test_pure_photon_island_tracks_bath(self):
        net = ThermalNetwork(t0=0.1, ep_sigma=0.0, volume=0.0)
        assert steady_state(net, 0.23) == pytest.approx(0.23, rel=1e-12)

    def test_constant_load_heats_island(self):
        hot = make_net(p_const=1e-18)
        assert steady_state(hot, 0.1) > 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            steady_state(make_net(), 0.0)
        with pytest.raises(ValueError):
            make_net(t0=-0.1)
        with pytest.raises(ValueError):
            make_net(ep_sigma=-1.0)
        with pytest.raises(ValueError):
            make_net(p_const=-1e-20)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


def scipy_bracketed_root(net, t_b):
    """The heat-balance root by ``scipy.optimize.brentq`` on a bracket that
    starts at 1e-12 K and doubles its upper end until the balance turns
    negative, at brentq's tightest tolerances."""
    hi = max(t_b, net.t0)
    while thermal._balance(hi, net, t_b) >= 0:
        hi *= 2.0
    return brentq(thermal._balance, 1e-12, hi, args=(net, t_b),
                  xtol=1e-18, rtol=8.9e-16, maxiter=300)


def assert_within_brentq_tolerance(got, want):
    assert abs(got - want) <= 1e-18 + 8.9e-16 * abs(want)


class TestNewtonAgainstBrentq:
    @settings(max_examples=200)
    @given(log_uniform(1e-3, 1.0), log_uniform(1e6, 1e11),
           log_uniform(1e-21, 1e-15),
           st.one_of(st.just(0.0), log_uniform(1e-22, 1e-12)),
           log_uniform(1e-3, 10.0))
    def test_within_brentq_tolerance(self, t0, sigma, vol, p_const, t_b):
        net = ThermalNetwork(t0=t0, p_const=p_const, ep_sigma=sigma,
                             volume=vol)
        assume(thermal._balance(1e-12, net, t_b) > 0)
        assert_within_brentq_tolerance(steady_state(net, t_b),
                                       scipy_bracketed_root(net, t_b))

    def test_shipped_config_points_within_brentq_tolerance(self):
        cfg = json.loads((Path(__file__).resolve().parent.parent
                          / "configs" / "thermal.json").read_text())
        blk, grid = cfg["thermal"], cfg["grid"]
        net = ThermalNetwork(t0=blk["t0_k"], ep_sigma=blk["ep_sigma_w_m3_k5"],
                             volume=blk["volume_m3"])
        for t_b in np.linspace(grid["start"], grid["stop"], grid["points"]):
            assert_within_brentq_tolerance(
                steady_state(net, float(t_b)),
                scipy_bracketed_root(net, float(t_b)))

    def test_root_below_any_fixed_bracket(self):
        # a photon-only island follows island B, however cold
        assert steady_state(ThermalNetwork(t0=0.1), 1e-13) == 1e-13

    def test_underflowing_balance_raises_naming_t_b(self):
        # every heat flow of a photon-only island at 1e-160 K underflows,
        # so no root is returned rather than 0.0
        net = ThermalNetwork(t0=0.1)
        for t_b in (1e-160, 1e-150):
            with pytest.raises(ConvergenceError, match=f"t_b={t_b!r}"):
                steady_state(net, t_b)
        # just above the underflow the root keeps full relative accuracy
        for t_b in (3e-148, 1e-147, 1e-120):
            assert steady_state(net, t_b) == pytest.approx(t_b, rel=2.3e-16)

    def test_iteration_cap_raises(self, monkeypatch):
        # a balance that is positive at 0 and never vanishes after it
        monkeypatch.setattr(thermal, "_balance",
                            lambda t_a, net, t_b: 1.0 if t_a == 0 else -1e-12)
        with pytest.raises(ConvergenceError, match="did not converge"):
            steady_state(ThermalNetwork(t0=0.1), 0.1)


class TestOverflow:
    def test_network_refuses_a_bath_whose_fifth_power_overflows(self):
        with pytest.raises(ValueError, match=re.escape(
                "t0 = 1e+70 K overflows the electron-phonon balance")):
            make_net(t0=1e70)
        assert make_net(t0=1e61).t0 == 1e61    # 1e305 K^5 is a double

    @pytest.mark.parametrize("t0, t_b", [
        (0.1, 1e100),   # t_a^5 overflows at the Newton start, t_a = t_b
        (0.1, 1e200),   # t_b^2 overflows
        (1e61, 0.05)],  # the start sqrt(balance(0) / coeff) is inf
        ids=["start", "t_b-squared", "hot-bath"])
    def test_overflowing_balance_raises_naming_t_b(self, t0, t_b):
        # a numpy scalar, as the CLI's grid gives, warns of nothing either
        with pytest.raises(ValueError, match=re.escape(
                f"heat balance overflows a double for t_b={t_b!r} K, "
                f"t0={t0!r} K")):
            steady_state(make_net(t0=t0), np.float64(t_b))
