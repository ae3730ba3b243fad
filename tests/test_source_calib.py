"""Photon-source power model and amplification-chain calibration tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants as sc
from scipy import optimize

from qcrlab import (
    CalibrationParams,
    ConfigError,
    FitError,
    GridError,
    ModeParams,
    PhotonSourceParams,
    RatePair,
    bose_occupation,
    calibration_pipeline,
    fit_output_power,
    fit_reflection,
    gain_from_fit,
    junction_occupation,
    load_power_samples,
    load_reflection_trace,
    noise_temperature,
    output_power,
    p_tr_model,
    reflection_model,
    source_sweep_point,
    temp_from_occupation,
    transition_rates,
    two_bath_occupation,
    write_table,
)

W0 = 2.0 * math.pi * 4.55e9


def make_source(**kw):
    base = dict(c_coupling=10e-15, omega0=W0, z0=50.0, l_res=12e-3,
                c_per_len=160e-12)
    base.update(kw)
    return PhotonSourceParams(**base)


def make_cal(**kw):
    base = dict(gamma_tr=2.0e7, gamma_t_bar=1.0e7, gamma_x=1.0e5,
                n_tr=0.0, n_x=0.0, omega_r=2.0 * math.pi * 4.67e9,
                delta=215e-6 * sc.e)
    base.update(kw)
    return CalibrationParams(**base)


class TestOutputPower:
    def test_independent_prefactor(self):
        src = make_source()
        expect = (2.0 * (10e-15) ** 2 * sc.hbar * W0 ** 3 * 50.0
                  / (12e-3 * 160e-12)) * 3.5
        assert output_power(src, 4.0, 0.5) == pytest.approx(expect, rel=1e-12)

    def test_antisymmetric_in_occupations(self):
        src = make_source()
        assert output_power(src, 2.0, 7.0) == -output_power(src, 7.0, 2.0)
        assert output_power(src, 3.3, 3.3) == 0.0

    def test_quadratic_in_coupling_capacitance(self):
        p1 = output_power(make_source(), 1.0, 0.0)
        p2 = output_power(make_source(c_coupling=20e-15), 1.0, 0.0)
        assert p2 == pytest.approx(4.0 * p1, rel=1e-12)

    @pytest.mark.parametrize("kw", [{"c_coupling": 1e185},
                                    {"omega0": 2.0 * math.pi * 1e109}],
                             ids=["c_coupling", "omega0"])
    def test_rejects_a_geometry_whose_prefactor_overflows(self, kw):
        with pytest.raises(ValueError, match=(
                "emitted-power prefactor .* overflows a double at "
                "c_coupling = ")):
            make_source(**kw)

    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ValueError):
            make_source(l_res=0.0)
        with pytest.raises(ValueError):
            make_source(omega0=-1.0)


class TestOccupationConversions:
    def test_round_trip(self):
        for t in (0.05, 0.3, 4.2):
            n = bose_occupation(t, W0)
            assert temp_from_occupation(n, W0) == pytest.approx(t, rel=1e-12)

    def test_classical_limit(self):
        # k_B T >> hbar*omega: n ~ kT/(hbar w) - 1/2
        t = 1e3 * sc.hbar * W0 / sc.k
        n = bose_occupation(t, W0)
        assert n == pytest.approx(sc.k * t / (sc.hbar * W0) - 0.5, rel=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bose_occupation(0.0, W0)
        with pytest.raises(ValueError):
            bose_occupation(0.1, -W0)
        with pytest.raises(ValueError):
            temp_from_occupation(0.0, W0)
        with pytest.raises(ValueError):
            temp_from_occupation(1.0, 0.0)


class TestInputPowerModel:
    def test_zero_bias_diverges(self):
        with pytest.raises(ZeroDivisionError):
            p_tr_model(0.0, make_cal())

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            p_tr_model(-1e-4, make_cal())

    def test_decoupled_channels_emit_nothing(self):
        assert p_tr_model(1e-3, make_cal(gamma_tr=0.0)) == 0.0
        assert p_tr_model(1e-3, make_cal(gamma_t_bar=0.0)) == 0.0
        assert p_tr_model(
            1e-3, make_cal(gamma_tr=0.0, gamma_t_bar=0.0, gamma_x=0.0)) == 0.0

    def test_overflowing_gap_gives_infinity(self):
        # the gap is squared by a product, which overflows to inf, not by
        # a power, which raises OverflowError
        cp = make_cal(delta=1.7e308 * 1e-6 * sc.e)
        assert p_tr_model(1e-3, cp) == -math.inf

    def test_high_bias_slope(self):
        cp = make_cal()
        gsum = cp.gamma_tr + cp.gamma_t_bar + cp.gamma_x
        slope = (p_tr_model(2e3, cp) - p_tr_model(1e3, cp)) / 1e3
        expect = 0.25 * sc.e * cp.gamma_tr * cp.gamma_t_bar / gsum
        assert slope == pytest.approx(expect, rel=1e-9)

    def test_monotone_well_above_gap(self):
        cp = make_cal()
        v_gap = 2.0 * cp.delta / sc.e
        vals = [p_tr_model(v, cp) for v in np.linspace(2 * v_gap, 20 * v_gap, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_hotter_excess_bath_raises_power(self):
        lo = p_tr_model(5e-3, make_cal(n_x=0.0))
        hi = p_tr_model(5e-3, make_cal(n_x=2.0))
        assert hi > lo


class TestOutputPowerFit:
    def synth(self, a, b, c, n=50):
        v = np.linspace(2e-3, 8e-3, n)
        return list(zip(v, a * v + b + c / v))

    def test_noiseless_exact(self):
        a0, b0, c0 = 1.6e-5, -3e-9, 2e-12
        a, b, c, rms = fit_output_power(self.synth(a0, b0, c0))
        assert a == pytest.approx(a0, rel=1e-10)
        assert b == pytest.approx(b0, rel=1e-9)
        assert c == pytest.approx(c0, rel=1e-9)
        assert rms < 1e-20

    def test_noise_error_scales_linearly(self):
        rng = np.random.default_rng(11)
        v = np.linspace(2e-3, 8e-3, 60)
        a0, b0, c0 = 1.6e-5, -3e-9, 2e-12
        clean = a0 * v + b0 + c0 / v
        eta = rng.normal(size=v.size)
        errs = []
        for sigma in (1e-10, 1e-9):
            a, _, _, _ = fit_output_power(list(zip(v, clean + sigma * eta)))
            errs.append(abs(a - a0))
        assert errs[1] == pytest.approx(10.0 * errs[0], rel=1e-6)

    def test_too_few_distinct_points(self):
        with pytest.raises(FitError):
            fit_output_power([(1e-3, 1.0), (2e-3, 2.0)])
        with pytest.raises(FitError):
            fit_output_power([(1e-3, 1.0), (1e-3, 1.1), (1e-3, 0.9),
                              (2e-3, 2.0)])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fit_output_power([(-1e-3, 1.0), (2e-3, 2.0), (3e-3, 3.0)])
        with pytest.raises(ValueError):
            fit_output_power([(1e-3, 1.0, 5.0)])

    @pytest.mark.parametrize("row, sample", [
        (4, (1e160, 1e-9)),     # V squared overflows
        (0, (1e-160, 1e-9)),    # 1/V squared
        (7, (1e-2, -1e160))],   # P squared
        ids=["bias", "reciprocal", "power"])
    def test_sample_the_fit_cannot_square_is_named(self, row, sample):
        samples = [tuple(x) for x in self.synth(1.6e-5, -3e-9, 2e-12, n=8)]
        samples[row] = sample
        with pytest.raises(FitError, match=re.escape(
                f"output-power fit overflows at sample {row + 1}: bias "
                f"{sample[0]!r} V, power {sample[1]!r} W")):
            fit_output_power(samples)

    @pytest.mark.parametrize("bad", [(math.nan, 1), (math.inf, 0),
                                     (-math.inf, 1)])
    def test_rejects_nonfinite_samples(self, bad):
        samples = [list(x) for x in self.synth(1.6e-5, -3e-9, 2e-12, n=8)]
        value, column = bad
        samples[3][column] = value
        with pytest.raises(ValueError, match="finite"):
            fit_output_power(samples)


class TestChainFigures:
    def test_gain_round_trip(self):
        cp = make_cal()
        g0 = 7.94e7
        gsum = cp.gamma_tr + cp.gamma_t_bar + cp.gamma_x
        a_true = g0 * 0.25 * sc.e * cp.gamma_tr * cp.gamma_t_bar / gsum
        assert gain_from_fit(a_true, cp) == pytest.approx(g0, rel=1e-12)

    def test_noise_temperature_round_trip(self):
        g0, tn0, bw = 7.94e7, 4.2, 1e6
        p0 = g0 * sc.k * tn0 * bw
        assert noise_temperature(p0, g0, bw) == pytest.approx(tn0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gain_from_fit(1.0, make_cal(gamma_t_bar=0.0))
        with pytest.raises(ValueError):
            noise_temperature(1.0, 0.0, 1e6)
        with pytest.raises(ValueError):
            noise_temperature(1.0, 1e7, 0.0)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


def least_squares_reflection_fit(omega, gamma):
    """Oracle: the bounded ``scipy.optimize.least_squares`` search over
    both coupling branches that ``fit_reflection`` used to run, started
    from the depth and half-depth width of ``|gamma|``."""
    mag = np.abs(gamma)
    i0 = int(np.argmin(mag))
    above = np.sqrt(np.clip(0.5 * (1.0 + mag[i0] ** 2), 0.0, 1.0))
    wide = omega[mag <= above]
    width0 = max(wide[-1] - wide[0], 4.0 * np.median(np.diff(omega)))
    depth = np.clip(mag[i0], 0.0, 1.0)

    def resid(x):
        d = reflection_model(omega, x[0], x[1], x[2]) - gamma
        return np.concatenate([d.real, d.imag])

    best = None
    for sign in (+1.0, -1.0):
        gtr0 = 0.5 * width0 * (1.0 - sign * depth)
        gint0 = 0.5 * width0 * (1.0 + sign * depth)
        sol = optimize.least_squares(
            resid, [omega[i0], max(gtr0, 1e-6 * width0),
                    max(gint0, 1e-6 * width0)],
            bounds=([omega[0], 0.0, 0.0], [omega[-1], np.inf, np.inf]),
            x_scale=[width0] * 3, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        if best is None or sol.cost < best.cost:
            best = sol
    return best.x


def squared_residual(omega, gamma, params):
    return float(np.sum(np.abs(reflection_model(omega, *params) - gamma)
                        ** 2))


class TestReflection:
    WR = 2.0 * math.pi * 4.67e9

    def test_critical_coupling_vanishes_on_resonance(self):
        val = reflection_model(np.array([self.WR]), self.WR, 2e6, 2e6)
        assert abs(val[0]) == 0.0

    def test_unit_magnitude_far_from_resonance(self):
        w = self.WR + 1e4 * 4e6
        val = reflection_model(np.array([w]), self.WR, 2e6, 2e6)
        assert abs(val[0]) > 0.999

    def test_passive_magnitude_bound(self):
        w = self.WR + np.linspace(-50e6, 50e6, 501)
        for gtr, gint in ((3e6, 1e6), (1e6, 3e6), (2e6, 2e6)):
            assert np.all(np.abs(reflection_model(w, self.WR, gtr, gint))
                          <= 1.0 + 1e-12)

    @pytest.mark.parametrize("gtr,gint", [(2e6, 5e5), (5e5, 2e6)])
    def test_fit_recovers_both_coupling_branches(self, gtr, gint):
        lw = gtr + gint
        w = self.WR + np.linspace(-20 * lw, 20 * lw, 2001)
        trace = list(zip(w, reflection_model(w, self.WR, gtr, gint)))
        wr, gtr_f, gint_f = fit_reflection(trace)
        assert wr == pytest.approx(self.WR, abs=1e-3 * lw)
        assert gtr_f == pytest.approx(gtr, rel=1e-6)
        assert gint_f == pytest.approx(gint, rel=1e-6)

    @settings(max_examples=100)
    @given(gtr=log_uniform(1e5, 1e7),
           ratio=st.one_of(st.just(0.0), log_uniform(1e-4, 1e-2),
                           log_uniform(0.1, 10.0)),
           offset=st.floats(-5.0, 5.0), noise=log_uniform(1e-4, 3e-2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fit_residual_no_worse_than_least_squares(
            self, gtr, ratio, offset, noise, seed):
        # gamma_int = 0 (ratio 0), gamma_tr >> gamma_int, and both branches
        gint = ratio * gtr
        lw = gtr + gint
        w = self.WR + offset * lw + np.linspace(-20 * lw, 20 * lw, 401)
        rng = np.random.default_rng(seed)
        g = reflection_model(w, self.WR, gtr, gint) + noise * (
            rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size))
        got = squared_residual(w, g, fit_reflection(list(zip(w, g))))
        want = squared_residual(w, g, least_squares_reflection_fit(w, g))
        assert got <= want * (1.0 + 1e-9)

    def test_no_line_coupling_rejected(self):
        # gamma_tr = 0 reflects everything: |gamma| = 1 at every frequency
        w = self.WR + np.linspace(-50e6, 50e6, 401)
        g = reflection_model(w, self.WR, 0.0, 2e6)
        assert np.abs(g) == pytest.approx(1.0, rel=0, abs=1e-15)
        with pytest.raises((FitError, GridError)):
            fit_reflection(list(zip(w, g)))

    def test_narrow_span_rejected(self):
        lw = 3e6
        w = self.WR + np.linspace(-lw, lw, 801)
        trace = list(zip(w, reflection_model(w, self.WR, 2e6, 1e6)))
        with pytest.raises(GridError):
            fit_reflection(trace)

    # the linewidth must span two median frequency steps; two wide steps
    # in each wing move the mean step past that, not the median
    @pytest.mark.parametrize("core, resolved", [(80, False), (82, True)])
    def test_linewidth_against_median_step(self, core, resolved):
        lw = 3e6
        x = np.concatenate([[-40.0, -30.0], np.linspace(-20.0, 20.0, core),
                            [30.0, 40.0]])
        w = self.WR + lw * x
        trace = list(zip(w, reflection_model(w, self.WR, 2e6, 1e6)))
        if resolved:
            assert fit_reflection(trace)[1] == pytest.approx(2e6, rel=1e-6)
        else:
            with pytest.raises(GridError, match="linewidth unresolved"):
                fit_reflection(trace)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0),
                                     complex(0.0, math.inf)])
    def test_nonfinite_trace_rejected(self, bad):
        w = self.WR + np.linspace(-50e6, 50e6, 401)
        trace = list(zip(w, reflection_model(w, self.WR, 2e6, 1e6)))
        trace[200] = (w[200], bad)
        with pytest.raises(ValueError, match="finite"):
            fit_reflection(trace)
        trace[200] = (math.nan, 0.5)
        with pytest.raises(ValueError, match="finite"):
            fit_reflection(trace)

    def test_short_trace_rejected(self):
        w = self.WR + np.linspace(-50e6, 50e6, 5)
        trace = list(zip(w, reflection_model(w, self.WR, 2e6, 1e6)))
        with pytest.raises(FitError):
            fit_reflection(trace)


class TestBathComposition:
    def test_two_bath_weighted_mean(self):
        assert two_bath_occupation(1.0, 0.2, 1.0, 0.8) == pytest.approx(0.5)
        assert two_bath_occupation(3e7, 0.9, 1e7, 0.1) == pytest.approx(
            (3e7 * 0.9 + 1e7 * 0.1) / 4e7, rel=1e-14)

    def test_single_channel_passthrough(self):
        assert two_bath_occupation(0.0, 5.0, 2e6, 0.25) == 0.25
        assert two_bath_occupation(2e6, 0.25, 0.0, 5.0) == 0.25

    def test_two_bath_validation(self):
        with pytest.raises(ValueError):
            two_bath_occupation(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            two_bath_occupation(-1.0, 1.0, 1.0, 1.0)

    def test_junction_occupation_definition(self):
        assert junction_occupation(RatePair(up=2.0, down=6.0)) == 0.5

    def test_junction_occupation_needs_net_damping(self):
        with pytest.raises(ValueError):
            junction_occupation(RatePair(up=3.0, down=3.0))
        with pytest.raises(ValueError):
            junction_occupation(RatePair(up=4.0, down=3.0))

    def test_zero_bias_matches_bose_occupation(self, junction_50ghz, device,
                                               mode_10ghz):
        rates = transition_rates(0.0, mode_10ghz, junction_50ghz, device,
                                 epsrel=1e-9)
        n_t = junction_occupation(rates)
        expect = bose_occupation(junction_50ghz.temp_n, mode_10ghz.omega)
        assert n_t == pytest.approx(expect, rel=1e-6)


class TestSourceSweep:
    def test_composition_matches_manual_assembly(self, junction_cold, device):
        mode = ModeParams(omega=W0, impedance=35.0, alpha=0.3)
        src = make_source()
        v = 5.0 * 2.0 * junction_cold.delta / sc.e
        pt = source_sweep_point(v, src, mode, junction_cold, device,
                                gamma_tr=1.5e7, n_tr=0.9340, epsrel=1e-9)
        rates = transition_rates(v, mode, junction_cold, device, epsrel=1e-9)
        gamma_t = rates.down - rates.up
        n_t = rates.up / gamma_t
        n_res = two_bath_occupation(1.5e7, 0.9340, gamma_t, n_t)
        assert pt.gamma_t == pytest.approx(gamma_t, rel=1e-12)
        assert pt.n_res == pytest.approx(n_res, rel=1e-12)
        assert pt.power == pytest.approx(
            output_power(src, n_res, 0.9340), rel=1e-12)
        assert pt.t_res == pytest.approx(
            temp_from_occupation(n_res, W0), rel=1e-12)

    def test_subgap_bias_cools_the_line(self, junction_cold, device):
        mode = ModeParams(omega=W0, impedance=35.0, alpha=0.3)
        src = make_source()
        v = 1.0 * 2.0 * junction_cold.delta / sc.e
        pt = source_sweep_point(v, src, mode, junction_cold, device,
                                gamma_tr=1.5e7, n_tr=0.9340, epsrel=1e-9)
        assert pt.n_res < 0.9340
        assert pt.power < 0.0

    def test_overflowing_emitted_power_names_its_bias(self, junction_cold,
                                                      device):
        # a finite prefactor of about 7e307 W times an imbalance above 3
        mode = ModeParams(omega=W0, impedance=35.0, alpha=0.3)
        src = make_source(c_coupling=2e148)
        v = np.array([0.5, 5.0]) * 2.0 * junction_cold.delta / sc.e
        with pytest.raises(ValueError, match=re.escape(
                f"the emitted power overflows a double at bias "
                f"{float(v[1])!r} V")):
            source_sweep_point(v, src, mode, junction_cold, device,
                               gamma_tr=1.5e7, n_tr=0.9340, epsrel=1e-9)


class TestPipeline:
    def test_noiseless_recovery(self):
        cp = make_cal()
        g0, tn0, bw = 7.94e7, 4.2, 1e6
        gsum = cp.gamma_tr + cp.gamma_t_bar + cp.gamma_x
        a0 = g0 * 0.25 * sc.e * cp.gamma_tr * cp.gamma_t_bar / gsum
        b0, c0 = -2e-9, 1e-12
        v = np.linspace(5, 20, 50) * 2.0 * cp.delta / sc.e
        samples = list(zip(v, a0 * v + b0 + c0 / v))
        rec = calibration_pipeline(samples, g0 * sc.k * tn0 * bw, cp, bw)
        assert rec.gain == pytest.approx(g0, rel=1e-9)
        assert rec.t_noise == pytest.approx(tn0, rel=1e-9)
        assert rec.residual < 1e-18
        d = rec.as_dict()
        assert set(d) == {"a", "b", "c", "gain", "t_noise", "residual"}

    def test_nonpositive_gain_is_a_fit_error(self):
        # a falling output-power sweep fits a negative slope
        cp = make_cal()
        v = np.linspace(5, 20, 50) * 2.0 * cp.delta / sc.e
        samples = list(zip(v, 1e-9 - 1e-8 * v))
        a = fit_output_power(samples)[0]
        with pytest.raises(FitError, match=f"fitted slope a = {a!r} W/V"):
            calibration_pipeline(samples, 1e-12, cp, 1e6)
        # the library's own check stays a parameter error
        with pytest.raises(ValueError, match="gain must be positive"):
            noise_temperature(1e-12, gain_from_fit(a, cp), 1e6)

    @pytest.mark.parametrize("power", [
        lambda v: 1e300 * v,
        lambda v: 1e160 * (1.0 + (-1.0) ** np.arange(v.size))],
        ids=["gain", "residual"])
    def test_overflowing_fit_is_a_fit_error(self, power):
        # powers of about 1e297 W, and of 2e160 W, square past a double:
        # the fit refuses the sample, with no warning and no record
        cp = make_cal()
        v = np.linspace(5, 20, 50) * 2.0 * cp.delta / sc.e
        with pytest.raises(FitError, match="output-power fit overflows"):
            calibration_pipeline(list(zip(v, power(v))), 1e-12, cp, 1e6)

    def test_fit_that_overflows_the_gain_is_a_fit_error(self):
        # every sample squares to a double, but the slope of 1e300 W/V
        # gives a gain of inf
        cp = make_cal()
        v = np.linspace(1e-150, 4e-150, 9)
        with pytest.raises(FitError, match=re.escape(
                "the output-power fit overflows: gain inf")):
            calibration_pipeline(list(zip(v, 1e300 * v)), 1e-12, cp, 1e6)

    def test_record_rejects_negative_residual(self):
        from qcrlab.source_calib import CalibrationRecord
        with pytest.raises(ValueError):
            CalibrationRecord(a=1, b=0, c=0, gain=1, t_noise=1, residual=-1)


class TestCsvLoaders:
    def test_power_samples_round_trip(self, tmp_path):
        path = str(tmp_path / "power.csv")
        v = np.linspace(1e-3, 5e-3, 9)
        p = 2.0e-5 * v - 1e-9
        write_table(path, ["bias_V (V)", "power_W (W)"],
                    np.column_stack([v, p]))
        got = load_power_samples(path)
        assert np.allclose([g[0] for g in got], v, rtol=0, atol=0)
        assert np.allclose([g[1] for g in got], p, rtol=0, atol=0)

    def test_reflection_trace_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        f = np.linspace(4.6e9, 4.8e9, 11)
        g = reflection_model(2.0 * math.pi * f, 2.0 * math.pi * 4.7e9,
                             2e6, 1e6)
        write_table(path, ["freq_Hz (Hz)", "re_gamma", "im_gamma"],
                    np.column_stack([f, g.real, g.imag]))
        got = load_reflection_trace(path)
        assert got[3][0] == pytest.approx(2.0 * math.pi * f[3], rel=1e-15)
        assert got[3][1] == pytest.approx(g[3], rel=1e-12)

    @pytest.mark.parametrize("column,value", [("power_W", math.nan),
                                              ("bias_V", math.inf)])
    def test_nonfinite_power_sample_names_file_column_row(self, tmp_path,
                                                          column, value):
        path = str(tmp_path / "power.csv")
        data = np.column_stack([np.linspace(1e-3, 5e-3, 9),
                                np.linspace(1e-9, 5e-9, 9)])
        data[4, ["bias_V", "power_W"].index(column)] = value
        write_table(path, ["bias_V (V)", "power_W (W)"], data)
        with pytest.raises(ConfigError) as exc:
            load_power_samples(path)
        assert str(exc.value) == (f"{path}: column {column!r} holds "
                                  f"{value!r} in data row 5, not a finite "
                                  f"number")

    @pytest.mark.parametrize("column, row, value", [
        ("bias_V", 3, 1e160), ("bias_V", 6, 1e-160), ("power_W", 9, 1e160)])
    def test_power_sample_the_fit_cannot_hold_names_file_column_row(
            self, tmp_path, column, row, value):
        path = str(tmp_path / "power.csv")
        data = np.column_stack([np.linspace(1e-3, 5e-3, 9),
                                np.linspace(1e-9, 5e-9, 9)])
        data[row - 1, ["bias_V", "power_W"].index(column)] = value
        write_table(path, ["bias_V (V)", "power_W (W)"], data)
        with pytest.raises(ConfigError) as exc:
            load_power_samples(path)
        assert str(exc.value) == (f"{path}: column {column!r} holds "
                                  f"{value!r} in data row {row}, which "
                                  "overflows the output-power fit")

    @pytest.mark.parametrize("column,value", [("re_gamma", math.nan),
                                              ("im_gamma", -math.inf),
                                              ("freq_Hz", math.nan)])
    def test_nonfinite_reflection_sample_names_file_column_row(
            self, tmp_path, column, value):
        path = str(tmp_path / "trace.csv")
        names = ["freq_Hz", "re_gamma", "im_gamma"]
        data = np.column_stack([np.linspace(4.6e9, 4.8e9, 11),
                                np.zeros(11), np.ones(11)])
        data[0, names.index(column)] = value
        write_table(path, ["freq_Hz (Hz)", "re_gamma", "im_gamma"], data)
        with pytest.raises(ConfigError, match=(
                f"column {column!r} holds {value!r} in data row 1,")):
            load_reflection_trace(path)
