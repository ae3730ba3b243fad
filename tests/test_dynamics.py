"""Fock-ladder master equation, pulse schedules, and rate extraction."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.linalg import expm

from qcrlab import (DeviceConfig, JunctionParams, LadderState,
                    LadderTrajectory, ModeParams, PulseSchedule, RatePair,
                    dynamics, evolve, extract_gamma_by_pulse_sweep,
                    reset_infidelity)
from qcrlab.errors import FitError, TruncationError
from qcrlab.units import E_CHARGE, ghz_to_omega, uev_to_joule


def const_env(up: float, down: float):
    return lambda v: RatePair(up=up, down=down)


def switch_env(up_on, down_on, up_off=0.0, down_off=1e4, v_on=1.0):
    def env(v):
        if v == v_on:
            return RatePair(up=up_on, down=down_on)
        return RatePair(up=up_off, down=down_off)

    return env


def bridging_env(v):
    # a smooth bias-dependent environment sampled along ramps
    return RatePair(up=1e4 * (1 + v), down=5e6 * (1.0 + 4.0 * v * v))


def reset_sim_setup():
    """Pulse, ladder and device junction rates of ``configs/reset_sim.json``."""
    path = Path(__file__).resolve().parent.parent / "configs" / "reset_sim.json"
    cfg = json.loads(path.read_text())
    jb, mb, pb = cfg["junction"], cfg["mode"], cfg["pulse"]
    j = JunctionParams(delta=uev_to_joule(jb["delta_uev"]), dynes=jb["dynes"],
                       r_t=jb["r_t_ohm"], temp_n=jb["temp_n_k"])
    mode = ModeParams(omega=ghz_to_omega(mb["freq_ghz"]),
                      impedance=mb["impedance_ohm"], alpha=mb["alpha"])
    v_on = pb["amplitude"] * 2.0 * j.delta / E_CHARGE
    sched = PulseSchedule(v_on=v_on, width=1e-9 * pb["width_ns"],
                          rise_fall=1e-9 * pb["rise_fall_ns"],
                          t_start=1e-9 * pb["t_start_ns"])
    grid = cfg["grid"]
    ts = 1e-9 * np.linspace(grid["start"], grid["stop"], grid["points"])
    init = LadderState.coherent(cfg["ladder"]["init_mean_n"],
                                cfg["ladder"]["n_cut"])
    env = dynamics.DcRateSource(mode, j, DeviceConfig(junctions=2),
                                epsrel=1e-9)
    return init, sched, env, ts


class TestLadderState:
    def test_ground(self):
        s = LadderState.ground(5)
        assert s.mean_n == 0.0
        assert s.probs[0] == 1.0

    def test_coherent_mean(self):
        s = LadderState.coherent(1.0, n_cut=40)
        assert s.mean_n == pytest.approx(1.0, rel=1e-10)

    def test_thermal_geometric(self):
        s = LadderState.thermal(2.0, n_cut=400)
        q = 2.0 / 3.0
        assert s.probs[0] == pytest.approx(1.0 - q, rel=1e-10)
        assert s.probs[3] / s.probs[2] == pytest.approx(q, rel=1e-9)

    def test_cut_must_keep_all_but_1e_6(self):
        # a geometric of mean 1 keeps 1 - 2^-11 below n_cut = 10
        with pytest.raises(TruncationError):
            LadderState.thermal(1.0, n_cut=10)
        # the state of acceptance criterion 10 loses about 1e-11
        assert LadderState.coherent(0.8, 12).mean_n == pytest.approx(
            0.8, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            LadderState(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            LadderState(np.array([0.5, 0.2]))
        assert LadderState(np.array([0.2, 0.8])).n_cut == 1
        with pytest.raises(ValueError):
            LadderState.coherent(-1.0)

    @pytest.mark.parametrize("probs, named", [
        ([math.nan, 1.0], "got nan$"), ([1.0, math.nan], "got nan$"),
        ([math.inf, 1.0], "sum to one, got inf$")])
    def test_nan_probabilities_fail_validation(self, probs, named):
        # NaN passed every comparison of the checks, and evolve carried it
        with pytest.raises(ValueError, match=named):
            LadderState(np.array(probs))

    @pytest.mark.parametrize("make", [LadderState.coherent,
                                      LadderState.thermal])
    def test_nan_mean_fails_validation(self, make):
        # thermal gave a uniform ladder, the log guard taking NaN for 0
        with pytest.raises(ValueError, match="got nan$"):
            make(math.nan, 5)


class TestPulseSchedule:
    def test_trapezoid_waveform(self):
        sched = PulseSchedule(v_on=2.0, width=10.0, rise_fall=2.0,
                              t_start=1.0)
        assert sched.voltage(0.5) == 0.0
        assert sched.voltage(2.0) == pytest.approx(1.0)   # mid-rise
        assert sched.voltage(5.0) == 2.0                  # flat top
        assert sched.voltage(14.0) == pytest.approx(1.0)  # mid-fall
        assert sched.voltage(20.0) == 0.0
        assert sched.t_end_pulse == pytest.approx(15.0)
        # an array of times, the corners included
        ts = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 13.0, 14.0, 15.0, 20.0])
        np.testing.assert_allclose(
            sched.voltage(ts), [0.0, 0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0, 0.0],
            rtol=1e-15, atol=0)

    def test_breakpoints_sorted_unique(self):
        sched = PulseSchedule(v_on=1.0, width=5.0, rise_fall=0.0,
                              t_start=2.0)
        pts = sched.breakpoints()
        assert pts == sorted(set(pts))

    def test_validation(self):
        with pytest.raises(ValueError):
            PulseSchedule(v_on=1.0, width=-1.0)
        with pytest.raises(ValueError):
            PulseSchedule(v_on=1.0, width=1.0, rise_fall=-0.5)
        # NaN fails the check too
        for field in ("width", "rise_fall", "t_start"):
            with pytest.raises(ValueError, match="schedule times"):
                PulseSchedule(**{"v_on": 1.0, "width": 1.0, field: math.nan})


class TestEvolve:
    def test_pure_decay_closed_form(self):
        gamma = 2.0e7
        init = LadderState.coherent(1.5, n_cut=25)
        sched = PulseSchedule(v_on=0.0, width=1e-6)
        traj = evolve(init, sched, const_env(0.0, gamma), t_end=3e-7,
                      t_eval=np.linspace(0.0, 3e-7, 31))
        expected = 1.5 * np.exp(-gamma * traj.times)
        np.testing.assert_allclose(traj.mean_n, expected, rtol=1e-6)

    def test_relaxation_with_finite_occupation(self):
        up, down = 3.0e6, 1.0e7
        n_ss = up / (down - up)
        init = LadderState.ground(30)
        sched = PulseSchedule(v_on=0.0, width=1e-5)
        t = 2e-6
        traj = evolve(init, sched, const_env(up, down), t_end=t,
                      t_eval=[t])
        expected = n_ss * (1.0 - math.exp(-(down - up) * t))
        assert traj.mean_n[-1] == pytest.approx(expected, rel=1e-8)

    def test_geometric_steady_state(self):
        up, down = 2.0e6, 8.0e6
        q = up / down
        init = LadderState.coherent(1.0, n_cut=25)
        t = 20.0 / (down - up)
        traj = evolve(init, sched := PulseSchedule(v_on=0.0, width=2 * t),
                      const_env(up, down), t_end=t, t_eval=[t])
        m = np.arange(26)
        target = (1.0 - q) * q ** m
        assert np.max(np.abs(traj.probs[-1] - target)) < 1e-6

    def test_norm_conserved(self):
        init = LadderState.thermal(0.5, n_cut=20)
        sched = PulseSchedule(v_on=1.0, width=40e-9, rise_fall=5e-9,
                              t_start=5e-9)
        traj = evolve(init, sched, switch_env(1e5, 5e7), t_end=60e-9)
        np.testing.assert_allclose(traj.probs.sum(axis=1), 1.0, rtol=0,
                                   atol=1e-9)

    def test_truncation_insensitive(self):
        sched = PulseSchedule(v_on=1.0, width=30e-9, t_start=2e-9)
        out = []
        for n_cut in (25, 50):
            init = LadderState.coherent(1.0, n_cut=n_cut)
            traj = evolve(init, sched, switch_env(1e4, 1e8), t_end=40e-9,
                          t_eval=[40e-9])
            out.append(traj.mean_n[-1])
        assert out[0] == pytest.approx(out[1], abs=1e-8)

    def test_square_pulse_segments_read_their_own_level(self):
        # a segment's ends lie on the waveform's jumps: they must still be
        # integrated with the rates of the segment, not of its neighbour
        env = switch_env(2e6, 1e8, 1e3, 1e4)
        init = LadderState.coherent(1.0, n_cut=25)
        sched = PulseSchedule(v_on=1.0, width=10e-9, t_start=5e-9)
        traj = evolve(init, sched, env, t_end=26e-9,
                      t_eval=[5e-9, 15e-9, 26e-9])
        log_eta, n, want = 0.0, 0.0, []
        for v, dt in ((0.0, 5e-9), (1.0, 10e-9), (0.0, 11e-9)):
            r = env(v)
            n_ss = r.up / r.net
            n = n_ss + (n - n_ss) * math.exp(-r.net * dt)
            log_eta += r.net * dt
            want.append(math.exp(-log_eta) * init.mean_n + n)
        np.testing.assert_allclose(traj.mean_n, want, rtol=1e-12, atol=0)

    def test_leakage_detected(self):
        # the dynamics are exact on the infinite ladder: only the initial
        # cut can lose population, and it loses 8% here
        with pytest.raises(TruncationError):
            LadderState.coherent(1.0, n_cut=2)

    @given(st.floats(1e5, 1e8), st.floats(0.0, 0.5), st.floats(0.0, 1e7),
           st.floats(0.0, 2.0), st.floats(0.0, 2.0),
           st.sampled_from(["coherent", "thermal"]), st.integers(40, 60),
           st.floats(0.05, 5.0))
    def test_matches_dense_open_chain(self, down, up_frac, extra_gamma,
                                      extra_occ, mean, kind, n_cut, gamma_t):
        init = getattr(LadderState, kind)(mean, n_cut)
        up_tot = up_frac * down + extra_gamma * extra_occ
        down_tot = down + extra_gamma * (1.0 + extra_occ)
        t = gamma_t / (down_tot - up_tot)
        traj = evolve(init, PulseSchedule(v_on=0.0, width=2 * t),
                      const_env(up_frac * down, down), extra_gamma,
                      extra_occ, t_end=t, t_eval=[0.0, t / 3, t])
        # the chain cut 200 levels above n_cut, its top open
        m = np.arange(n_cut + 201.0)
        gen = (np.diag(-(m * down_tot + (m + 1) * up_tot))
               + np.diag(m[1:] * down_tot, 1) + np.diag(m[1:] * up_tot, -1))
        p0 = np.zeros(m.size)
        p0[:n_cut + 1] = init.probs
        want = np.array([expm(gen * s) @ p0 for s in traj.times])
        np.testing.assert_allclose(traj.probs, want[:, :n_cut + 1], rtol=0,
                                   atol=1e-9)
        np.testing.assert_allclose(traj.mean_n, want @ m, rtol=0, atol=1e-9)
        np.testing.assert_allclose(traj.ground_pop, want[:, 0], rtol=0,
                                   atol=1e-9)

    def test_ground_independent_of_cut(self):
        sched = PulseSchedule(v_on=1.0, width=20e-9, rise_fall=8e-9,
                              t_start=4e-9)
        small, large = (evolve(LadderState.ground(n_cut), sched, bridging_env,
                               t_end=50e-9) for n_cut in (30, 4000))
        for got, want in ((large.mean_n, small.mean_n),
                          (large.ground_pop, small.ground_pop)):
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))

    def test_ramp_bridging_runs(self):
        init = LadderState.coherent(1.0, n_cut=20)
        sched = PulseSchedule(v_on=1.0, width=20e-9, rise_fall=8e-9,
                              t_start=4e-9)
        traj = evolve(init, sched, bridging_env, t_end=50e-9)
        assert traj.mean_n[-1] < init.mean_n
        np.testing.assert_allclose(traj.probs.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("rise_fall", [0.0, 8e-9])
    def test_empty_t_eval_samples_nothing(self, rise_fall):
        init = LadderState.coherent(1.0, n_cut=20)
        sched = PulseSchedule(v_on=1.0, width=20e-9, rise_fall=rise_fall,
                              t_start=4e-9)
        traj = evolve(init, sched, bridging_env, t_end=50e-9, t_eval=[])
        for got in (traj.times, traj.eta, traj.n, traj.mean_n,
                    traj.ground_pop):
            assert got.shape == (0,)
        assert traj.probs.shape == (0, 21)

    @pytest.mark.parametrize("rise_fall", [0.0, 8e-9])
    @pytest.mark.parametrize("t_start", [0.0, 4e-9])
    def test_sample_at_zero_keeps_the_initial_state(self, rise_fall,
                                                    t_start):
        # t = 0 is a segment edge, and also the pulse start at t_start = 0
        init = LadderState.coherent(1.0, n_cut=20)
        sched = PulseSchedule(v_on=1.0, width=20e-9, rise_fall=rise_fall,
                              t_start=t_start)
        traj = evolve(init, sched, bridging_env, t_end=50e-9,
                      t_eval=[0.0])
        assert (traj.eta.tolist(), traj.n.tolist()) == ([1.0], [0.0])
        assert traj.mean_n.tolist() == [init.mean_n]
        np.testing.assert_allclose(traj.probs, [init.probs], rtol=0,
                                   atol=1e-15)

    def test_t_eval_validation(self):
        init = LadderState.ground(5)
        sched = PulseSchedule(v_on=0.0, width=1e-9)
        with pytest.raises(ValueError):
            evolve(init, sched, const_env(0.0, 1e6), t_end=1e-9,
                   t_eval=[2e-9])
        with pytest.raises(ValueError):
            evolve(init, sched, const_env(0.0, 1e6), t_end=-1.0)
        # NaN fails the checks
        with pytest.raises(ValueError, match="t_eval"):
            evolve(init, sched, const_env(0.0, 1e6), t_end=1e-9,
                   t_eval=[0.5e-9, math.nan])
        with pytest.raises(ValueError, match="t_end"):
            evolve(init, sched, const_env(0.0, 1e6), t_end=math.nan)


def ode_oracle(init, sched, env, extra_gamma, extra_occupation, t_end,
               t_eval):
    """The ladder by DOP853 at ``rtol=1e-13, atol=1e-16`` on evolve's rates.

    Levels are read as they are; ramps through scipy's PCHIP of the same
    ``RAMP_SAMPLES`` biases, integrated knot to knot.  Each segment is
    integrated with the bias clamped one ulp inside it, so that it reads
    its own level.
    """
    def total(v):
        r = env(v)
        return (r.up + extra_gamma * extra_occupation,
                r.down + extra_gamma * (1.0 + extra_occupation))

    levels = {v: total(v) for v in (sched.v_off, sched.v_on)}
    edges = {0.0, t_end, *sched.breakpoints()}
    if sched.rise_fall > 0 and sched.v_on != sched.v_off:
        vgrid = np.linspace(min(sched.v_off, sched.v_on),
                            max(sched.v_off, sched.v_on),
                            dynamics.RAMP_SAMPLES)
        ramp = PchipInterpolator(vgrid, [total(v) for v in vgrid])
        rise_end = sched.t_start + sched.rise_fall
        for lo, hi in ((sched.t_start, rise_end),
                       (rise_end + sched.width, sched.t_end_pulse)):
            edges.update(np.linspace(lo, hi, dynamics.RAMP_SAMPLES).tolist())
    seg_edges = sorted(b for b in edges if 0.0 <= b <= t_end)

    def rhs(t, y, lo, hi):
        v = sched.voltage(min(max(t, lo), hi))
        up, down = levels[v] if v in levels else ramp(v)
        return [down - up, up - (down - up) * y[1]]

    t_eval = np.asarray(t_eval, dtype=float)
    y = np.zeros(2)
    ys = [np.zeros((2, np.count_nonzero(t_eval == 0.0)))]
    for a, b in zip(seg_edges[:-1], seg_edges[1:]):
        sub = t_eval[(t_eval > a) & (t_eval <= b)]
        ask = sub if len(sub) and sub[-1] == b else np.append(sub, b)
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-13,
                        atol=1e-16, t_eval=ask,
                        args=(float(np.nextafter(a, b)),
                              float(np.nextafter(b, a))))
        assert sol.success, sol.message
        ys.append(sol.y[:, :len(sub)])
        y = sol.y[:, -1]
    log_eta, n = np.hstack(ys)
    return LadderTrajectory(t_eval, np.exp(-log_eta), n, init)


class TestRamps:
    @pytest.mark.parametrize("which", ["bridging", "device"])
    def test_knot_to_knot_matches_tight_tolerances(self, which,
                                                   monkeypatch):
        init, sched, env, ts = reset_sim_setup()
        if which == "bridging":
            sched = replace(sched, v_on=1.0)
            env = bridging_env
        loose = evolve(init, sched, env, t_end=ts[-1], t_eval=ts)
        monkeypatch.setattr(dynamics, "RAMP_RTOL", 1e-13)
        tight = evolve(init, sched, env, t_end=ts[-1], t_eval=ts)
        np.testing.assert_array_equal(loose.times, tight.times)
        np.testing.assert_allclose(loose.probs, tight.probs, rtol=0,
                                   atol=1e-9)

    @pytest.mark.parametrize("rise_fall", [0.0, 8e-9])
    def test_samples_match_a_run_sampling_every_segment_end(self, rise_fall):
        init = LadderState.coherent(1.0, n_cut=20)
        sched = PulseSchedule(v_on=1.0, width=20e-9, rise_fall=rise_fall,
                              t_start=4e-9)
        # no sample falls on a segment end
        ts = [3e-9, 17e-9, 45e-9]
        traj = evolve(init, sched, bridging_env, t_end=50e-9, t_eval=ts)
        assert traj.times.tolist() == ts
        # each segment starts from where the last one ended: the same
        # samples agree with a run that also samples every segment end
        ends = {*ts, *sched.breakpoints(), 50e-9}
        if rise_fall:
            rise_end = sched.t_start + rise_fall
            for lo, hi in ((sched.t_start, rise_end),
                           (rise_end + sched.width, sched.t_end_pulse)):
                ends.update(np.linspace(lo, hi, dynamics.RAMP_SAMPLES))
        ref = evolve(init, sched, bridging_env, t_end=50e-9,
                     t_eval=sorted(ends))
        np.testing.assert_allclose(
            traj.probs, ref.probs[np.isin(ref.times, ts)], rtol=0, atol=1e-12)

    @given(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(0.0, 10e-9),
           st.floats(0.5e-9, 10e-9), st.floats(0.0, 30e-9),
           st.floats(0.2, 1.2), st.floats(1e3, 1e6), st.floats(1e6, 1e8),
           st.floats(0.0, 4.0), st.floats(0.0, 1e7), st.floats(0.0, 1.0),
           st.floats(0.1, 2.0))
    def test_matches_dop853_on_the_same_rates(self, v_on, v_off, t_start,
                                              rise_fall, width, reach, up0,
                                              down0, curve, extra_gamma,
                                              extra_occ, mean):
        assume(abs(v_on - v_off) > 1e-3)

        def env(v):  # smooth in the bias, as junction rates are
            return RatePair(up=up0 * math.exp(0.5 * v),
                            down=down0 * (1.0 + curve * v * v))

        sched = PulseSchedule(v_on=v_on, width=width, rise_fall=rise_fall,
                              t_start=t_start, v_off=v_off)
        # t_end may fall anywhere, a ramp included
        t_end = reach * (sched.t_end_pulse + 5e-9)
        ts = np.linspace(0.0, t_end, 41)
        init = LadderState.coherent(mean, n_cut=30)
        got = evolve(init, sched, env, extra_gamma, extra_occ, t_end=t_end,
                     t_eval=ts)
        want = ode_oracle(init, sched, env, extra_gamma, extra_occ, t_end, ts)
        np.testing.assert_allclose(got.mean_n, want.mean_n, rtol=1e-11,
                                   atol=0)
        np.testing.assert_allclose(got.ground_pop, want.ground_pop, rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("v_on", [1.0, -0.5])
    def test_bias_independent_ramp_is_the_constant_closed_form(self, v_on):
        up, down = 3e5, 4e7
        init = LadderState.coherent(1.0, n_cut=25)
        sched = PulseSchedule(v_on=v_on, width=20e-9, rise_fall=8e-9,
                              t_start=4e-9)
        traj = evolve(init, sched, const_env(up, down), t_end=50e-9)
        net = down - up
        t = traj.times
        np.testing.assert_allclose(traj.eta, np.exp(-net * t), rtol=1e-13,
                                   atol=0)
        np.testing.assert_allclose(traj.n, -up * np.expm1(-net * t) / net,
                                   rtol=1e-13, atol=0)


class TestExtraction:
    def test_recovers_programmed_rate(self):
        g_on, g_off = 1.0e8, 1.0e4
        env = switch_env(0.0, g_on, 0.0, g_off)
        tmpl = PulseSchedule(v_on=1.0, width=10e-9, t_start=5e-9)
        widths = np.linspace(2e-9, 20e-9, 6)
        init = LadderState.coherent(1.0, n_cut=25)
        got = extract_gamma_by_pulse_sweep(widths, tmpl, env,
                                           t_probe_before=5e-9,
                                           t_probe_after=26e-9, init=init)
        assert got == pytest.approx(g_on - g_off, rel=1e-7)

    def test_zero_amplitude_pulse_extracts_zero(self):
        env = switch_env(0.0, 1e8, 0.0, 1e4)
        tmpl = PulseSchedule(v_on=0.0, width=10e-9, t_start=5e-9)
        widths = np.linspace(2e-9, 20e-9, 5)
        init = LadderState.coherent(1.0, n_cut=25)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = extract_gamma_by_pulse_sweep(widths, tmpl, env,
                                               t_probe_before=5e-9,
                                               t_probe_after=26e-9,
                                               init=init)
        assert abs(got) < 1e-3 * 1e4

    def test_needs_four_distinct_widths(self):
        env = const_env(0.0, 1e6)
        tmpl = PulseSchedule(v_on=1.0, width=1e-9, t_start=1e-9)
        init = LadderState.coherent(1.0, n_cut=10)
        with pytest.raises(FitError):
            extract_gamma_by_pulse_sweep([1e-9, 2e-9, 2e-9, 1e-9], tmpl,
                                         env, t_probe_before=1e-9,
                                         t_probe_after=1e-8, init=init)

    def test_probes_must_bracket(self):
        env = const_env(0.0, 1e6)
        tmpl = PulseSchedule(v_on=1.0, width=1e-9, t_start=5e-9)
        init = LadderState.coherent(1.0, n_cut=10)
        with pytest.raises(ValueError):
            extract_gamma_by_pulse_sweep([1e-9, 2e-9, 3e-9, 4e-9], tmpl,
                                         env, t_probe_before=6e-9,
                                         t_probe_after=1e-7, init=init)


class TestResetInfidelity:
    def test_long_hold_reaches_steady_value(self):
        rates = RatePair(up=2.0e4, down=1.0e8)
        init = LadderState.coherent(1.0, n_cut=25)
        inf = reset_infidelity(init, 60.0 / rates.net, rates)
        assert inf == pytest.approx(rates.up / rates.down, rel=1e-6)

    def test_monotone_in_hold(self):
        rates = RatePair(up=1.0e3, down=5.0e7)
        init = LadderState.coherent(1.0, n_cut=25)
        vals = [reset_infidelity(init, h, rates)
                for h in (10e-9, 40e-9, 160e-9)]
        assert vals[0] > vals[1] > vals[2]

    def test_requires_positive_hold(self):
        with pytest.raises(ValueError):
            reset_infidelity(LadderState.ground(5), 0.0,
                             RatePair(up=0.0, down=1e6))
