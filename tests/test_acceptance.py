"""Headline acceptance gates, one test per claim.

Each test exercises one end-to-end behaviour of the package at realistic
device scales: bias-controlled damping, its Dynes scaling, environment
temperatures, the spectral frequency pull, pulsed reset, exceptional
points, the photon source, chain calibration, photonic heat flow, and
the global numerical invariants.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import constants as sc

from qcrlab import (
    CalibrationParams,
    JunctionParams,
    LadderState,
    ModeParams,
    PhotonSourceParams,
    PulseSchedule,
    SpectralDensity,
    ThermalNetwork,
    TwoModeParams,
    a_coefficient,
    bose_occupation,
    calibration_pipeline,
    differential_response,
    effective_temperature,
    eigenvalues,
    evolve,
    extract_gamma_by_pulse_sweep,
    fock_matrix_sq,
    lamb_shift,
    on_off_ratio,
    optimal_bias,
    p_tr_model,
    source_sweep_point,
    steady_p1,
    steady_state,
    tabulate_spectrum,
    transition_rates,
)
from qcrlab.cli import main as cli_main
from qcrlab.dynamics import DcRateSource
from qcrlab.lamb import default_grid
from qcrlab.units import ghz_to_omega, uev_to_joule

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_criterion_01_rate_tunability(junction_50ghz, device, mode_10ghz):
    # on/off damping ratio >= 1e3 at 100 mK with Dynes 1e-4
    ratio = on_off_ratio(mode_10ghz, junction_50ghz, device)
    assert ratio >= 1e3

    # the optimal bias sits near the device threshold and pins p1 < 1e-3
    best = optimal_bias(mode_10ghz, junction_50ghz, device)
    edge = 2.0 * (junction_50ghz.delta
                  - sc.hbar * mode_10ghz.omega) / sc.e
    assert best.voltage == pytest.approx(edge, rel=0.10)
    rates = transition_rates(best.voltage, mode_10ghz, junction_50ghz,
                             device)
    assert steady_p1(rates) < 1e-3

    # a 281-point bias sweep stays well under the 10 s budget
    scale = 2.0 * junction_50ghz.delta / sc.e
    t0 = time.perf_counter()
    for x in np.linspace(0.0, 1.4, 281):
        transition_rates(x * scale, mode_10ghz, junction_50ghz, device)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_dynes_scaling(junction_50ghz, device, mode_10ghz):
    # on/off ratio tracks sqrt(gap / (hbar w_r)) / dynes within 3x
    law_num = math.sqrt(junction_50ghz.delta / (sc.hbar * mode_10ghz.omega))
    for dynes in (1e-6, 1e-5, 1e-4):
        j = replace(junction_50ghz, dynes=dynes)
        ratio = on_off_ratio(mode_10ghz, j, device)
        law = law_num / dynes
        assert law / 3.0 < ratio < law * 3.0


def test_criterion_03_effective_temperature(junction_50ghz, device,
                                            mode_10ghz):
    # unbiased environment thermalizes to the electron temperature
    r0 = transition_rates(0.0, mode_10ghz, junction_50ghz, device)
    t0 = effective_temperature(r0, mode_10ghz.omega)
    assert t0 == pytest.approx(junction_50ghz.temp_n, rel=0.01)

    # optimal-bias environment runs near half the electron temperature
    # once k_B T_N dominates hbar w_r (1 GHz mode, 300 mK electrons)
    mode = ModeParams(omega=ghz_to_omega(1.0), impedance=35.0, alpha=0.5)
    j = replace(junction_50ghz, temp_n=0.3)
    best = optimal_bias(mode, j, device)
    assert 0.35 * j.temp_n <= best.t_eff <= 0.65 * j.temp_n


def test_criterion_04_lamb_shift(fig_scale_junction, device):
    wr = 2.0 * math.pi * 4.67e9

    # linear-in-frequency coupling spectrum pulls nothing
    c = 123.0 / wr
    grid = default_grid(wr, points=801)
    res = lamb_shift(SpectralDensity(grid, c * grid), wr)
    assert abs(res.shift) < 1e-6 * c * wr

    # narrow band at 2 w_r matches its closed form within 1%
    w0, width, g0 = 2.0 * wr, 2.0 * wr / 100.0, 4.4e5
    lo_e, hi_e = w0 - width / 2.0, w0 + width / 2.0
    pad = 1e-4 * width
    base = np.geomspace(wr / 50.0, 50.0 * wr, 401)
    band = np.linspace(lo_e, hi_e, 2001)
    ngrid = np.unique(np.concatenate([base, [lo_e - pad, hi_e + pad],
                                      band]))
    vals = np.where((ngrid >= lo_e) & (ngrid <= hi_e), g0, 0.0)
    nres = lamb_shift(SpectralDensity(ngrid, vals), wr)
    closed = -(g0 * width / (2.0 * math.pi)) * (
        1.0 / (w0 - wr) + 1.0 / (w0 + wr) - 2.0 / w0)
    assert nres.shift == pytest.approx(closed, rel=1e-2)

    # junction-fed mode at device scale lands in the 0.1-100 MHz window
    mode = ModeParams(omega=wr, impedance=35.0, alpha=0.5)
    wgrid = default_grid(wr, points=1201, lo_factor=0.02, hi_factor=50.0)
    scale = 2.0 * fig_scale_junction.delta / sc.e
    dens = tabulate_spectrum(0.9 * scale, wgrid, mode, fig_scale_junction,
                             device, epsrel=1e-9)
    shift_mhz = abs(lamb_shift(dens, wr).shift) / (2.0 * math.pi * 1e6)
    assert 0.1 <= shift_mhz <= 100.0


def test_criterion_05_pulse_extraction(junction_cold, device, mode_10ghz):
    env = DcRateSource(mode_10ghz, junction_cold, device, epsrel=1e-9)
    scale = 2.0 * junction_cold.delta / sc.e
    grid = np.linspace(0.0, scale, 201)
    nets = np.array([env(v).net for v in grid])
    v_on = float(grid[np.argmax(nets)])
    g_on = float(nets.max())
    g_off = float(nets[0])

    # pulsed damping switches by at least a factor of 55
    assert g_on / g_off >= 55.0

    # width sweep inverts to the programmed added damping within 1%
    widths = np.linspace(2e-9, 20e-9, 7)
    template = PulseSchedule(v_on=v_on, width=10e-9, t_start=5e-9)
    init = LadderState.coherent(1.0, 30)
    got = extract_gamma_by_pulse_sweep(widths, template, env,
                                       t_probe_before=5e-9,
                                       t_probe_after=26e-9, init=init)
    programmed = g_on - g_off
    assert got == pytest.approx(programmed, rel=0.01)

    # a 50 ns hold leaves under 1% of the initial photon number
    traj = evolve(init, PulseSchedule(v_on=v_on, width=50e-9), env,
                  t_eval=np.array([0.0, 50e-9]))
    assert traj.mean_n[-1] / traj.mean_n[0] < 0.01


def test_criterion_06_exceptional_point():
    w1 = 2.0 * math.pi * 5.223e9
    g = 2.0 * math.pi * 8e6

    # eigenvalues coalesce at (delta, kappa1, kappa2) = (0, 0, 4g)
    p_ep = TwoModeParams(omega1=w1, kappa1=0.0, omega2=w1,
                         kappa2=4.0 * g, g=g)
    a, b = eigenvalues(p_ep)
    assert abs(a - b) < 1e-9 * g

    # square-root lifting of the degeneracy under kappa2 perturbation
    eps = np.geomspace(1e-6, 1e-3, 13) * g
    seps = []
    for e in eps:
        pa, pb = eigenvalues(replace(p_ep, kappa2=4.0 * g + e))
        seps.append(abs(pa - pb))
    slope = np.polyfit(np.log(eps), np.log(seps), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)

    # trace and determinant identities hold to 1e-12 relative
    p = TwoModeParams(omega1=w1, kappa1=0.3 * g, omega2=w1 + 0.7 * g,
                      kappa2=2.1 * g, g=g)
    ea, eb = eigenvalues(p)
    tr = p.delta - 0.5j * (p.kappa1 + p.kappa2)
    det = (-0.5j * p.kappa1) * (p.delta - 0.5j * p.kappa2) - p.g ** 2
    assert abs((ea + eb) - tr) <= 1e-12 * abs(tr)
    assert abs(ea * eb - det) <= 1e-12 * abs(det)


def test_criterion_07_photon_source(device):
    junction = JunctionParams(delta=uev_to_joule(200.0), dynes=1e-4,
                              r_t=15e3, temp_n=0.01)
    mode = ModeParams(omega=ghz_to_omega(4.55), impedance=35.0, alpha=0.3)
    src = PhotonSourceParams(c_coupling=10e-15, omega0=mode.omega,
                             z0=50.0, l_res=12e-3, c_per_len=160e-12)
    n_tr = bose_occupation(0.3, mode.omega)
    scale = 2.0 * junction.delta / sc.e

    xs = np.linspace(0.05, 5.0, 200)
    pts = [source_sweep_point(x * scale, src, mode, junction, device,
                              gamma_tr=1.5e7, n_tr=n_tr, epsrel=1e-9)
           for x in xs]
    powers = np.array([p.power for p in pts])

    # output power dips (absorbs) near the gap-edge bias eV = 2*gap
    i = int(np.argmin(powers))
    assert 0.8 <= xs[i] <= 1.3
    assert powers[i] < 0.0

    # at eV = 10*gap the mode radiates like a ~2.5 K thermal source
    assert pts[-1].t_res == pytest.approx(2.5, rel=0.30)


def test_criterion_08_calibration_recovery():
    cp = CalibrationParams(gamma_tr=2e7, gamma_t_bar=1e7, gamma_x=1e5,
                           n_tr=0.0, n_x=0.0,
                           omega_r=2.0 * math.pi * 4.67e9,
                           delta=uev_to_joule(215.0))
    gain, t_noise, bw = 7.94e7, 4.2, 1e6
    volts = np.linspace(5.0, 20.0, 50) * 2.0 * cp.delta / sc.e
    floor = gain * sc.k * t_noise * bw
    clean = np.array([gain * p_tr_model(v, cp) for v in volts]) + floor

    # noiseless synthesis inverts exactly
    rec = calibration_pipeline(list(zip(volts, clean)), floor, cp, bw)
    assert rec.gain == pytest.approx(gain, rel=1e-6)
    assert rec.t_noise == pytest.approx(t_noise, rel=1e-6)

    # 0.1% multiplicative-scale noise keeps gain within 1%, noise
    # temperature within 2%
    rng = np.random.default_rng(42)
    sigma = 1e-3 * float(np.mean(clean))
    noisy = clean + rng.normal(0.0, sigma, size=len(volts))
    p_zero = floor + float(rng.normal(0.0, sigma))
    rec_n = calibration_pipeline(list(zip(volts, noisy)), p_zero, cp, bw)
    assert rec_n.gain == pytest.approx(gain, rel=0.01)
    assert rec_n.t_noise == pytest.approx(t_noise, rel=0.02)


def test_criterion_09_thermal_response():
    net = ThermalNetwork(t0=0.1, ep_sigma=2e9, volume=1e-18)
    a = a_coefficient(net)

    # finite-difference slope of the steady state matches 1/(1 + a T0^3)
    h = 1e-6
    slope = (steady_state(net, 0.1 + h) - steady_state(net, 0.1 - h)) \
        / (2.0 * h)
    assert slope == pytest.approx(differential_response(0.1, a), rel=1e-4)

    # response strictly increases as the phonon bath cools
    dt = 1e-3
    resp = []
    for t0 in (0.4, 0.3, 0.2, 0.1, 0.05, 0.025):
        net_i = ThermalNetwork(t0=t0, ep_sigma=2e9, volume=1e-18)
        resp.append((steady_state(net_i, t0 + dt) - t0) / dt)
    assert all(b > a_ for a_, b in zip(resp, resp[1:]))


def test_criterion_10_global_invariants(junction_50ghz, device, mode_10ghz,
                                        tmp_path):
    # drive matrix-element sum rule
    total = sum(fock_matrix_sq(3, l, 0.7) for l in range(200))
    assert total == pytest.approx(1.0, abs=1e-10)

    # detailed balance of the undriven environment
    r = transition_rates(0.0, mode_10ghz, junction_50ghz, device,
                         epsrel=1e-9)
    boltz = math.exp(-sc.hbar * mode_10ghz.omega
                     / (sc.k * junction_50ghz.temp_n))
    assert r.up / r.down == pytest.approx(boltz, rel=1e-6)

    # probability conservation along a pulsed trajectory
    env = DcRateSource(mode_10ghz, junction_50ghz, device, epsrel=1e-9)
    best = optimal_bias(mode_10ghz, junction_50ghz, device, epsrel=1e-9)
    traj = evolve(LadderState.coherent(0.8, 12),
                  PulseSchedule(v_on=best.voltage, width=20e-9), env,
                  t_eval=np.linspace(0.0, 20e-9, 11))
    assert np.max(np.abs(traj.probs.sum(axis=1) - 1.0)) < 1e-9

    # bit-identical outputs on repeated runs of the same configuration
    cfg = json.loads((CONFIG_DIR / "sweep_bias.json").read_text())
    cfg["epsrel"] = 1e-9
    cfg["grid"] = {"start": 0.0, "stop": 1.4, "points": 15}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "run.csv")
    assert cli_main(["--config", str(cfg_path), "--out", out]) == 0
    first = Path(out).read_bytes(), Path(out + ".meta.json").read_bytes()
    assert cli_main(["--config", str(cfg_path), "--out", out]) == 0
    second = Path(out).read_bytes(), Path(out + ".meta.json").read_bytes()
    assert first == second
