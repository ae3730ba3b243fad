"""Sweep the dc bias of a two-junction cooler and print its figures of merit.

Builds a 10 GHz mode coupled to a SINIS element (gap 50 GHz, Dynes 1e-4,
15 kOhm per junction, 100 mK electrons), sweeps the device bias through
the gap edge in one batched rate call, and reports the photon
emission/absorption rates, the excited-state population, and the
environment temperature at each point, followed by the optimal bias and
the on/off damping ratio.

Run from the repository root:  python3 scripts/bias_sweep_demo.py
"""

import numpy as np

from qcrlab import (
    DeviceConfig,
    JunctionParams,
    ModeParams,
    RatePair,
    effective_temperature,
    on_off_ratio,
    optimal_bias,
    steady_p1,
    transition_rates,
)
from qcrlab.units import E_CHARGE, PLANCK, ghz_to_omega


def main():
    junction = JunctionParams(delta=PLANCK * 50e9, dynes=1e-4, r_t=15e3,
                              temp_n=0.1)
    device = DeviceConfig(junctions=2)
    mode = ModeParams(omega=ghz_to_omega(10.0), impedance=35.0, alpha=0.5)
    scale = 2.0 * junction.delta / E_CHARGE  # volts per unit of eV/2Delta

    print(f"bias scale 2*Delta/e = {scale * 1e6:.2f} uV")
    print(f"{'eV/2Delta':>10} {'gamma_up':>12} {'gamma_down':>12} "
          f"{'p1':>10} {'T_eff (mK)':>11}")
    xs = np.linspace(0.0, 1.4, 15)
    rates = transition_rates(xs * scale, mode, junction, device, epsrel=1e-9)
    for x, r in zip(xs, map(RatePair, rates.up, rates.down)):
        try:
            p1 = steady_p1(r)
            teff = 1e3 * effective_temperature(r, mode.omega)
            print(f"{x:10.3f} {r.up:12.4e} {r.down:12.4e} "
                  f"{p1:10.3e} {teff:11.2f}")
        except Exception:
            print(f"{x:10.3f} {r.up:12.4e} {r.down:12.4e} {'-':>10} "
                  f"{'-':>11}")

    best = optimal_bias(mode, junction, device, epsrel=1e-9)
    ratio = on_off_ratio(mode, junction, device, points=101, epsrel=1e-9)
    edge = 2.0 * (junction.delta - ghz_to_omega(10.0)
                  * PLANCK / (2.0 * np.pi)) / E_CHARGE
    print()
    print(f"optimal bias      : {best.voltage * 1e6:.2f} uV "
          f"(gap-edge estimate {edge * 1e6:.2f} uV)")
    print(f"T_eff at optimum  : {best.t_eff * 1e3:.2f} mK "
          f"(electrons at {junction.temp_n * 1e3:.0f} mK)")
    print(f"on/off ratio      : {ratio:.3e}")


if __name__ == "__main__":
    main()
