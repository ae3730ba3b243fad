"""Frozen values of the reset path: ``evolve`` on a ramped pulse and
scalar ``transition_rates`` calls, the two halves of a pulsed-reset
session.

The values were recorded at full precision from an earlier revision of
the package.  A change that only reorganises the bookkeeping of these
paths keeps them to the last bit; a change of numerics must show up here
and be justified.  Each check also reruns the computation and asks for
bitwise equal results.
"""

import numpy as np
import pytest

from qcrlab import dynamics
from qcrlab.dynamics import RAMP_SAMPLES, LadderState, PulseSchedule, evolve
from qcrlab.junction import DeviceConfig, JunctionParams
from qcrlab.spectrum import ModeParams, transition_rates
from qcrlab.units import E_CHARGE, ghz_to_omega, uev_to_joule

RTOL = 1e-13
NS = 1e-9
MODE = ModeParams(omega=ghz_to_omega(10.0), impedance=35.0, alpha=0.5)
DEVICE = DeviceConfig(junctions=2)

TRAJECTORY = {
    "eta": [
        1.0, 0.9979944080872624, 0.9939952833912576, 0.9938705670288969,
        0.9931224377349122, 0.9924591185368571, 0.991500341677043,
        0.9663718674881334, 0.6323552341292843, 0.3347236328251069,
        0.3278074750061762, 0.3263393996114606, 0.3254624021240446,
        0.3254215664303986, 0.32346750214561104, 0.3202367681983356,
    ],
    "n": [
        0.0, 9.989968685078553e-05, 0.0002990983883766502,
        0.00030531046846672764, 0.00034272856797824114,
        0.00037670719120993194, 0.00042740706067035745,
        0.0005002584445405884, 0.0007211306687466956, 0.0009179428846923997,
        0.0009281756155768083, 0.0009634569841974126, 0.001100084589341892,
        0.0011061961698802896, 0.0013986521637431326, 0.0018821815516002942,
    ],
    "mean_n": [
        1.0, 0.9980943077741131, 0.9942943817796343, 0.9941758774973636,
        0.9934651663028904, 0.9928358257280671, 0.9919277487377134,
        0.966872125932674, 0.633076364798031, 0.3356415757097993,
        0.328735650621753, 0.327302856595658, 0.3265624867133865,
        0.3265277626002789, 0.32486615430935417, 0.3221189497499359,
    ],
    "ground_pop": [
        0.36787944117144233, 0.36861792189000137, 0.37009441746208205,
        0.37014054858730233, 0.370417380850368, 0.3706629836482114,
        0.37101823589556604, 0.3804544548977053, 0.5311980122842185,
        0.7150990751339674, 0.7200524377787636, 0.7210921931479781,
        0.7216577814788372, 0.7216842454678722, 0.7229513194073243,
        0.7250493414503579,
    ],
}

RATES = {
    (0.01, "up"): [
        1.0744399180354067e-17, 1.390099103755541e-11,
        2.8425909230866524e-05, 16.81564589619788, 966.3225071252629,
        2136.982645018447, 3334.0659180237367, 4573.985326273979,
        5876.073605844027, 7264.3048247767965, 8769.91088475856,
        10435.627962913433, 12323.06099388131, 14526.43276751241,
        17200.665218692244, 20625.897107999706, 25382.510556689555,
        32967.35555592213, 49397.73509640048, 9142987.104334505,
    ],
    (0.01, "down"): [
        7482.211423247128, 7531.0861223423935, 7681.130838874282,
        7960.025896982597, 9303.973077913812, 11035.402157465242,
        13015.317147000978, 15353.910545777922, 18237.601162056293,
        22017.031720286323, 27463.76288787532, 36795.48136008576,
        62613.3855252722, 37070404.89465704, 76701665.68776149,
        103064094.13482, 125004906.22931837, 144559004.68063402,
        162591390.34786007, 179561627.75900093,
    ],
    (0.1, "up"): [
        62.73215838655957, 108.6777643626691, 283.68967238321454,
        678.1006891459358, 1359.179463829383, 2299.0727034592833,
        3412.0378262556715, 4634.029361188897, 5946.151752233881,
        7364.8741308072385, 8946.952566336806, 10862.980209868078,
        13745.992914006403, 20261.455934026097, 42199.54526962581,
        132537.14660712655, 528832.575238261, 2260176.3246833435,
        9139223.574064702, 28964567.096749805,
    ],
    (0.1, "down"): [
        7616.843183391614, 7714.902631206616, 8051.867401204563,
        8740.371941413312, 9916.349810136757, 11796.73800237712,
        15292.7716418996, 24681.051795569136, 59345.86520685844,
        206665.53526456738, 856235.9579224159, 3646131.654024937,
        13949811.68671265, 38814932.900242664, 71125968.66310197,
        99529293.9951963, 122991774.9752448, 143327691.09186476,
        161767495.61580306, 178969358.674449,
    ],
}


def junction(temp_n: float) -> JunctionParams:
    return JunctionParams(delta=uev_to_joule(206.8), dynes=1e-4, r_t=15e3,
                          temp_n=temp_n)


def ramped_run():
    """A pulse from 0.1 to 0.95 of 2 delta/e with 2 ns ramps, an extra
    damping channel, and samples at 0, inside both ramps, on ramp knots
    and on the schedule's breakpoints."""
    j = junction(0.01)
    scale = 2 * j.delta / E_CHARGE
    sched = PulseSchedule(v_on=0.95 * scale, width=10 * NS,
                          rise_fall=2 * NS, t_start=3 * NS,
                          v_off=0.1 * scale)
    rise = np.linspace(sched.t_start, sched.t_start + sched.rise_fall,
                       RAMP_SAMPLES)
    fall = np.linspace(sched.t_start + sched.rise_fall + sched.width,
                       sched.t_end_pulse, RAMP_SAMPLES)
    t_eval = sorted({0.0, 1 * NS, *sched.breakpoints(), rise[1], rise[7],
                     3.77 * NS, rise[20], 9 * NS, fall[4], 15.6 * NS,
                     fall[31], 20 * NS, 25 * NS})
    env = dynamics.DcRateSource(MODE, j, DEVICE, epsrel=1e-9)
    return evolve(LadderState.coherent(1.0, 30), sched, env, 2e6, 0.05,
                  t_end=25 * NS, t_eval=t_eval)


def test_ramped_evolve_matches_frozen_values():
    traj = ramped_run()
    assert traj.times[0] == 0.0 and len(traj.times) == 16
    again = ramped_run()
    for name, want in TRAJECTORY.items():
        got = getattr(traj, name)
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0, err_msg=name)
        np.testing.assert_array_equal(getattr(again, name).view(np.uint64),
                                      got.view(np.uint64), err_msg=name)


@pytest.mark.parametrize("temp_n", [0.01, 0.1])
def test_scalar_transition_rates_match_frozen_values(temp_n):
    j = junction(temp_n)
    vs = np.linspace(0.0, 1.2 * 2 * j.delta / E_CHARGE, 20).tolist()
    runs = [[transition_rates(v, MODE, j, DEVICE, epsrel=1e-9) for v in vs]
            for _ in range(2)]
    for kind in ("up", "down"):
        got = np.array([getattr(r, kind) for r in runs[0]])
        np.testing.assert_allclose(got, RATES[temp_n, kind], rtol=RTOL,
                                   atol=0, err_msg=kind)
        again = np.array([getattr(r, kind) for r in runs[1]])
        np.testing.assert_array_equal(again.view(np.uint64),
                                      got.view(np.uint64), err_msg=kind)
