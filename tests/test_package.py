"""The package namespace: every exported name resolves, and the input
value classes refuse fields that are not finite."""

import math
from dataclasses import fields

import pytest

import qcrlab


def test_all_names_are_attributes():
    missing = [name for name in qcrlab.__all__ if not hasattr(qcrlab, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from qcrlab import *", namespace)
    assert set(qcrlab.__all__) <= set(namespace)


# a valid instance of each input class, every float field given
VALID = {
    qcrlab.JunctionParams: dict(delta=3.3e-23, dynes=1e-4, r_t=15e3,
                                temp_n=0.1),
    qcrlab.DeviceConfig: dict(junctions=2, charging_energy=1e-24),
    qcrlab.ModeParams: dict(omega=6.3e10, impedance=35.0, alpha=0.5,
                            rho=0.05),
    qcrlab.PulseSchedule: dict(v_on=3e-4, width=1e-8, rise_fall=1e-9,
                               t_start=2e-9, v_off=-1e-5),
    qcrlab.TwoModeParams: dict(omega1=5e10, kappa1=1e6, omega2=5.1e10,
                               kappa2=2e6, g=1e5),
    qcrlab.PhotonSourceParams: dict(c_coupling=1e-14, omega0=5e10, z0=50.0,
                                    l_res=0.01, c_per_len=1.6e-10),
    qcrlab.CalibrationParams: dict(gamma_tr=1e6, gamma_t_bar=2e6,
                                   gamma_x=1e5, n_tr=0.1, n_x=0.2,
                                   omega_r=5e10, delta=3.3e-23),
    qcrlab.ThermalNetwork: dict(t0=0.1, p_const=1e-15, ep_sigma=2e9,
                                volume=1e-19),
}
CASES = [(cls, name, bad) for cls, kwargs in VALID.items()
         for name, value in kwargs.items() if isinstance(value, float)
         for bad in (math.nan, math.inf, -math.inf)]


def test_every_float_field_is_covered():
    for cls, kwargs in VALID.items():
        assert [f.name for f in fields(cls)] == list(kwargs), cls
        cls(**kwargs)


@pytest.mark.parametrize(
    "cls, name, bad", CASES,
    ids=[f"{c.__name__}.{n}={b}" for c, n, b in CASES])
def test_input_classes_refuse_non_finite_fields(cls, name, bad):
    with pytest.raises(ValueError):
        cls(**{**VALID[cls], name: bad})
