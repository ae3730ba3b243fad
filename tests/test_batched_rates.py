"""The batched bias and drive paths against the scalar path, bit for bit.

``transition_rates`` and ``source_sweep_point`` broadcast over an array
of device biases, and ``rf_transition_rates`` over an array of drive
strengths, with one batched ``F(E)`` call; every entry must equal the
scalar call at that bias or drive exactly, and a float must give floats.
"""

import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrlab import (DeviceConfig, DriveState, JunctionParams, ModeParams,
                    PhotonSourceParams, junction, rf_transition_rates,
                    source_sweep_point, temp_from_occupation,
                    transition_rates)
from qcrlab.errors import TruncationError, UndefinedSteadyStateError
from qcrlab.units import E_CHARGE, PLANCK, ghz_to_omega

GAP = PLANCK * 50e9
MODE = ModeParams(omega=ghz_to_omega(10.0), impedance=35.0, alpha=0.5)
SOURCE = PhotonSourceParams(c_coupling=10e-15, omega0=MODE.omega, z0=50.0,
                            l_res=12e-3, c_per_len=160e-12)
EPS = 1e-9


@st.composite
def devices_and_biases(draw):
    """A junction, a device with nonzero charging energy, device biases."""
    temp = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.3)))
    dynes = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1e-3)))
    j = JunctionParams(delta=GAP, dynes=dynes, r_t=15e3, temp_n=temp)
    dev = DeviceConfig(junctions=draw(st.sampled_from([1, 2])),
                       charging_energy=GAP * draw(st.floats(0.01, 0.3)))
    # per-junction bias energies of either sign, up to 3*delta
    xs = draw(st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=6))
    scale = dev.junctions * 2.0 * GAP / E_CHARGE
    return j, dev, [x * scale for x in xs]


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@given(devices_and_biases())
def test_transition_rates_array_matches_scalar_calls(case):
    j, dev, vs = case
    batch = transition_rates(np.array(vs), MODE, j, dev, epsrel=EPS)
    scalar = [transition_rates(v, MODE, j, dev, epsrel=EPS) for v in vs]
    for r in scalar:
        assert type(r.up) is float and type(r.down) is float
    np.testing.assert_array_equal(bits(batch.up), bits([r.up for r in scalar]))
    np.testing.assert_array_equal(bits(batch.down),
                                  bits([r.down for r in scalar]))


# draws without smearing or heat often fail to damp somewhere; more cases
# keep the success branch well covered
@settings(max_examples=60)
@given(devices_and_biases(), st.sampled_from([0.0, 0.934]))
def test_source_sweep_point_array_matches_scalar_calls(case, n_tr):
    j, dev, vs = case

    def point(v):
        return source_sweep_point(v, SOURCE, MODE, j, dev, gamma_tr=1.5e7,
                                  n_tr=n_tr, epsrel=EPS)

    scalar = []
    for v in vs:
        try:
            scalar.append(point(v))
        except UndefinedSteadyStateError:
            scalar.append(None)
    if None in scalar:
        # the batched call names the first bias that does not damp
        first = vs[scalar.index(None)]
        with pytest.raises(UndefinedSteadyStateError,
                           match=re.escape(f"at bias {first!r} V")):
            point(np.array(vs))
        return
    # t_res takes math.log1p per element, as temp_from_occupation does
    assert [p.t_res for p in scalar] == [
        temp_from_occupation(p.n_res, SOURCE.omega0) if p.n_res > 0 else 0.0
        for p in scalar]
    batch = point(np.array(vs))
    for field in ("bias", "gamma_t", "n_res", "power", "t_res"):
        values = [getattr(p, field) for p in scalar]
        assert all(type(x) is float for x in values), field
        np.testing.assert_array_equal(bits(getattr(batch, field)),
                                      bits(values), err_msg=field)


@st.composite
def drives(draw):
    """A drive over several strengths, vacuum included, small truncations;
    strong thermal drives overflow the cut."""
    ns = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
                       min_size=1, max_size=5))
    return DriveState(mean_n=np.array(ns),
                      distribution=draw(st.sampled_from(["coherent",
                                                         "thermal"])),
                      l_max=draw(st.integers(0, 5)),
                      fock_cut=draw(st.integers(0, 60)))


# at rho = 30 every overlap of a small cut underflows, so no sideband
# carries weight and the rates are zeros of the drive's shape
@settings(max_examples=60)
@given(devices_and_biases(), drives(),
       st.one_of(st.floats(0.0, 1.5), st.just(30.0)))
def test_rf_transition_rates_drive_array_matches_scalar_calls(case, d, rho):
    j, dev, vs = case
    support = ModeParams(omega=2.0 * MODE.omega, impedance=35.0, alpha=0.5,
                         rho=rho)

    def rates(mean_n):
        return rf_transition_rates(vs[0], MODE, support,
                                   replace(d, mean_n=mean_n), j, dev,
                                   epsrel=EPS)

    with mock.patch.object(junction, "_clenshaw",
                           wraps=junction._clenshaw) as interpolated:
        scalar = []
        for n in d.mean_n.tolist():
            try:
                scalar.append(rates(n))
            except TruncationError:
                scalar.append(None)
        if None in scalar:
            # the batched call names the first drive the cut truncates
            first = d.mean_n.tolist()[scalar.index(None)]
            with pytest.raises(TruncationError,
                               match=re.escape(f"at mean_n = {first!r};")):
                rates(d.mean_n)
            return
        batch = rates(d.mean_n)
    for r in scalar:
        assert type(r.up) is float and type(r.down) is float
    for field in ("up", "down"):
        values = [getattr(r, field) for r in scalar]
        if interpolated.called:
            # the batch can hold more energies than a vacuum entry alone
            # and so be served by the F(E) interpolant instead
            np.testing.assert_allclose(getattr(batch, field), values,
                                       rtol=EPS, err_msg=field)
        else:
            np.testing.assert_array_equal(bits(getattr(batch, field)),
                                          bits(values), err_msg=field)


def test_rf_batch_served_by_the_interpolant_agrees_within_epsrel():
    # 11 sidebands at nonzero bias give the batch 44 energies, at least the
    # 25 that F(E) serves from its interpolant; the vacuum entry alone has
    # only the 6 sidebands s <= 0, 24 energies, and integrates directly
    j = JunctionParams(delta=GAP, dynes=1e-4, r_t=15e3, temp_n=0.3)
    dev = DeviceConfig(junctions=1, charging_energy=0.05 * GAP)
    support = ModeParams(omega=ghz_to_omega(2.0), impedance=35.0, alpha=0.5)
    d = DriveState(mean_n=np.array([0.0, 1.0, 3.0]), l_max=5, fock_cut=60)
    v = 0.6 * GAP / E_CHARGE

    def rates(mean_n):
        return rf_transition_rates(v, MODE, support,
                                   replace(d, mean_n=mean_n), j, dev,
                                   epsrel=EPS)

    with mock.patch.object(junction, "_clenshaw",
                           wraps=junction._clenshaw) as interpolated:
        batch = rates(d.mean_n)
        assert interpolated.call_count == 1
        vacuum = rates(0.0)
        assert interpolated.call_count == 1
        driven = [rates(n) for n in d.mean_n.tolist()[1:]]
    for field in ("up", "down"):
        np.testing.assert_allclose(getattr(batch, field)[0],
                                   getattr(vacuum, field), rtol=EPS)
        # a driven entry has every sideband, so its own call interpolates
        np.testing.assert_array_equal(
            bits(getattr(batch, field)[1:]),
            bits([getattr(r, field) for r in driven]))
