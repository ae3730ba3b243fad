"""Broadened BCS density of states and the forward tunnelling rate."""

import functools
import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from qcrlab import (DeviceConfig, JunctionParams, adaptive_quad, dos, fermi,
                    forward_rate, junction)
from qcrlab.errors import QuadratureError
from qcrlab.quadrature import _MAX_PANELS
from qcrlab.units import K_B, PLANCK, uev_to_joule

DELTA = uev_to_joule(215.0)


def make_j(dynes=1e-4, temp=0.1):
    return JunctionParams(delta=DELTA, dynes=dynes, r_t=15e3, temp_n=temp)


class TestDos:
    def test_zero_energy_value(self):
        # n(0) = gamma / sqrt(1 + gamma^2)
        for gd in (1e-6, 1e-4, 1e-2):
            j = make_j(dynes=gd)
            assert dos(0.0, j) == pytest.approx(gd / math.sqrt(1 + gd * gd),
                                                rel=1e-12)

    def test_far_above_gap(self):
        # n(10 delta) -> 10/sqrt(99) in the small-broadening limit
        j = make_j(dynes=1e-7)
        assert dos(10.0 * DELTA, j) == pytest.approx(10.0 / math.sqrt(99.0),
                                                     rel=1e-9)

    def test_even_in_energy(self):
        j = make_j()
        eps = np.linspace(-3.0, 3.0, 41) * DELTA
        np.testing.assert_allclose(dos(eps, j), dos(-eps, j), rtol=1e-13)
        # and its antiderivative odd, bit for bit
        np.testing.assert_array_equal(junction.cumulative_dos(-eps, j),
                                      -junction.cumulative_dos(eps, j))

    def test_bounded_below_by_broadening_floor(self):
        j = make_j(dynes=1e-4)
        eps = np.linspace(0.0, 0.95, 200) * DELTA
        assert np.all(dos(eps, j) > 0.0)

    def test_vectorized_matches_scalar(self):
        j = make_j()
        eps = np.array([0.0, 0.5, 1.5]) * DELTA
        vec = dos(eps, j)
        for e, v in zip(eps, vec):
            assert dos(float(e), j) == v


class TestFermi:
    def test_half_at_zero(self):
        assert fermi(0.0, 0.1) == 0.5

    def test_zero_temperature_step(self):
        assert fermi(1e-25, 0.0) == 0.0
        assert fermi(-1e-25, 0.0) == 1.0

    @settings(max_examples=200)
    @given(st.floats(-700.0, 700.0))
    def test_logistic_accuracy(self, x):
        # within 2 ulp of the exact logistic; scipy's expit is too, through
        # libm's exp where numpy has its own, so the two may differ by 4
        t = 0.1
        e = x * K_B * t
        x = e / (K_B * t)
        got = fermi(e, t)
        with localcontext() as ctx:
            ctx.prec = 40
            exact = float(1 / (1 + Decimal(x).exp()))
        assert abs(got - exact) <= 2 * math.ulp(exact)
        assert abs(got - expit(-x)) <= 4 * math.ulp(exact)

    def test_complement_identity(self):
        e = np.linspace(-5, 5, 11) * K_B * 0.1
        np.testing.assert_allclose(fermi(e, 0.1) + fermi(-e, 0.1), 1.0,
                                   rtol=0, atol=1e-14)


class TestForwardRate:
    def test_zero_temperature_above_gap_value(self):
        # F(2 delta) = sqrt(3) delta / h exactly at T = 0, gamma_D -> 0
        j = JunctionParams(delta=DELTA, dynes=1e-9, r_t=15e3, temp_n=0.0)
        val = forward_rate(2.0 * DELTA, j)
        assert val == pytest.approx(math.sqrt(3.0) * DELTA / PLANCK,
                                    rel=1e-6)

    def test_detailed_balance(self):
        j = make_j(temp=0.05)
        kt = K_B * j.temp_n
        for e in (0.3 * DELTA, 0.5 * DELTA, 1.5 * DELTA):
            fwd = forward_rate(e, j)
            bwd = forward_rate(-e, j)
            assert bwd == pytest.approx(math.exp(-e / kt) * fwd, rel=1e-9)

    def test_monotone_in_energy_gain(self):
        j = make_j()
        es = np.linspace(-2.0, 3.0, 24) * DELTA
        vals = [forward_rate(float(e), j) for e in es]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_normalised_rate_ignores_resistance(self):
        # the 1/R_T prefactor belongs to the coupling formulas, not F(E)
        j1 = make_j()
        j2 = JunctionParams(delta=DELTA, dynes=1e-4, r_t=30e3, temp_n=0.1)
        e = 2.5 * DELTA
        assert forward_rate(e, j1) == forward_rate(e, j2)

    @given(st.floats(0.05, 2.5))
    def test_detailed_balance_property(self, x):
        j = make_j(temp=0.08)
        e = x * DELTA
        fwd = forward_rate(e, j, epsrel=1e-9)
        bwd = forward_rate(-e, j, epsrel=1e-9)
        assert bwd == pytest.approx(math.exp(-e / (K_B * j.temp_n)) * fwd,
                                    rel=1e-6)


def direct_rate(e, j, epsrel):
    """F(E) integrated from its own integrand, with no detailed balance."""
    kt = K_B * j.temp_n
    window = max(30.0 * kt, 10.0 * j.delta, 3.0 * abs(e))
    span = min(30.0 * kt, j.delta)
    pts = [s + d for s in (-j.delta, 0.0, e, j.delta)
           for d in (-span, 0.0, span)]

    def integrand(x):
        return dos(x, j) * expit(-(x - e) / kt) * expit(x / kt)

    val, _ = adaptive_quad(integrand, -window, window, points=pts,
                           epsrel=epsrel)
    return val / PLANCK


class TestBatchedForwardRate:
    @pytest.mark.parametrize("temp", [0.1, 0.0])
    def test_batch_matches_scalar_bitwise(self, temp):
        # shuffled, with repeats and sign flips, longer than one batch
        # (each problem has at least one first-round panel)
        j = make_j(temp=temp)
        rng = np.random.default_rng(7)
        e = rng.uniform(-3.0, 3.0, _MAX_PANELS + 3) * DELTA
        e = np.concatenate([e, e[:10], -e[10:20], [0.0]])
        rng.shuffle(e)
        batch = forward_rate(e, j)
        np.testing.assert_array_equal(forward_rate(e.reshape(2, -1), j),
                                      batch.reshape(2, -1))
        if temp == 0.0:
            np.testing.assert_array_equal(
                batch, [forward_rate(float(x), j) for x in e])
        else:
            # so long a call reads the interpolant; the direct quadrature,
            # which serves every scalar call, is split into batches without
            # changing any of its energies' rates
            mag = np.abs(e)
            direct = junction._rate_at_temperature
            np.testing.assert_array_equal(
                direct(mag, j, 1e-11),
                [direct(mag[i:i + 1], j, 1e-11)[0] for i in range(mag.size)])

    def test_float_in_float_out(self):
        j = make_j()
        assert isinstance(forward_rate(0.5 * DELTA, j), float)
        assert isinstance(forward_rate(np.float64(-0.5 * DELTA), j), float)
        assert forward_rate(np.array([]), j).shape == (0,)

    @given(st.floats(0.05, 2.5), st.booleans(),
           st.floats(-6.0, math.log10(0.3)),
           st.one_of(st.just(0.0), st.floats(0.05, 0.3)))
    def test_matches_direct_integral(self, x, negative, log_dynes, temp):
        # either sign of E, log-uniform smearing, zero temperature included
        j = make_j(dynes=10.0**log_dynes, temp=temp)
        epsrel = 1e-9
        e = (-x if negative else x) * DELTA
        if temp == 0.0:
            # the occupation window (0, E) integrated over dos itself
            assume(abs(x - 1.0) > 0.01)
            ref = adaptive_quad(lambda y: dos(y, j), 0.0, max(e, 0.0),
                                points=[DELTA], epsrel=epsrel).value / PLANCK
        else:
            ref = direct_rate(e, j, epsrel)
        assert forward_rate(e, j, epsrel=epsrel) == pytest.approx(
            ref, rel=10 * epsrel)

    def test_zero_temperature_closed_form(self):
        e = np.linspace(-3.0, 3.0, 60) * DELTA
        closed = [math.sqrt(x * x - DELTA**2) / PLANCK if x > DELTA else 0.0
                  for x in e]
        sharp = JunctionParams(delta=DELTA, dynes=0.0, r_t=15e3, temp_n=0.0)
        np.testing.assert_allclose(forward_rate(e, sharp), closed,
                                   rtol=1e-15, atol=0.0)
        smeared = JunctionParams(delta=DELTA, dynes=1e-9, r_t=15e3,
                                 temp_n=0.0)
        rates = forward_rate(e, smeared)
        np.testing.assert_allclose(rates, closed, rtol=1e-6,
                                   atol=1e-6 * DELTA / PLANCK)
        assert np.all(rates[e <= 0.0] == 0.0)
        # at the gap edge F(delta) = delta sqrt(dynes) (1 - dynes/4)/h to
        # leading order, which no quadrature of dos reached at this smearing
        assert forward_rate(DELTA, smeared) == pytest.approx(
            DELTA * math.sqrt(1e-9) / PLANCK, rel=1e-9)
        assert forward_rate(-DELTA, smeared) == 0.0

    def test_zero_smearing_at_finite_temperature(self):
        # dos diverges at the gap edges when dynes = 0; above the gap the
        # rate must match a vanishing smearing
        sharp, smeared = make_j(dynes=0.0, temp=0.3), make_j(dynes=1e-9,
                                                              temp=0.3)
        above = np.linspace(1.05, 4.0, 12) * DELTA
        np.testing.assert_allclose(forward_rate(above, sharp),
                                   forward_rate(above, smeared),
                                   rtol=1e-7, atol=0.0)
        # every energy converges, the gap edges and zero included, and a
        # batch equals its scalar calls
        e = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 12.0]) * DELTA
        for temp in (0.01, 0.3):
            j = make_j(dynes=0.0, temp=temp)
            rates = forward_rate(e, j)
            assert np.all(np.isfinite(rates)) and np.all(rates > 0.0)
            np.testing.assert_array_equal(
                rates, [forward_rate(float(x), j) for x in e])

    def test_failure_names_the_energy(self, monkeypatch):
        # well above the gap the first round's 37 panels converge, with no
        # split; 40 panels do not suffice at 0.7 delta (45 needed)
        monkeypatch.setattr(junction, "adaptive_quad",
                            functools.partial(adaptive_quad, max_panels=40))
        j = make_j()
        bad = 0.7 * DELTA
        with pytest.raises(QuadratureError) as alone:
            forward_rate(bad, j)
        with pytest.raises(QuadratureError) as batch:
            forward_rate(np.array([1.5, -2.0, 0.7, 2.5]) * DELTA, j)
        assert f"E = {bad!r} J" in str(batch.value)
        assert batch.value.problem == 2
        assert batch.value.achieved == alone.value.achieved

    def test_interpolant_failure_names_a_requested_energy(self,
                                                           monkeypatch):
        # enough energies to build the interpolant, whose first round
        # already fails below the gap edge; the error must still name an
        # energy of the call, indexed in the caller's array
        monkeypatch.setattr(junction, "adaptive_quad",
                            functools.partial(adaptive_quad, max_panels=40))
        junction._published_bases.cache_clear()
        j = make_j()
        e = np.append(np.linspace(-3.0, 3.0, 399), 0.8) * DELTA
        with pytest.raises(QuadratureError) as batch:
            forward_rate(e.reshape(2, -1), j)
        named = float(e[batch.value.problem])
        assert f"E = {named!r} J" in str(batch.value)
        # the inner quadrature indexes the de-duplicated |E|, not the call
        assert re.findall(r"problem (\d+)", str(batch.value)) in (
            [], [str(batch.value.problem)])
        with pytest.raises(QuadratureError):
            forward_rate(named, j)


class TestDirectQuadrature:
    """The direct path, which serves every call of fewer than 25 |E|."""

    def test_gap_edge_meets_epsrel(self):
        # near the gap edge the Kronrod error estimate is optimistic unless
        # the panels resolve the edge; here it once fell 5 epsrel short
        j = JunctionParams(delta=DELTA, dynes=5.29e-5, r_t=15e3,
                           temp_n=0.2765)
        e = np.array([0.9518 * DELTA])
        np.testing.assert_allclose(junction._rate_at_temperature(e, j, 1e-9),
                                   junction._rate_at_temperature(e, j, 1e-12),
                                   rtol=1e-9, atol=0.0)

    @settings(max_examples=40)
    @given(st.floats(150.0, 250.0), st.floats(0.01, 0.3),
           st.one_of(st.just(0.0), st.floats(-6.0, -3.0)),
           st.sampled_from([1e-9, 1e-11]),
           st.lists(st.one_of(st.floats(0.0, 3.0), st.floats(0.9, 1.1)),
                    min_size=1, max_size=24))
    def test_within_epsrel_of_converged_integral(self, gap_uev, temp,
                                                 log_dynes, epsrel, xs):
        # random junctions, energies crowded around the gap edge
        dynes = 0.0 if log_dynes == 0.0 else 10.0**log_dynes
        j = JunctionParams(delta=uev_to_joule(gap_uev), dynes=dynes,
                           r_t=15e3, temp_n=temp)
        e = np.array(xs) * j.delta
        np.testing.assert_allclose(
            junction._rate_at_temperature(e, j, epsrel),
            junction._rate_at_temperature(e, j, epsrel / 1000),
            rtol=epsrel, atol=0.0)

    @pytest.mark.parametrize("temp", [1e-9, 1e-6, 0.01, 0.1])
    def test_scalar_call_takes_at_most_two_rounds(self, temp, monkeypatch):
        # breakpoints graded toward the gap edge and the Fermi kink resolve
        # both in the first Kronrod pass, leaving at most one round of
        # bisection
        calls = []

        def quad(f, *args, **kwargs):
            def integrand(x):
                calls.append(1)
                return f(x)
            return adaptive_quad(integrand, *args, **kwargs)

        monkeypatch.setattr(junction, "adaptive_quad", quad)
        j = make_j(temp=temp)
        for x in np.linspace(-3.0, 3.0, 61):
            calls.clear()
            forward_rate(x * DELTA, j, epsrel=1e-9)
            assert len(calls) <= 2, x


def unclamped_integrand(e, b, kt, j, u):
    """The direct integrand as written before its small exponentials were
    clamped, kept as the reference of the clamped one."""
    up = np.maximum(u, 0.0)
    a, m = b + u, b + up
    ea, eb = np.exp(np.minimum(u, 0.0)), np.exp(-up)
    num = -np.expm1(-2.0 * a) * ea * (np.exp(-m) + eb)
    den = ea + np.exp(-a - m) + eb + np.exp(-b - m)
    n = junction._shifted_cumulative_dos(e, kt * u, j)
    return n * (num / (den * den))


class TestClampedIntegrand:
    """exp of a term under e^-40 of its partner is clamped there, under
    half an ulp of the sum: the integrand keeps every bit."""

    @settings(max_examples=60)
    @given(st.floats(-9.0, math.log10(0.3)),
           st.one_of(st.just(0.0), st.floats(-6.0, -3.0)),
           st.lists(st.floats(0.0, 60.0), min_size=1, max_size=24),
           st.integers(0, 2**32 - 1))
    def test_bit_identical_to_unclamped(self, log_temp, log_dynes, xs, seed):
        dynes = 0.0 if log_dynes == 0.0 else 10.0**log_dynes
        j = make_j(dynes=dynes, temp=10.0**log_temp)
        e = np.array(xs) * DELTA
        captured = []

        def quad(f, lo, hi, **kwargs):
            captured.append((f, lo, hi))
            return np.zeros(e.size), None

        with mock.patch.object(junction, "adaptive_quad", quad):
            junction._rate_at_temperature(e, j, 1e-9)
        (f, lo, hi), = captured
        # nodes over each energy's whole domain, and as many within 200 of
        # its lower end, where the kernel's exponents are moderate
        rng = np.random.default_rng(seed)
        k = np.repeat(np.arange(e.size), 400)
        u = np.where(np.arange(k.size) % 2,
                     rng.uniform(lo[k], hi[k]),
                     rng.uniform(lo[k], np.minimum(hi[k], lo[k] + 200.0)))
        u = np.concatenate([u, lo, hi, np.zeros(e.size)])
        k = np.concatenate([k, np.tile(np.arange(e.size), 3)])
        kt = K_B * j.temp_n
        want = unclamped_integrand(e[k], e[k] / kt, kt, j, u)
        assert f((u, k)).tobytes() == want.tobytes()


def one_by_one(e, j, epsrel):
    """``forward_rate`` of each energy alone.

    Calls with at most 24 distinct energies always integrate directly
    (the interpolant's first panel alone has 25 nodes), and a direct
    batch equals its scalar calls bit for bit.
    """
    return np.concatenate([forward_rate(c, j, epsrel=epsrel)
                           for c in np.array_split(e, -(-e.size // 24))])


class TestInterpolatedForwardRate:
    # a call of 25 or more distinct |E| reads the interpolant
    SIZE = 1500

    @settings(max_examples=10)
    @given(st.floats(0.01, 0.3),
           st.one_of(st.just(0.0), st.floats(-6.0, -3.0)),
           st.sampled_from([1e-9, 1e-11]), st.integers(0, 2**32 - 1))
    def test_matches_direct_quadrature(self, temp, log_dynes, epsrel, seed):
        dynes = 0.0 if log_dynes == 0.0 else 10.0**log_dynes
        j = make_j(dynes=dynes, temp=temp)
        e = np.random.default_rng(seed).uniform(-6.0, 6.0, self.SIZE) * DELTA
        junction._published_bases.cache_clear()
        got = forward_rate(e, j, epsrel=epsrel)
        assert junction.interpolant_size(j, epsrel)[0] > 0
        # the reference is converged well below epsrel, so the whole
        # budget is the interpolant's.  Below the smallest normal float,
        # where detailed balance takes E < 0 to, no relative accuracy is
        # left.
        np.testing.assert_allclose(got, one_by_one(e, j, epsrel / 100),
                                   rtol=epsrel, atol=np.finfo(float).tiny)

    def test_24_distinct_energies_integrate_directly(self):
        # even with the bases cached; sign flips repeat an |E|
        j = make_j()
        forward_rate(np.linspace(0.0, 3.0, self.SIZE) * DELTA, j)
        mag = np.linspace(0.05, 3.0, 24) * DELTA
        e = np.concatenate([mag, -mag[::3]])
        with mock.patch.object(junction, "_clenshaw",
                               wraps=junction._clenshaw) as interpolated:
            batch = forward_rate(e, j)
        assert not interpolated.called
        np.testing.assert_array_equal(batch,
                                      [forward_rate(float(x), j) for x in e])

    def test_25_distinct_energies_read_the_interpolant(self):
        j = make_j()
        epsrel = 1e-9
        e = np.linspace(0.05, 3.0, 25) * DELTA
        e[::2] *= -1.0
        junction._published_bases.cache_clear()
        with mock.patch.object(junction, "_clenshaw",
                               wraps=junction._clenshaw) as interpolated:
            got = forward_rate(e, j, epsrel=epsrel)
        assert interpolated.call_count == 1
        np.testing.assert_allclose(got, one_by_one(e, j, epsrel / 100),
                                   rtol=epsrel, atol=np.finfo(float).tiny)

    def test_mid_size_calls_integrate_only_the_nodes(self, monkeypatch):
        # calls of 30 to 140 energies, each smaller than the interpolant's
        # node count, integrate nothing but the nodes of its bases
        j = make_j()
        epsrel = 1e-9
        integrated = []
        direct = junction._rate_at_temperature

        def counted(e, p, eps):
            integrated.append(np.size(e))
            return direct(e, p, eps)

        monkeypatch.setattr(junction, "_rate_at_temperature", counted)
        junction._published_bases.cache_clear()
        rng = np.random.default_rng(3)
        for size in rng.integers(30, 141, 20):
            forward_rate(rng.uniform(-3.0, 3.0, size) * DELTA, j,
                         epsrel=epsrel)
        nodes = junction.interpolant_size(j, epsrel)[1]
        assert nodes > 140
        assert sum(integrated) == nodes

    def test_cold_build_skips_rejected_parents(self):
        # bases 0 and 1 at 10 mK start from panels halving toward their
        # kinks and integrate 500 node energies; bisected from the whole
        # intervals, the parents they reject would add 350
        j = make_j(temp=0.01)
        junction._published_bases.cache_clear()
        forward_rate(np.linspace(0.0, 2.0, self.SIZE) * DELTA, j)
        assert junction.interpolant_size(j, 1e-11)[1] <= 550

    def test_panels_do_not_depend_on_the_first_call(self):
        j = make_j()
        base0 = []
        for top in (2.0, 8.0):
            junction._published_bases.cache_clear()
            e = np.linspace(0.0, top, self.SIZE) * DELTA
            first = forward_rate(e, j)
            assert junction.interpolant_size(j, 1e-11)[0] > 0
            np.testing.assert_array_equal(forward_rate(e, j), first)
            base0.append(junction._published_bases(j, 1e-11)[0])
        for a, b in zip(*base0):
            np.testing.assert_array_equal(a, b)

    def test_concurrent_builds_match_cold_calls(self):
        # more threads than cores build overlapping bases at once, with
        # frequent switches; each result equals the same call on a cold cache
        j = make_j()
        calls = [np.linspace(0.0, top, self.SIZE) * DELTA
                 for top in (1.5, 3.0, 6.0, 7.5)]
        cold = []
        for e in calls:
            junction._published_bases.cache_clear()
            cold.append(forward_rate(e, j))
        junction._published_bases.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                hot = list(pool.map(lambda e: forward_rate(e, j), calls,
                                    timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(hot, cold):
            np.testing.assert_array_equal(a, b)


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            JunctionParams(delta=-1.0, dynes=1e-4, r_t=1e4, temp_n=0.1)
        with pytest.raises(ValueError):
            JunctionParams(delta=DELTA, dynes=-0.1, r_t=1e4, temp_n=0.1)
        with pytest.raises(ValueError):
            JunctionParams(delta=DELTA, dynes=1e-4, r_t=0.0, temp_n=0.1)
        with pytest.raises(ValueError):
            JunctionParams(delta=DELTA, dynes=1e-4, r_t=1e4, temp_n=-0.1)

    COLD = [(1e-6, 1e-12), *((t, 1e-9) for t in (
        2.2e-9, 3e-9, 4e-9, 6e-9, 8e-9, 1e-8,
        1e-9, 1e-16, 1e-17, 1e-30, 1e-300, 5e-324))]

    @pytest.mark.parametrize("temp,epsrel", COLD,
                             ids=[repr(t) for t, _ in COLD])
    def test_cold_temperatures_match_zero_temperature(self, temp, epsrel):
        # every temp_n >= 0 is accepted: down to a kT that underflows, the
        # kernel in kink coordinates stays resolved, and below it F(E) is
        # the closed form
        delta = uev_to_joule(200.0)
        e = np.array([0.5, 0.9, 1.1, 2.0]) * delta
        cold, zero = (forward_rate(e, JunctionParams(delta, 1e-4, 1e4, t),
                                   epsrel=epsrel)
                      for t in (temp, 0.0))
        np.testing.assert_allclose(cold, zero, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("temp", [1e-9, 1e-12, 1e-16, 1e-30, 1e-200])
    @pytest.mark.parametrize("epsrel", [1e-9, 1e-11])
    def test_sharp_gap_edge_follows_square_root_law(self, temp, epsrel):
        # with dynes = 0, N(delta + x) = sqrt(2 delta x) to O(x/delta), so
        # F(delta) = sqrt(2 delta kT) Gamma(3/2) eta(1/2) / h, where
        # eta(1/2) = (1 - sqrt 2) zeta(1/2) is Dirichlet's eta function
        delta = uev_to_joule(200.0)
        eta = 0.6048986434216305
        law = (math.sqrt(2.0 * delta * K_B * temp) * math.gamma(1.5) * eta
               / PLANCK)
        rate = forward_rate(delta, JunctionParams(delta, 0.0, 1e4, temp),
                            epsrel=epsrel)
        assert rate == pytest.approx(law, rel=1e-9)

    @pytest.mark.parametrize("temp", [0.1, 0.0])
    @pytest.mark.parametrize("energies,bad", [
        ([math.inf], math.inf), ([math.nan], math.nan),
        ([*np.linspace(-2.0, 2.0, 30) * DELTA, math.inf], math.inf)])
    def test_rejects_nonfinite_energy_before_quadrature(self, temp,
                                                        energies, bad):
        fail = mock.Mock(side_effect=AssertionError("quadrature ran"))
        with mock.patch.object(junction, "adaptive_quad", fail), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"got E = {bad!r} J")):
                forward_rate(np.array(energies), make_j(temp=temp))
        fail.assert_not_called()

    @pytest.mark.parametrize("temp,e_bad", [
        (0.1, -2.8e285), (0.0, 2.8e285), (1e-300, 1e-14)],
        ids=["square", "square-at-0K", "e-over-kt"])
    def test_refuses_energy_its_integrand_cannot_hold(self, temp, e_bad):
        # N squares energies up to about 2|E|, and the kernel doubles E/kT:
        # F names the largest |E| before any quadrature
        fail = mock.Mock(side_effect=AssertionError("quadrature ran"))
        with mock.patch.object(junction, "adaptive_quad", fail):
            with pytest.raises(ValueError, match=re.escape(
                    f"F(E) at E = {e_bad!r} J overflows its integrand")):
                forward_rate(np.array([0.5 * DELTA, e_bad, 1e-20]),
                             make_j(temp=temp))
        fail.assert_not_called()

    def test_holds_energies_far_above_the_gap(self):
        # there F(E) is the normal-state rate E/h
        e = np.array([1e127, 1e150, 6e153])
        np.testing.assert_allclose(forward_rate(e, make_j()) * PLANCK / e,
                                   1.0, rtol=1e-12)

    def test_device_junction_count(self):
        assert DeviceConfig().junctions == 2
        assert DeviceConfig(junctions=1).junctions == 1
        with pytest.raises(ValueError):
            DeviceConfig(junctions=3)
