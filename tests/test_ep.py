"""Coupled lossy modes: eigenvalue coalescence and flux maps."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcrlab import (FluxMap, TwoModeParams, eigenvalues, ep_locus,
                    transmission_map)
from qcrlab.ep import _discriminant, eigenvector_overlap, s21

W1 = 2.0 * math.pi * 5.223e9
G = 2.0 * math.pi * 8e6


def params(delta=0.0, kappa1=0.0, kappa2=0.0, g=G):
    return TwoModeParams(omega1=W1, kappa1=kappa1, omega2=W1 + delta,
                         kappa2=kappa2, g=g)


class TestEigenvalues:
    def test_decoupled_modes(self):
        p = params(delta=3.0 * G, kappa1=0.2 * G, kappa2=0.6 * G, g=0.0)
        lam = eigenvalues(p)
        expected = sorted([complex(0.0, -0.1 * G),
                           complex(3.0 * G, -0.3 * G)],
                          key=lambda z: (z.real, z.imag))
        assert lam[0] == pytest.approx(expected[0], rel=1e-14)
        assert lam[1] == pytest.approx(expected[1], rel=1e-14)

    def test_exact_coalescence(self):
        p = params(kappa2=4.0 * G)
        a, b = eigenvalues(p)
        assert a == b == complex(0.0, -G)

    def test_underdamped_splitting(self):
        # delta = 0, kappa1 = 0, kappa2 < 4g: real parts split by
        # 2 sqrt(g^2 - kappa2^2/16)
        k2 = 1.5 * G
        a, b = eigenvalues(params(kappa2=k2))
        split = 2.0 * math.sqrt(G * G - k2 * k2 / 16.0)
        assert b.real - a.real == pytest.approx(split, rel=1e-12)

    def test_trace_and_determinant(self):
        p = params(delta=2.1 * G, kappa1=0.3 * G, kappa2=2.7 * G)
        a, b = eigenvalues(p)
        tr = complex(p.delta, -0.5 * (p.kappa1 + p.kappa2))
        det = complex(0.0, -0.5 * p.kappa1) \
            * complex(p.delta, -0.5 * p.kappa2) - p.g * p.g
        assert abs((a + b - tr) / tr) < 1e-12
        assert abs((a * b - det) / det) < 1e-12

    def test_against_dense_eigensolver(self):
        p = params(delta=0.7 * G, kappa1=0.2 * G, kappa2=3.1 * G)
        h = np.array([[-0.5j * p.kappa1, p.g],
                      [p.g, p.delta - 0.5j * p.kappa2]])
        ref = sorted(np.linalg.eigvals(h), key=lambda z: (z.real, z.imag))
        got = eigenvalues(p)
        assert abs(got[0] - ref[0]) < 1e-12 * abs(ref[1])
        assert abs(got[1] - ref[1]) < 1e-12 * abs(ref[1])

    def test_losses_damp_not_amplify(self):
        p = params(delta=1.3 * G, kappa1=0.4 * G, kappa2=2.2 * G)
        for lam in eigenvalues(p):
            assert lam.imag <= 0.0

    @given(st.floats(-4.0, 4.0), st.floats(0.0, 3.0), st.floats(0.0, 8.0))
    def test_trace_identity_property(self, d, k1, k2):
        p = params(delta=d * G, kappa1=k1 * G, kappa2=k2 * G)
        a, b = eigenvalues(p)
        tr = complex(p.delta, -0.5 * (p.kappa1 + p.kappa2))
        assert abs((a + b) - tr) <= 1e-12 * max(abs(tr), G)


class TestEpLocus:
    def test_lossless_mode_one_gives_four_g(self):
        pts = ep_locus(params(kappa2=G))
        assert (0.0, 4.0 * G) in pts

    def test_finite_kappa1_point_is_machine_exact(self):
        k1 = 0.1 * G
        pts = ep_locus(params(kappa1=k1, kappa2=k1))
        assert len(pts) >= 1
        for d, k2 in pts:
            p = params(delta=d, kappa1=k1, kappa2=k2)
            a, b = eigenvalues(p)
            assert abs(a - b) < 1e-9 * G
            assert eigenvector_overlap(p) > 1.0 - 1e-6

    def test_matches_brute_force_grid(self):
        k1 = 0.1 * G
        d_grid = np.linspace(-4 * G, 4 * G, 201)
        k_grid = np.linspace(0.0, k1 + 8 * G, 201)
        dd, kk = np.meshgrid(d_grid, k_grid, indexing="ij")
        disc = (dd - 0.5j * (kk - k1)) ** 2 + 4.0 * G * G
        i, j = np.unravel_index(np.argmin(np.abs(disc)), disc.shape)
        d_star, k_star = ep_locus(params(kappa1=k1, kappa2=k1))[0]
        assert abs(d_star - d_grid[i]) <= d_grid[1] - d_grid[0]
        assert abs(k_star - k_grid[j]) <= k_grid[1] - k_grid[0]

    def test_square_root_splitting(self):
        k1 = 0.1 * G
        d_star, k_star = ep_locus(params(kappa1=k1, kappa2=k1))[0]
        eps = np.geomspace(1e-6, 1e-3, 11) * G
        seps = []
        for e in eps:
            p = params(delta=d_star, kappa1=k1, kappa2=k_star + e)
            a, b = eigenvalues(p)
            seps.append(abs(a - b))
        slope = np.polyfit(np.log(eps), np.log(seps), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.05)

    def test_locus_even_in_detuning(self):
        pts = ep_locus(params(kappa1=0.3 * G, kappa2=G))
        for d, _ in pts:
            assert d == pytest.approx(-d, abs=1e-9 * G)  # i.e. d == 0

    def test_requires_coupling(self):
        with pytest.raises(ValueError):
            ep_locus(params(g=0.0))

    @pytest.mark.parametrize("k1_over_g, k2_over_g", [
        (2.0, [6.0]), (6.0, [2.0, 10.0]), (10.0, [6.0, 14.0])])
    def test_every_point_found(self, k1_over_g, k2_over_g):
        # the discriminant does not cancel to 0.0 at these points, which
        # a search filtering on eigenvalue separation rejected
        pts = ep_locus(params(kappa1=k1_over_g * G, kappa2=G))
        assert [d for d, _ in pts] == [0.0] * len(k2_over_g)
        assert [k2 for _, k2 in pts] == pytest.approx(
            [k * G for k in k2_over_g], rel=1e-15)

    @given(st.floats(0.0, 20.0), st.floats(1e-3, 1e3))
    def test_closed_form_points_coalesce(self, k1_over_g, g_mhz):
        g = 2.0 * math.pi * 1e6 * g_mhz
        k1 = k1_over_g * g
        pts = ep_locus(params(kappa1=k1, g=g))
        exact = [x for x in (Fraction(k1) - 4 * Fraction(g),
                             Fraction(k1) + 4 * Fraction(g)) if x >= 0]
        assert len(pts) == len(exact)
        assert [k2 for _, k2 in pts] == sorted(k2 for _, k2 in pts)
        for (d, k2), k2_exact in zip(pts, exact):
            assert d == 0.0
            # the double nearest the exact coalescence
            assert abs(Fraction(k2) - k2_exact) <= Fraction(math.ulp(k2)) / 2
            bound = 4.0 * g * math.ulp(max(k1, k2))
            assert abs(_discriminant(d, k1, k2, g)) <= bound
            p = params(delta=d, kappa1=k1, kappa2=k2, g=g)
            assert eigenvector_overlap(p) > 1.0 - 1e-12


class TestTransmission:
    def test_far_detuned_single_lorentzian(self):
        k1 = 2.0 * math.pi * 0.8e6
        p = TwoModeParams(omega1=W1, kappa1=k1, omega2=W1 + 500 * G,
                          kappa2=G, g=G)
        w = np.linspace(W1 - 10 * k1, W1 + 10 * k1, 501)
        amp = np.abs(s21(w, p, k1))
        i_min = int(np.argmin(amp))
        assert abs(w[i_min] - W1) <= (w[1] - w[0])
        # critically coupled resonance dips to (almost) zero
        assert amp[i_min] < 0.05
        assert amp[0] > 0.9

    def test_split_versus_merged(self):
        fm = FluxMap(phi_grid=(0.0,), omega2_max=W1)
        w = np.linspace(W1 - 4 * G, W1 + 4 * G, 2001)
        k1 = 0.1 * G

        def minima(k2):
            p = TwoModeParams(omega1=W1, kappa1=k1, omega2=W1, kappa2=k2,
                              g=G)
            row = transmission_map(fm, p, w)[0]
            return [k for k in range(1, len(row) - 1)
                    if row[k] < row[k - 1] and row[k] <= row[k + 1]]

        assert len(minima(0.1 * G)) == 2
        assert len(minima(10.0 * G)) == 1

    def test_underdamped_split_scale(self):
        fm = FluxMap(phi_grid=(0.0,), omega2_max=W1)
        k1 = 0.1 * G
        p = TwoModeParams(omega1=W1, kappa1=k1, omega2=W1, kappa2=0.1 * G,
                          g=G)
        w = np.linspace(W1 - 4 * G, W1 + 4 * G, 4001)
        row = transmission_map(fm, p, w)[0]
        mins = [k for k in range(1, len(row) - 1)
                if row[k] < row[k - 1] and row[k] <= row[k + 1]]
        split = w[mins[-1]] - w[mins[0]]
        assert split == pytest.approx(2.0 * G, rel=0.05)

    def test_flux_map_shape_and_bounds(self):
        fm = FluxMap(phi_grid=tuple(np.linspace(0.0, 0.45, 7)),
                     omega2_max=1.5 * W1)
        p = params(kappa1=0.2 * G, kappa2=G)
        amp = transmission_map(fm, p, np.linspace(W1 - G, W1 + G, 11))
        assert amp.shape == (7, 11)
        assert np.all(np.isfinite(amp))

    def test_external_coupling_bounded_by_total(self):
        fm = FluxMap(phi_grid=(0.1,), omega2_max=W1)
        p = params(kappa1=0.2 * G, kappa2=G)
        with pytest.raises(ValueError):
            transmission_map(fm, p, np.linspace(W1 - G, W1 + G, 5),
                             kappa_ext=0.3 * G)

    def test_coupling_whose_square_overflows_is_refused(self):
        # s21 divides g*g by the load; 1e154 rad/s squares to a double
        assert params(g=1e154).g == 1e154
        with pytest.raises(ValueError, match=re.escape(
                "coupling g = 1e+160 rad/s overflows the transmission")):
            params(g=1e160)

    def test_flux_map_validation(self):
        with pytest.raises(ValueError):
            FluxMap(phi_grid=(), omega2_max=W1)
        with pytest.raises(ValueError):
            FluxMap(phi_grid=(0.0,), omega2_max=0.0)

    @pytest.mark.parametrize("phi", [math.nan, 1e308, -math.inf])
    def test_flux_map_names_its_first_nonfinite_point(self, phi):
        # pi * 1e308 overflows, and cos of it would raise, not return NaN
        with pytest.raises(ValueError, match=re.escape(
                f"omega2 must be finite on the flux grid, not at phi = "
                f"{phi!r}")):
            FluxMap(phi_grid=(0.1, phi, math.nan), omega2_max=W1)

    def test_flux_map_refuses_an_infinite_maximum(self):
        with pytest.raises(ValueError, match="omega2_max must be finite"):
            FluxMap(phi_grid=(0.1,), omega2_max=math.inf)
