"""Semi-norms and distances: quadrature identities, Fourier form,
Gagliardo double sums, and the metric axioms they must satisfy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremaps import gallery, grid, seminorms, sphere2
from spheremaps.errors import GridMismatch, IndexOutOfRange, NotACircleMap
from spheremaps.grid import TWO_PI, SobolevIndex

PI = np.pi


class TestW1p:
    @pytest.mark.parametrize("d,p", [(1, 1.0), (2, 1.0), (1, 1.5),
                                     (2, 1.5), (1, 3.0), (2, 3.0)])
    def test_power_map_to_constant(self, d, p):
        # int |v'|^p for v = e^{i d theta} is 2 pi |d|^p
        f = grid.power_map(d)
        g = grid.power_map(0)
        val = seminorms.w1p_distance(f, g, p)
        assert abs(val - (TWO_PI * abs(d) ** p) ** (1.0 / p)) < 1e-6

    def test_phase_formula_against_complex_arithmetic(self):
        # |f' - g'|^2 = phi'^2 + psi'^2 - 2 phi' psi' cos(phi - psi)
        t = grid.nodes(4096)
        phi, psi = 2 * t + 0.2 * np.sin(t), t - 0.1 * np.cos(3 * t)
        dphi, dpsi = 2 + 0.2 * np.cos(t), 1 + 0.3 * np.sin(3 * t)
        lhs = np.abs(1j * dphi * np.exp(1j * phi)
                     - 1j * dpsi * np.exp(1j * psi)) ** 2
        rhs = dphi ** 2 + dpsi ** 2 - 2 * dphi * dpsi * np.cos(phi - psi)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_pointwise_identity_smooth(self):
        t = grid.nodes(4096)
        f = grid.from_samples(np.exp(1j * (t + 0.2 * np.sin(2 * t))))
        g = grid.from_samples(np.exp(1j * (2 * t)))
        assert seminorms.pointwise_identity_check(f, g) < 1e-6

    def test_triangle_inequality(self):
        f = grid.power_map(1)
        g = grid.power_map(2)
        h = gallery.ramp_map(2)
        d_fg = seminorms.w1p_distance(f, g, 2.0)
        d_fh = seminorms.w1p_distance(f, h, 2.0)
        d_hg = seminorms.w1p_distance(h, g, 2.0)
        assert d_fg <= d_fh + d_hg + 1e-9

    def test_rejects_p_below_one(self):
        with pytest.raises(IndexOutOfRange):
            seminorms.w1p_distance(grid.power_map(1), grid.power_map(0), 0.5)

    def test_rejects_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            seminorms.w1p_distance(grid.power_map(1, 512),
                                   grid.power_map(0, 1024), 1.0)

    def test_segment_quadrature_handles_tiny_features(self):
        # deflation at lambda = 0.01 concentrates all variation in a
        # width-0.01 window; the breakpoint-aware quadrature must not
        # lose it
        f = gallery.ramp_map(2)
        g = gallery.deflate_phase(f, 2, 0.01)
        val = seminorms.w1p_distance(f, g, 1.0)
        assert abs(val - 4 * PI) < 1e-6

    @given(st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=15, deadline=None)
    def test_symmetry_property(self, p):
        f, g = grid.power_map(1, 1024), grid.power_map(-1, 1024)
        assert (abs(seminorms.w1p_distance(f, g, p)
                    - seminorms.w1p_distance(g, f, p)) < 1e-12)


class TestFourierHalf:
    @pytest.mark.parametrize("d", [-3, -1, 1, 2, 5])
    def test_power_map_norm(self, d):
        # |e^{i d theta}|^2 = 4 pi^2 |d|
        val = seminorms.h_half_seminorm_sq(grid.power_map(d))
        assert abs(val - 4 * PI ** 2 * abs(d)) < 1e-9

    def test_unit_mass_of_modes(self):
        a = np.abs(grid.fourier(gallery.blaschke_pow(2, 0.1)).coeffs) ** 2
        assert abs(a.sum() - 1.0) < 1e-8

    def test_homogeneity_in_amplitude(self):
        t = grid.nodes(1024)
        h = 0.3 * np.exp(2j * t)
        one = seminorms.h_half_seminorm_sq(np.exp(2j * t))
        assert abs(seminorms.h_half_seminorm_sq(h) - 0.09 * one) < 1e-12

    def test_blaschke_norm_identity(self):
        # the Blaschke multiplier has exactly the class-minimal norm at
        # every delta
        for delta in (0.3, 0.05):
            h = gallery.blaschke_pow(2, delta, 2 ** 14)
            val = seminorms.h_half_seminorm_sq(h)
            assert abs(val - 8 * PI ** 2) < 1e-6


class TestGagliardo:
    def test_rejects_s_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            seminorms.gagliardo_seminorm(grid.power_map(1), 1.0, 2.0)

    def test_calibration_ratio_value(self):
        # arc-kernel double sum vs the Fourier form on the mode-1 family
        rho = seminorms.calibration_ratio(m=8192)
        assert abs(rho - 0.77357) < 5e-4

    def test_calibration_ratio_rotation_invariant(self):
        f1 = grid.power_map(1, 4096)
        shifted = grid.from_samples(np.exp(1j * (grid.nodes(4096) + 1.1)))
        r1 = (seminorms.gagliardo_seminorm(f1, 0.5, 2.0) ** 2
              / seminorms.h_half_seminorm_sq(f1))
        r2 = (seminorms.gagliardo_seminorm(shifted, 0.5, 2.0) ** 2
              / seminorms.h_half_seminorm_sq(shifted))
        assert abs(r1 - r2) < 1e-10

    def test_refinement_stability(self):
        # doubling the grid moves the double sum by < 2%
        f1 = grid.power_map(2, 2048)
        f2 = grid.power_map(2, 4096)
        v1 = seminorms.gagliardo_seminorm(f1, 0.5, 2.0)
        v2 = seminorms.gagliardo_seminorm(f2, 0.5, 2.0)
        assert abs(v2 - v1) / v1 < 0.02

    def test_nonuniform_matches_uniform(self):
        m = 4096
        t = grid.nodes(m)
        h = np.cos(3 * t)
        a = seminorms.gagliardo_seminorm(h, 0.5, 2.0)
        b = seminorms.gagliardo_nonuniform(h, t, 0.5, 2.0)
        assert abs(a - b) / a < 0.02

    def test_even_profile_matches_mirrored_nodes(self):
        prof = gallery.capacity_profiles(1e-2)
        rr = np.geomspace(1e-5, PI * 0.999, 800)
        th = np.concatenate([rr, TWO_PI - rr[::-1]])
        hh = np.concatenate([prof.H(rr), prof.H(rr)[::-1]])
        mirrored = seminorms.gagliardo_nonuniform(hh, th, 0.5, 2.0)
        direct = seminorms.gagliardo_even(
            prof.H(rr), rr, 0.5, 2.0)
        assert abs(mirrored - direct) / direct < 0.02


class TestSupAndDispatch:
    def test_sup_distance_antipodal(self):
        f = grid.power_map(0)
        g = grid.from_samples(-np.ones(f.m, dtype=complex))
        assert seminorms.sup_distance(f, g) == pytest.approx(2.0)

    def test_dispatcher_routes_all_methods(self):
        f = grid.power_map(1)
        idx = SobolevIndex(0.5, 2.0)
        for method in ("gagliardo_quadrature", "fourier_h_half", "sup_norm"):
            res = seminorms.seminorm(f, idx, method)
            assert res.method == method and np.isfinite(res.value)
        res = seminorms.seminorm(f, SobolevIndex(1.0, 1.0), "w1p_quadrature")
        assert abs(res.value - TWO_PI) < 1e-6

    @pytest.mark.parametrize("method", ["w1p_quadrature", "sup_norm"])
    def test_dispatcher_rejects_sphere_maps(self, method):
        f = sphere2.stereographic_power(1, n_phi=16)
        with pytest.raises(NotACircleMap):
            seminorms.seminorm(f, SobolevIndex(1.0, 2.0), method)
        with pytest.raises(NotACircleMap):
            seminorms.seminorm(grid.power_map(1), SobolevIndex(1.0, 2.0),
                               method, g=f)


class TestLowerBoundInvariants:
    def test_degree_difference_bounds_w11(self):
        # int |f' - g'| >= |f - g|_{W^{1,1}} >= TV of the difference's
        # winding: 4 |d1 - d2| is the class distance floor
        rng = np.random.default_rng(7)
        for _ in range(20):
            d1, d2 = rng.integers(-2, 3, size=2)
            if d1 == d2:
                continue
            f = gallery.random_map(int(d1), rng, kmax=4, amp=0.4)
            g = gallery.random_map(int(d2), rng, kmax=4, amp=0.4)
            val = seminorms.w1p_distance(f, g, 1.0)
            assert val >= 4.0 * abs(d1 - d2) - 1e-6

    def test_w11_of_difference_dominates_chord_variation(self):
        # |(f-g)'| <= |f'| + |g'| but also |f-g|' dominates the winding of
        # the relative phase; sanity-check the deflation pair
        f = gallery.ramp_map(1)
        g = gallery.deflate_phase(f, 1, 0.1)
        w = grid.product(g, grid.conjugate(f))
        assert grid.degree_winding(w) == -1
