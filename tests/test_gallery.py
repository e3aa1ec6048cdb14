"""Explicit constructions: degrees, distances, and structural claims."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremaps import gallery, grid, seminorms
from spheremaps.errors import (IndexOutOfRange, NotLocallyConstant,
                               Overcrowded)
from spheremaps.grid import TWO_PI

PI = np.pi


class TestZigzag:
    # at d1 - d2 = 5 the two roundings of t* = 2 pi d / L differ by an ulp
    @pytest.mark.parametrize("d1,d2", [(1, 0), (3, 1), (2, -1), (5, 0)])
    def test_distance_is_4_times_gap(self, d1, d2):
        pair = gallery.zigzag_pair(d1, d2)
        assert grid.degree_winding(pair.f) == d1
        assert grid.degree_winding(pair.g) == d2
        val = seminorms.w1p_distance(pair.f, pair.g, 1.0)
        assert abs(val - 4 * abs(d1 - d2)) / (4 * abs(d1 - d2)) < 1e-3
        # f kinks once at t* = 2 pi d / L; g kinks at k pi / L up to t*;
        # at a knot the derivative is the slope on the right
        d = d1 - d2
        L = d + 1
        teeth = np.arange(1, 2 * d + 1) * PI / L
        assert np.allclose(pair.f.phase.breakpoints, [2 * d * PI / L])
        assert np.allclose(pair.g.phase.breakpoints, teeth)
        up_down = np.where(np.arange(2 * d) % 2, L, -L)
        assert np.allclose(pair.g.phase.deriv(teeth), np.append(
            up_down[:-1], L * d2))
        assert np.allclose(pair.f.phase.deriv(teeth[-1]), L * d2)
        assert np.allclose(pair.f.phase.deriv(0.0), L)

    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=15, deadline=None)
    def test_degrees_always_match_request(self, d1, d2):
        if d1 == d2:
            return
        pair = gallery.zigzag_pair(d1, d2, 4096)
        assert grid.degree_winding(pair.f) == d1
        assert grid.degree_winding(pair.g) == d2
        assert pair.f.phase.winding == d1
        assert pair.g.phase.winding == d2


class TestDeflation:
    @pytest.mark.parametrize("lam", [0.1, 0.01])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_upper_bound_two_pi_d(self, d, lam):
        f = gallery.ramp_map(d)
        g = gallery.deflate_phase(f, d, lam)
        assert grid.degree_winding(g) == 0
        val = seminorms.w1p_distance(f, g, 1.0)
        assert abs(val - TWO_PI * d) / (TWO_PI * d) < 1e-3
        # the twist kinks at lam only and stops unwinding there
        assert g.phase.winding == 0
        assert np.array_equal(g.phase.breakpoints, [lam])
        assert np.allclose(g.phase.deriv(np.array([0.0, lam])),
                           [-TWO_PI * d / lam, 0.0])

    def test_requires_locally_constant_start(self):
        with pytest.raises(NotLocallyConstant):
            gallery.deflate_phase(grid.power_map(1), 1, 0.1)


class TestOscillator:
    def test_degree_and_total_variation(self):
        f = gallery.oscillator(1, 3)
        assert grid.degree_winding(f) == 1
        tv = seminorms.w1p_distance(f, grid.power_map(0), 1.0)
        assert abs(tv - 2 * (3 - 1) * PI) < 1e-6


class TestAttainmentPair:
    def test_formula_and_residual(self):
        pair = gallery.attainment_pair(1, 1.5)
        val = seminorms.w1p_distance(pair.f, pair.g, 1.5)
        expected = 2.0 ** (1 / 1.5 + 1) * PI ** (1 / 1.5 - 1) * 2
        assert abs(val - expected) / expected < 0.01
        # f - g is purely imaginary: the pair is conjugate
        assert np.max(np.abs(np.real(pair.f.samples - pair.g.samples))) \
            < 1e-9

    def test_constant_speed_difference(self):
        pair = gallery.attainment_pair(1, 1.5)
        d = np.abs(np.diff(pair.f.samples - pair.g.samples))
        # |(f-g)'| = 2 d / pi: uniform increments away from the kinks
        step = np.median(d)
        assert np.percentile(np.abs(d - step), 95) / step < 0.05

    def test_only_defined_strictly_between_1_and_2(self):
        for p in (1.0, 2.0, 3.0):
            with pytest.raises(IndexOutOfRange):
                gallery.attainment_pair(1, p)


class TestArcsinProfile:
    def test_climbs_pi_per_turn_at_the_arcsin_rate(self):
        dt = np.linspace(-3 * PI, 5 * PI, 8001)
        phase, s = gallery.arcsin_profile(dt)
        assert np.all(np.abs(s) <= PI)
        assert np.allclose(gallery.arcsin_profile(dt + TWO_PI)[0],
                           phase + PI, rtol=0, atol=1e-14)
        inner = np.abs(s) < 0.9 * PI  # away from the corners at |s| = pi
        slope = np.gradient(phase, dt)[inner]
        assert np.allclose(slope * np.sqrt(PI ** 2 - s[inner] ** 2), 1.0,
                           rtol=0, atol=1e-4)


class TestBlaschke:
    @pytest.mark.parametrize("d", [1, 2])
    def test_degree_is_minus_d(self, d):
        assert grid.degree_winding(gallery.blaschke_pow(d, 0.2)) == -d

    def test_mobius_is_unit_modulus(self):
        h = gallery.blaschke_pow(3, 0.05)
        assert np.max(np.abs(np.abs(h.samples) - 1)) < 1e-12

    # the default grid is max(4096, 2^ceil(log2(64|d|/delta))); each pair of
    # cases sits on either side of one power-of-two step
    @pytest.mark.parametrize("d,delta,m", [
        (1, 1 / 64, 4096), (1, 0.015, 8192),
        (2, 1e-3, 1 << 17), (2, 9e-4, 1 << 18), (0, 0.1, 4096)])
    def test_default_grid_resolves_the_multiplier(self, d, delta, m):
        h = gallery.blaschke_pow(d, delta)
        assert h.m == m
        assert grid.degree_winding(h) == -d
        limit = 4.0 * PI ** 2 * abs(d)
        assert abs(seminorms.h_half_seminorm_sq(h) - limit) <= 1e-12 * limit


class TestCapacityProfiles:
    def test_requires_small_eps(self):
        with pytest.raises(IndexOutOfRange):
            gallery.capacity_profiles(0.5)

    def test_h_profile_plateaus(self):
        prof = gallery.capacity_profiles(1e-4)
        r = np.array([1e-6, 1e-4])
        assert np.allclose(prof.H(r), 1.0)
        r = np.array([1e-2, 0.1, 1.0])
        assert np.allclose(prof.H(r), 0.0)
        mid = prof.H(np.geomspace(1.1e-4, 0.9e-2, 50))
        assert np.all((mid >= 0) & (mid <= 1))
        assert np.all(np.diff(mid) <= 1e-12)

    def test_cutoff_cap_shape(self):
        assert gallery.cap_k(0.1) == 1.0
        assert gallery.cap_k(0.9) == 0.0
        xs = np.linspace(0, 1, 101)
        vals = np.array([gallery.cap_k(x) for x in xs])
        assert np.all(np.diff(vals) <= 1e-12)

    def test_norm_vanishes_along_the_family(self):
        vals = []
        for eps in (1e-2, 1e-4, 1e-6):
            prof = gallery.capacity_profiles(eps)
            rr = np.geomspace(eps * 1e-3, PI, 1000, endpoint=False)
            vals.append(seminorms.gagliardo_even(prof.H(rr), rr, 0.5, 2.0))
        assert vals[0] > vals[1] > vals[2]


class TestBumpPairs:
    def test_degrees_and_difference_direction(self):
        pair = gallery.bump_pair(1e-2, n_dim=1)
        assert grid.degree_winding(pair.f) == 1
        assert grid.degree_winding(pair.g) == 0

    def test_critical_norm_decreasing(self):
        vals = []
        for eps in (1e-2, 1e-3):
            pair = gallery.bump_pair(eps, n_dim=1)
            vals.append(seminorms.h_half_seminorm_sq(
                pair.f.samples - pair.g.samples))
        assert vals[0] > vals[1]

    # the default grid is max(2^17, 2^ceil(log2(50/eps)))
    @pytest.mark.parametrize("eps,m", [(1e-2, 1 << 17), (1e-3, 1 << 17),
                                       (1e-4, 1 << 19)])
    def test_default_grid_matches_a_finer_one(self, eps, m):
        pair = gallery.bump_pair(eps)
        assert pair.f.m == pair.g.m == m
        assert grid.degree_winding(pair.f) == 1
        assert grid.degree_winding(pair.g) == 0
        fine = gallery.bump_pair(eps, m=4 * m)
        ref = seminorms.h_half_distance(fine.f, fine.g)
        got = seminorms.h_half_distance(pair.f, pair.g)
        assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("eps,m", [(1e-2, None), (1e-4, None),
                                       (1e-3, 4096)])
    def test_samples_equal_the_profile_phases(self, eps, m):
        pair = gallery.bump_pair(eps, n_dim=1, m=m)
        prof = gallery.capacity_profiles(eps)
        x = grid.nodes(pair.f.m) - np.pi  # the arc offset
        for got, fn in ((pair.f, prof.F), (pair.g, prof.G)):
            phase = -np.pi / 2.0 + np.sign(x) * fn(np.abs(x))
            ref = grid.from_samples(np.exp(1j * phase))
            assert np.array_equal(got.samples, ref.samples)

    @pytest.mark.parametrize("eps", [2e-2, 1e-2, 5e-3, 1e-3, 1e-8])
    def test_profiles_equal_their_definition(self, eps):
        # F = G on r < eps (the eps-cap); F + G = pi beyond, through H
        prof = gallery.capacity_profiles(eps)
        for r in (np.abs(grid.nodes(4096) - PI),
                  np.geomspace(eps * 1e-3, PI, 1500, endpoint=False),
                  np.random.default_rng(3).uniform(0, PI, (16, 9))):
            inner = PI * (1.0 - gallery.cap_k(r / eps)) / 2.0
            f_ref = np.where(r < eps, inner, PI * (1.0 - prof.H(r) / 2.0))
            g_ref = np.where(r < eps, f_ref, PI * prof.H(r) / 2.0)
            assert np.array_equal(prof.F(r), f_ref)
            assert np.array_equal(prof.G(r), g_ref)
        assert prof.F(0.5).shape == prof.G(0.0).shape == ()

class TestSmoothstep:
    def test_derivative_against_central_differences(self):
        t = np.linspace(-0.5, 1.5, 4001)
        h = 1e-6
        num = (gallery.smoothstep(t + h) - gallery.smoothstep(t - h)) / (2 * h)
        ds = gallery.dsmoothstep(t)
        assert np.all(np.isfinite(ds))
        assert np.max(np.abs(ds - num)) < 1e-8
        assert np.all(ds[(t <= 0) | (t >= 1)] == 0.0)

    def test_no_overflow_next_to_the_ends(self):
        t = np.array([1e-300, 1e-200, 1e-4, 1.0 - 1e-4, 1.0 - 1e-17])
        # exp(-1/t) underflows by design; overflow or NaN would be a bug
        with np.errstate(over="raise", invalid="raise"):
            assert np.all(gallery.dsmoothstep(t) == 0.0)

    @pytest.mark.parametrize("f", [
        gallery.ramp_map(2), gallery.multi_bump(3, 1, n=8),
        gallery.product_shift(3, 1).f, gallery.product_shift(3, 1).g],
        ids=["ramp", "multibump", "productshift-f", "productshift-g"])
    def test_phase_derivatives_match_the_spectral_derivative(self, f):
        # the samples are smooth, so the spectral derivative of the map is
        # i phi' f to near machine precision
        dphi = f.phase.deriv(f.theta)
        spectral = (grid.spectral_derivative(f.samples)
                    / (1j * f.samples)).real
        assert np.max(np.abs(dphi - spectral)) < 1e-6 * np.max(np.abs(dphi))


class TestMultiBumpAndDense:
    def test_multibump_degree(self):
        for d in (1, 4):
            assert grid.degree_winding(gallery.multi_bump(d, 1, n=32)) == d

    def test_overcrowding_rejected(self):
        with pytest.raises(Overcrowded):
            gallery.multi_bump(200, 1, n=4)

    def test_dense_onto_hits_every_value(self):
        f = gallery.dense_onto(1, 4)
        # phase oscillation pi+1 > pi guarantees every target value is hit
        # in every quarter-turn window
        w = f.samples
        m = w.size
        for target in np.exp(1j * np.linspace(0, TWO_PI, 7)):
            gaps = np.abs(w - target)
            assert gaps.min() < 1e-2


class TestProductShiftAndPlateau:
    def test_product_shift_degrees_and_supports(self):
        pair = gallery.product_shift(3, 1)
        assert grid.degree_winding(pair.f) == 3
        assert grid.degree_winding(pair.g) == 1

    def test_plateau_pair_distance(self):
        for d1, d2, a in [(1, 2, PI), (2, 5, 1.0)]:
            pair = gallery.plateau_pair(d1, d2, a)
            val = seminorms.w1p_distance(pair.f, pair.g, 1.0)
            # the tail continuation costs exactly 2 pi (d2 - d1)
            assert abs(val - TWO_PI * (d2 - d1)) < 1e-6
            # both phases kink at a only, where f goes flat and g takes
            # the tail; at a the derivative is the slope on the right
            assert pair.f.phase.winding == d1
            assert pair.g.phase.winding == d2
            for h in (pair.f, pair.g):
                assert np.array_equal(h.phase.breakpoints, [a])
            ends = np.array([0.0, a])
            tail = TWO_PI * (d2 - d1) / (TWO_PI - a)
            assert np.allclose(pair.f.phase.deriv(ends), [TWO_PI * d1 / a, 0])
            assert np.allclose(pair.g.phase.deriv(ends),
                               [TWO_PI * d1 / a, tail])


class TestRegistries:
    def test_build_map_names(self):
        for name, params in [("power", {"d": 2}),
                             ("blaschke", {"d": 1, "delta": 0.2}),
                             ("oscillator", {"d1": 1, "n": 4}),
                             ("multibump", {"d": 2}),
                             ("ramp", {"d": 1}),
                             ("denseonto", {"d1": 1, "n": 2})]:
            f = gallery.build_map(name, **params)
            assert f.m >= 16

    def test_build_pair_names(self):
        for name, params in [("zigzag", {"d1": 1, "d2": 0}),
                             ("attainment", {"d1": 1, "p": 1.5}),
                             ("bump", {"eps": 1e-2}),
                             ("plateau", {"d1": 1, "d2": 2})]:
            pair = gallery.build_pair(name, **params)
            assert pair.claim

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            gallery.build_map("nosuch")
        with pytest.raises(KeyError):
            gallery.build_pair("nosuch")


class TestRandomMaps:
    @given(st.integers(-2, 2), st.integers(0, 10))
    @settings(max_examples=15, deadline=None)
    def test_random_map_degree(self, d, seed):
        rng = np.random.default_rng(seed)
        f = gallery.random_map(d, rng, kmax=4, amp=0.5)
        assert grid.degree_winding(f) == d
