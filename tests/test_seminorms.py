"""Semi-norms and distances: quadrature identities, Fourier form,
Gagliardo double sums, and the metric axioms they must satisfy."""

import math
import re
import threading
import time
import tracemalloc
import warnings

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
        exact = (TWO_PI * abs(d) ** p) ** (1.0 / p)
        assert abs(val - exact) <= 1e-13 * exact

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
        assert _pointwise_identity_check(f, g) < 1e-6
        # kinked phase models are read between their breakpoints
        pair = gallery.zigzag_pair(3, 1)
        assert _pointwise_identity_check(pair.f, pair.g) < 1e-9

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


class TestSpeedGap:
    def test_is_the_squared_derivative_gap(self):
        rng = np.random.default_rng(3)
        phi, psi, dphi, dpsi = rng.standard_normal((4, 50))
        direct = np.abs(1j * dphi * np.exp(1j * phi)
                        - 1j * dpsi * np.exp(1j * psi)) ** 2
        got = seminorms.speed_gap_sq(dphi, dpsi, np.cos(phi - psi))
        assert np.allclose(got, direct, rtol=1e-12, atol=1e-12)

    def test_cancellation_is_clipped_at_zero(self):
        # unclipped, these equal speeds leave -2.8e-14
        a, b = 8.64534062758191, 8.645340627581913
        assert a ** 2 + b ** 2 - 2.0 * a * b < 0.0
        assert seminorms.speed_gap_sq(a, b, 1.0) == 0.0


class TestW1pSampled:
    """W^{1,p} with a sampled map: spectral derivatives on the grid."""

    @pytest.mark.parametrize("m", [1024, 4096])
    @pytest.mark.parametrize("d,delta", [(1, 0.2), (2, 0.5), (-3, 0.2)])
    def test_blaschke_closed_forms(self, d, delta, m):
        # |h'| = |d| (1 - a^2) / |z - a|^2 with a = 1 - delta
        h = gallery.blaschke_pow(d, delta, m)
        a = 1.0 - delta
        for p, exact in ((1.0, TWO_PI * abs(d)), (2.0, abs(d) * math.sqrt(
                TWO_PI * (1 + a * a) / (1 - a * a)))):
            val = seminorms.seminorm(h, SobolevIndex(1.0, p),
                                     "w1p_quadrature").value
            assert abs(val - exact) <= 1e-13 * exact

    def test_kinked_partner_needs_derivs(self):
        from spheremaps.errors import MissingDerivative
        pm = grid.phase_model(lambda t: t + 0.3 * np.sin(2 * t),
                              lambda t: 1 + 0.6 * np.cos(2 * t), winding=1)
        sampled = grid.from_samples(grid.from_phase(pm).samples)
        kinked = gallery.zigzag_pair(1, 0).f
        with pytest.raises(MissingDerivative, match="derivs"):
            seminorms.w1p_distance(sampled, kinked, 1.0)
        val = seminorms.w1p_distance(sampled, kinked, 1.0, derivs=(pm, None))
        assert val == seminorms.w1p_distance(grid.from_phase(pm), kinked, 1.0)


class TestW1pLargeP:
    """|f' - g'| is scaled before the power, so a large p cannot overflow."""

    def test_zigzag_at_p_1000(self):
        pair = gallery.zigzag_pair(1, 0)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            val = seminorms.w1p_distance(pair.f, pair.g, 1000.0)
        assert val == pytest.approx(3.98710747675042, rel=1e-12)

    def test_power_map_tends_to_sup_of_derivative(self):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            val = seminorms.w1p_distance(grid.power_map(2), grid.power_map(0),
                                         1e300)
        assert val == 2.0


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

    @pytest.mark.parametrize("m", [16, 17, 1024, 4096])
    def test_cached_modes_give_identical_values(self, m):
        rng = np.random.default_rng(m)
        for _ in range(2):  # the second call reads the cached modes
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            a = np.fft.fft(v) / m
            ref = float(4.0 * PI ** 2 * np.sum(
                np.abs(grid.fourier_modes(m)) * np.abs(a) ** 2))
            assert seminorms.h_half_seminorm_sq(v) == ref
        n = grid.fourier_modes(m)
        n[0] = 99  # a fresh writable array each call; the cache is not it
        assert grid.fourier_modes(m)[0] == 0

    @pytest.mark.parametrize("m", [17, 33] + [1 << e for e in range(4, 21)])
    def test_abs_modes_are_the_abs_of_the_fourier_modes(self, m):
        n = seminorms._abs_modes(m)
        ref = np.abs(grid.fourier_modes(m))
        assert n.dtype == ref.dtype
        assert n.tobytes() == ref.tobytes()
        assert not n.flags.writeable


class TestGagliardo:
    def test_rejects_s_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            seminorms.gagliardo_seminorm(grid.power_map(1), 1.0, 2.0)

    def test_calibration_ratio_value(self):
        # arc-kernel double sum vs the Fourier form on the mode-1 family;
        # the ratio depends on the frequency, so it is defined on mode 1
        f = grid.power_map(1, 8192)
        rho = (seminorms.gagliardo_seminorm(f, 0.5, 2.0) ** 2
               / seminorms.h_half_seminorm_sq(f))
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

    @pytest.mark.parametrize("p", [250.0, 700.0, 1e300])
    def test_sum_out_of_float_range_raises_without_warnings(self, p):
        # |d|^p overflows, or dist^(1 + s p) underflows to 0 and 0/0 is nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IndexOutOfRange,
                               match=re.escape(f"(0.5, {p:g})")):
                seminorms.gagliardo_seminorm(grid.power_map(3), 0.5, p)

    @pytest.mark.parametrize("p", [1.5, 2.0, 700.0, 1e300])
    def test_constant_is_zero_at_any_p(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert seminorms.gagliardo_seminorm(grid.power_map(0), 0.5, p) == 0

    def test_even_sum_out_of_float_range_names_the_node_spacing(self):
        h, rr = _capacity_nodes(1e-300, nodes=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IndexOutOfRange, match="apart"):
                seminorms.gagliardo_even(h, rr, 0.5, 2.0)

    def test_nonuniform_matches_uniform(self):
        m = 4096
        t = grid.nodes(m)
        h = np.cos(3 * t)
        a = seminorms.gagliardo_seminorm(h, 0.5, 2.0)
        b = _gagliardo_nonuniform(h, t, 0.5, 2.0)
        assert abs(a - b) / a < 0.02

    def test_even_profile_matches_mirrored_nodes(self):
        prof = gallery.capacity_profiles(1e-2)
        rr = np.geomspace(1e-5, PI * 0.999, 800)
        th = np.concatenate([rr, TWO_PI - rr[::-1]])
        hh = np.concatenate([prof.H(rr), prof.H(rr)[::-1]])
        mirrored = _gagliardo_nonuniform(hh, th, 0.5, 2.0)
        direct = seminorms.gagliardo_even(
            prof.H(rr), rr, 0.5, 2.0)
        assert abs(mirrored - direct) / direct < 0.02



# -- reference kernels: the per-offset loop and the dense N x N matrices ----

def _pointwise_identity_check(f, g, derivs=None):
    """Max residual of |f'-g'|^2 = cos^2((phi-psi)/2)(phi'-psi')^2
    + sin^2((phi-psi)/2)(phi'+psi')^2 over the grid."""
    f, g = seminorms._with_derivs(f, g, derivs)
    pf, pg = f.phase, g.phase
    if pf is None or pg is None:
        # a sampled map: the grid derivatives against the phases on the nodes
        lhs = np.abs(seminorms._grid_derivative(f)
                     - seminorms._grid_derivative(g)) ** 2
        (phi, dphi, _), (psi, dpsi, _) = map(grid.phase_on_grid, (f, g))
    else:
        t = f.theta + 0.5 * TWO_PI / f.m  # midpoints dodge on-node breakpoints
        for b in np.concatenate((pf.breakpoints, pg.breakpoints)):
            t[np.abs(t - b) < 1e-12] += 1e-7
        phi, psi = pf.value(t), pg.value(t)
        dphi, dpsi = pf.deriv(t), pg.deriv(t)
        lhs = np.abs(1j * dphi * np.exp(1j * phi)
                     - 1j * dpsi * np.exp(1j * psi)) ** 2
    half = 0.5 * (phi - psi)
    rhs = (np.cos(half) ** 2 * (dphi - dpsi) ** 2
           + np.sin(half) ** 2 * (dphi + dpsi) ** 2)
    ok = np.isfinite(lhs) & np.isfinite(rhs)
    return float(np.max(np.abs(lhs[ok] - rhs[ok])))


def _gagliardo_nonuniform(values, thetas, s, p):
    """Gagliardo double sum on arbitrary sorted nodes in [0, 2*pi).

    Trapezoid weights in both variables; the kernel matrix is summed over
    its upper block triangle by seminorms._symmetric_form, in row blocks.
    """
    v = np.asarray(values, dtype=float)
    t = np.asarray(thetas, dtype=float)
    gaps = np.diff(np.concatenate((t, [t[0] + TWO_PI])))
    w = 0.5 * (gaps + np.roll(gaps, 1))

    def block(a, b):
        raw = np.abs(t[a:b, None] - t[None, a:])
        dist = np.minimum(raw, TWO_PI - raw)
        np.fill_diagonal(dist, 1.0)
        kern = np.abs(v[a:b, None] - v[None, a:]) ** p / dist ** (1.0 + s * p)
        np.fill_diagonal(kern, 0.0)
        return kern

    return seminorms._symmetric_form(w, lambda: block) ** (1.0 / p)


def _loop_gagliardo(v, s, p):
    """Gagliardo double sum by one np.roll per offset."""
    m = v.size
    dtheta = TWO_PI / m
    k = np.arange(1, m)
    dist = dtheta * np.minimum(k, m - k)
    offset_sums = np.empty(m - 1)
    for i, kk in enumerate(k):
        offset_sums[i] = np.sum(np.abs(v - np.roll(v, -kk)) ** p)
    total = np.sum(offset_sums / dist ** (1.0 + s * p)) * dtheta ** 2
    return total ** (1.0 / p)


def _offset_loop_gagliardo(h, s, p):
    """gagliardo_seminorm at p != 2 with one offset per pass: the form
    whose bits the blocked offset sums must keep."""
    v = seminorms._values(h)
    m = v.size
    dtheta = TWO_PI / m
    k = np.arange(1, m)
    dist = dtheta * np.minimum(k, m - k)
    vv = np.concatenate((v, v))
    offset_sums = np.empty(m - 1)
    for kk in range(1, m // 2 + 1):
        d = v - vv[kk:kk + m]
        offset_sums[kk - 1] = offset_sums[m - kk - 1] = np.sum(
            (d.real ** 2 + d.imag ** 2) ** (p / 2.0))
    total = np.sum(offset_sums / dist ** (1.0 + s * p)) * dtheta ** 2
    return total ** (1.0 / p)


def _serial_form(w, block):
    """seminorms._symmetric_form on one core: row blocks in order, each
    block's term added as it is formed."""
    total = 0.0
    for a in range(0, w.size, seminorms._ROWS):
        b = min(a + seminorms._ROWS, w.size)
        u = w[a:b] @ block(a, b)
        total += u[:b - a] @ w[a:b] + 2.0 * (u[b - a:] @ w[b:])
    return float(total)


def _fresh_block_even(values, radii, s, p):
    """gagliardo_even with fresh arrays for every block, summed on one
    core: the form whose bits the reused planes and the split must keep."""
    v = np.asarray(values, dtype=float)
    r = np.asarray(radii, dtype=float)
    gaps = np.diff(np.concatenate(([0.0], r, [PI])))
    w = 0.5 * (gaps[:-1] + gaps[1:])

    def block(a, b):
        direct = np.abs(r[a:b, None] - r[None, a:])
        np.fill_diagonal(direct, 1.0)
        kern = 1.0 / direct ** (1.0 + s * p)
        np.fill_diagonal(kern, 0.0)
        summed = r[a:b, None] + r[None, a:]
        arc = np.minimum(summed, TWO_PI - summed)
        kern += 1.0 / arc ** (1.0 + s * p)
        kern *= np.abs(v[a:b, None] - v[None, a:]) ** p
        return kern

    return (2.0 * _serial_form(w, block)) ** (1.0 / p)


def _dense_nonuniform(values, thetas, s, p):
    v = np.asarray(values, dtype=float)
    t = np.asarray(thetas, dtype=float)
    gaps = np.diff(np.concatenate((t, [t[0] + TWO_PI])))
    w = 0.5 * (gaps + np.roll(gaps, 1))
    diff = np.abs(v[:, None] - v[None, :])
    raw = np.abs(t[:, None] - t[None, :])
    dist = np.minimum(raw, TWO_PI - raw)
    np.fill_diagonal(dist, 1.0)
    kern = diff ** p / dist ** (1.0 + s * p)
    np.fill_diagonal(kern, 0.0)
    return float(w @ kern @ w) ** (1.0 / p)


def _dense_even(values, radii, s, p):
    v = np.asarray(values, dtype=float)
    r = np.asarray(radii, dtype=float)
    gaps = np.diff(np.concatenate(([0.0], r, [PI])))
    w = 0.5 * (gaps[:-1] + gaps[1:])
    diff = np.abs(v[:, None] - v[None, :]) ** p
    direct = np.abs(r[:, None] - r[None, :])
    np.fill_diagonal(direct, 1.0)
    kern = 1.0 / direct ** (1.0 + s * p)
    np.fill_diagonal(kern, 0.0)
    summed = r[:, None] + r[None, :]
    arc = np.minimum(summed, TWO_PI - summed)
    kern += 1.0 / arc ** (1.0 + s * p)
    return (2.0 * float(w @ (diff * kern) @ w)) ** (1.0 / p)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _capacity_nodes(eps, nodes=1500):
    """The node set and profile of experiment capacity-decay."""
    prof = gallery.capacity_profiles(eps)
    rr = np.geomspace(eps * 1e-3, PI, nodes, endpoint=False)
    return prof.H(rr), rr


def _join_first(failed):
    """Wait until a share has put its thread in failed, then for that
    thread to end: its exception has then stopped the other shares."""
    deadline = time.monotonic() + 10.0
    while not failed and time.monotonic() < deadline:
        time.sleep(0.001)
    failed[0].join(timeout=10.0)


class TestGagliardoAgainstReference:
    @pytest.mark.parametrize("m", [16, 1024, 4096])
    @pytest.mark.parametrize("kind", ["power", "random", "blaschke"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_uniform_matches_offset_loop(self, kind, m, p):
        f = {"power": lambda: grid.power_map(3, m),
             "random": lambda: gallery.random_map(
                 2, np.random.default_rng(m), m=m),
             "blaschke": lambda: gallery.blaschke_pow(2, 0.1, m)}[kind]()
        for s in (0.25, 0.5, 0.75):
            assert _rel(seminorms.gagliardo_seminorm(f, s, p),
                        _loop_gagliardo(f.samples, s, p)) <= 1e-12

    @pytest.mark.parametrize("m", [17, 33])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_odd_size_arrays_match_offset_loop(self, m, p):
        rng = np.random.default_rng(m)
        for v in (rng.standard_normal(m),
                  rng.standard_normal(m) + 1j * rng.standard_normal(m)):
            for s in (0.25, 0.5, 0.75):
                assert _rel(seminorms.gagliardo_seminorm(v, s, p),
                            _loop_gagliardo(v, s, p)) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-10, 1e-16])
    def test_even_matches_dense_on_capacity_nodes(self, eps):
        h, rr = _capacity_nodes(eps)
        value = seminorms.gagliardo_even(h, rr, 0.5, 2.0)
        assert _rel(value, _dense_even(h, rr, 0.5, 2.0)) <= 1e-12
        assert value == _fresh_block_even(h, rr, 0.5, 2.0)  # bit for bit

    @pytest.mark.parametrize("n", [5, 64, 200])
    @pytest.mark.parametrize("s,p", [(0.5, 2.0), (0.3, 1.5), (0.75, 3.0)])
    def test_even_matches_dense_on_small_node_sets(self, n, s, p):
        # block edges: fewer nodes than a block, exactly one, and a ragged end
        rng = np.random.default_rng(n)
        rr = np.sort(rng.uniform(1e-3, PI, n))
        h = np.cos(rr) + 0.1 * rng.standard_normal(n)
        value = seminorms.gagliardo_even(h, rr, s, p)
        assert _rel(value, _dense_even(h, rr, s, p)) <= 1e-12
        assert value == _fresh_block_even(h, rr, s, p)  # bit for bit

    @pytest.mark.parametrize("n", [7, 128, 800])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_nonuniform_matches_dense_on_mirrored_nodes(self, n, p):
        prof = gallery.capacity_profiles(1e-2)
        rr = np.geomspace(1e-5, PI * 0.999, n)
        th = np.concatenate([rr, TWO_PI - rr[::-1]])
        hh = np.concatenate([prof.H(rr), prof.H(rr)[::-1]])
        assert _rel(_gagliardo_nonuniform(hh, th, 0.5, p),
                    _dense_nonuniform(hh, th, 0.5, p)) <= 1e-12

    @pytest.mark.parametrize("case", [
        "power-16", "real-17", "complex-17", "random-1024",
        "difference-1024", "random-8192"])
    def test_blocked_offset_sums_keep_the_bits(self, case):
        kind, m = case.split("-")
        m = int(m)
        rng = np.random.default_rng(m)
        h = {"power": lambda: grid.power_map(3, m),
             "real": lambda: rng.standard_normal(m),
             "complex": lambda: (rng.standard_normal(m)
                                 + 1j * rng.standard_normal(m)),
             "random": lambda: gallery.random_map(2, rng, m=m),
             "difference": lambda: (gallery.random_map(1, rng, m=m).samples
                                    - grid.power_map(-2, m).samples)}[kind]()
        for p in (1.0, 1.5, 3.0, 4.0):
            for s in ((0.5,) if m > 1024 else (0.25, 0.5, 0.75)):
                assert (seminorms.gagliardo_seminorm(h, s, p)
                        == _offset_loop_gagliardo(h, s, p))

    def test_even_memory_stays_within_a_block(self):
        # the dense form held about seven 1500 x 1500 float arrays (120 MB)
        h, rr = _capacity_nodes(1e-2)
        tracemalloc.start()
        try:
            seminorms.gagliardo_even(h, rr, 0.5, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


@pytest.mark.usefixtures("fast_switches")
class TestSplitAcrossCores:
    WORKERS = (1, 2, 3, 5)

    # p changes from call to call, so that a block a share left unwritten
    # cannot keep the right value in memory freed by the call before

    @pytest.mark.parametrize("m", [17, 1000, 8191])
    def test_offset_sums_keep_the_bits(self, monkeypatch, m):
        # 1, 63 and 512 blocks of offsets: none divides among 3 or 5 shares
        rng = np.random.default_rng(m)
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        want = {p: _offset_loop_gagliardo(v, 0.5, p) for p in (1.0, 1.5, 3.0)}
        for w in self.WORKERS:
            monkeypatch.setattr(seminorms, "_workers", lambda: w)
            for p in want:
                assert seminorms.gagliardo_seminorm(v, 0.5, p) == want[p]

    @pytest.mark.parametrize("case", ["capacity-1e-2", "capacity-1e-16",
                                      "random-1000"])
    def test_even_rows_keep_the_bits(self, monkeypatch, case):
        # 24 and 16 row blocks; the capacity profiles are flat far from 0,
        # so there only the first blocks add more than 0
        kind, arg = case.split("-", 1)
        if kind == "capacity":
            h, rr = _capacity_nodes(float(arg))
        else:
            rng = np.random.default_rng(int(arg))
            rr = np.sort(rng.uniform(1e-3, PI, int(arg)))
            h = np.cos(rr) + 0.1 * rng.standard_normal(rr.size)
        want = {sp: _fresh_block_even(h, rr, *sp)
                for sp in ((0.5, 2.0), (0.3, 1.5))}
        for w in self.WORKERS:
            monkeypatch.setattr(seminorms, "_workers", lambda: w)
            for sp in want:
                assert seminorms.gagliardo_even(h, rr, *sp) == want[sp]

    def test_threads_are_joined(self, monkeypatch):
        monkeypatch.setattr(seminorms, "_workers", lambda: 3)
        before = threading.active_count()
        seminorms.gagliardo_seminorm(grid.power_map(3, 1024), 0.5, 1.5)
        seminorms.gagliardo_even(*_capacity_nodes(1e-2), 0.5, 2.0)
        assert threading.active_count() == before

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch):
        # 3 shares of 7 blocks: (0, 3, 6) on the caller, (1, 4) and (2, 5)
        monkeypatch.setattr(seminorms, "_workers", lambda: 3)
        done, failed, before = [], [], threading.active_count()

        def share(blocks):
            for b in blocks:
                if b == 2:  # a thread's share, not the caller's
                    failed.append(threading.current_thread())
                    raise ZeroDivisionError("share 2")
                _join_first(failed)
                done.append(b)

        with pytest.raises(ZeroDivisionError, match="share 2"):
            seminorms._split(7, share)
        # no other share is dealt more than one further block
        assert set(done) <= {0, 1}
        assert threading.active_count() == before

    def test_a_failing_share_stops_the_others_within_one_block(
            self, monkeypatch):
        # 2 shares of 16 row blocks: the caller's would sum 0, 2, ..., 14
        monkeypatch.setattr(seminorms, "_workers", lambda: 2)
        n = 16 * seminorms._ROWS
        failed, caller_blocks = [], []

        def new_block():
            def block(a, b):
                if threading.current_thread() is not threading.main_thread():
                    failed.append(threading.current_thread())
                    raise ZeroDivisionError("a thread's block")
                # a block of the caller's ends after the failing share has
                caller_blocks.append(a)
                _join_first(failed)
                return np.zeros((b - a, n - a))

            return block

        with pytest.raises(ZeroDivisionError, match="a thread's block"):
            seminorms._symmetric_form(np.ones(n), new_block)
        assert len(failed) == 1 and not failed[0].is_alive()
        assert len(caller_blocks) <= 1

    def test_workers_see_the_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(seminorms, "_workers", lambda: 2)
        seen = {}

        def share(blocks):
            for b in blocks:
                seen[b] = np.geterr()["over"]

        with np.errstate(over="ignore"):
            seminorms._split(2, share)
        assert seen == {0: "ignore", 1: "ignore"}


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

    @pytest.mark.parametrize("method,s,p", [
        ("w1p_quadrature", 0.5, 2.0), ("gagliardo_quadrature", 1.0, 2.0),
        ("fourier_h_half", 1.0, 1.0), ("fourier_h_half", 0.5, 1.5),
        ("sup_norm", 1.5, 2.0)])
    def test_dispatcher_rejects_an_index_the_method_does_not_measure(
            self, method, s, p):
        with pytest.raises(IndexOutOfRange):
            seminorms.seminorm(grid.power_map(1), SobolevIndex(s, p), method)

    @pytest.mark.parametrize("s,p,names", [
        (1.0, 1.5, ["w1p_quadrature", "sup_norm"]),
        (0.5, 2.0, ["gagliardo_quadrature", "fourier_h_half", "sup_norm"]),
        (0.25, 3.0, ["gagliardo_quadrature", "sup_norm"])])
    def test_default_methods_are_those_measuring_the_index(self, s, p, names):
        assert seminorms.select_methods(SobolevIndex(s, p)) == names
        assert seminorms.select_methods(SobolevIndex(s, p), "sup") == [
            "sup_norm"]

    def test_gagliardo_caps_nodes_away_from_p_2(self):
        v = np.zeros(2 * seminorms._MAX_NODES_P)
        with pytest.raises(IndexOutOfRange, match="--p 2"):
            seminorms.gagliardo_seminorm(v, 0.5, 1.5)
        assert seminorms.gagliardo_seminorm(v, 0.5, 2.0) == 0.0

    @pytest.mark.parametrize("method", ["w1p_quadrature", "sup_norm"])
    def test_dispatcher_rejects_sphere_maps(self, method):
        f = sphere2.stereographic_power(1, n_phi=16)
        with pytest.raises(NotACircleMap):
            seminorms.seminorm(f, SobolevIndex(1.0, 2.0), method)
        with pytest.raises(NotACircleMap):
            seminorms.seminorm(grid.power_map(1), SobolevIndex(1.0, 2.0),
                               method, g=f)

    @pytest.mark.parametrize("method", ["w1p_quadrature", "sup_norm"])
    def test_dispatcher_rejects_bare_samples_it_cannot_measure(self, method):
        bare = np.ones(16, dtype=complex)
        with pytest.raises(NotACircleMap):
            seminorms.seminorm(grid.power_map(1, 16), SobolevIndex(1.0, 2.0),
                               method, g=bare)
        with pytest.raises(NotACircleMap):
            seminorms.seminorm(bare, SobolevIndex(1.0, 2.0), "w1p_quadrature")

    def test_sup_norm_of_bare_samples(self):
        res = seminorms.seminorm(2.0 * np.ones(16, dtype=complex),
                                 SobolevIndex(1.0, 2.0), "sup_norm")
        assert res.value == 2.0


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
