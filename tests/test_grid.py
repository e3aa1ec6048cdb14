"""Grid primitives: lifting, degrees, Fourier analysis, map algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremaps import gallery, grid
from spheremaps.errors import GridMismatch, GridTooCoarse, ParameterError
from spheremaps.grid import PI, TWO_PI


class TestNodesAndModes:
    def test_nodes_uniform_half_open(self):
        t = grid.nodes(16)
        assert t[0] == 0.0
        assert np.allclose(np.diff(t), TWO_PI / 16)
        assert t[-1] < TWO_PI

    def test_m_must_be_power_of_two(self):
        with pytest.raises(GridTooCoarse):
            grid.nodes(100)
        with pytest.raises(GridTooCoarse):
            grid.nodes(8)

    def test_m_is_capped(self):
        grid._check_m(grid.MAX_M)
        with pytest.raises(ParameterError):
            grid.nodes(2 * grid.MAX_M)

    def test_nyquist_mode_is_positive(self):
        n = grid.fourier_modes(16)
        assert n.max() == 8
        assert n.min() == -7


class TestExpi:
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_bits_of_complex_exp(self, scale):
        theta = scale * np.random.default_rng(7).uniform(-1.0, 1.0, 1 << 16)
        assert (grid.expi(theta).tobytes()
                == np.exp(1j * theta).tobytes())

    @pytest.mark.parametrize("d", [-3, 1, 2, 7])
    def test_bits_of_the_negated_power_form(self, d):
        # blaschke_pow exponentiates -d times a lifted phase
        theta = grid.lift(gallery.blaschke_pow(1, 0.1, 1 << 12)).values
        assert (grid.expi(-d * theta).tobytes()
                == np.exp(-1j * d * theta).tobytes())

    def test_scalar_and_strided_input(self):
        theta = np.random.default_rng(8).uniform(-50.0, 50.0, 3001)[::3]
        assert (grid.expi(theta).tobytes()
                == np.exp(1j * theta).tobytes())
        for x in theta[:20]:
            assert (grid.expi(float(x)).tobytes()
                    == np.complex128(np.exp(1j * x)).tobytes())


class TestDefaultSize:
    @pytest.mark.parametrize("x,floor,m", [
        (0.0, 16, 16), (1.0, 16, 16), (17.0, 16, 32), (4096.0, 16, 4096),
        (4096.5, 16, 8192), (100.0, grid.DEFAULT_M, grid.DEFAULT_M),
        (float(grid.MAX_M), 16, grid.MAX_M)])
    def test_smallest_power_of_two_from_the_floor(self, x, floor, m):
        assert grid.pow2_size(x, floor) == m

    @pytest.mark.parametrize("x", [grid.MAX_M + 1.0, np.inf, np.nan])
    def test_sizes_over_the_cap_are_rejected(self, x):
        with pytest.raises(ParameterError, match="over the cap"):
            grid.pow2_size(x)


class TestFromPhase:
    def test_phase_steps_under_pi_per_node(self):
        # power_map(d) steps d * 2*pi/m per node: under pi while d < m/2
        assert grid.degree_winding(grid.power_map(2047, 4096)) == 2047
        with pytest.raises(GridTooCoarse, match="need m >= 8192$"):
            grid.power_map(2048, 4096)
        with pytest.raises(GridTooCoarse, match="need m >= 2048$"):
            grid.power_map(-600, 1024)

    def test_no_grid_under_the_cap(self):
        with pytest.raises(GridTooCoarse, match="no grid under the cap"):
            grid.power_map(grid.MAX_M // 2)

    def test_phase_jumps_and_infinite_derivatives_pass(self):
        # multi_bump's summed phase jumps by 2*pi antipodal to each center,
        # and the attainment phase has infinite derivatives at its cusps
        assert grid.degree_winding(gallery.multi_bump(5, 1, 32)) == 5
        pair = gallery.attainment_pair(2, 1.5)
        assert not np.all(np.isfinite(pair.f.phase.deriv(pair.f.theta)))
        assert grid.degree_winding(pair.f) == 2

    def test_kinks_denser_than_the_nodes_still_alias(self):
        # every node lies within half a spacing of a kink, and the slope
        # 40 steps 3.93 rad per node
        with pytest.raises(GridTooCoarse, match="need m >= 128$"):
            gallery.oscillator(1, 40, 64)


class TestLiftAndWinding:
    @pytest.mark.parametrize("d", [-3, -1, 0, 1, 2, 5])
    def test_power_map_winding(self, d):
        assert grid.degree_winding(grid.power_map(d)) == d

    def test_lift_reconstructs_phase(self):
        t = grid.nodes(4096)
        phi = 2.0 * t + 0.3 * np.sin(3 * t) + 1.0
        f = grid.from_samples(np.exp(1j * phi))
        lifted = grid.lift(f).values
        # same phase up to a constant 2*pi*k offset
        offset = lifted[0] - phi[0]
        assert abs(offset / TWO_PI - round(offset / TWO_PI)) < 1e-9
        assert np.allclose(lifted - offset, phi, atol=1e-9)

    def test_lift_rejects_undersampled_map(self):
        # 3 turns on 16 nodes -> leaps of ~3*2pi/16 are fine; make it extreme
        f = grid.CircleMap(np.exp(1j * 40.0 * grid.nodes(16)), None)
        with pytest.raises(GridTooCoarse):
            grid.lift(f)

    @staticmethod
    def _lift_by_roll(f):
        """The lift formula that divides by np.roll(samples, 1)."""
        s = f.samples
        inc = np.angle(s / np.roll(s, 1))
        values = np.angle(s[0]) + np.concatenate(([0.0], np.cumsum(inc[1:])))
        total = np.sum(inc[1:]) + inc[0]
        return values, int(round(total / TWO_PI))

    @pytest.mark.parametrize("d,seed", [(-2, 1), (0, 2), (1, 3), (3, 4)])
    def test_bits_of_the_roll_formula_on_smooth_maps(self, d, seed):
        f = gallery.random_map(d, np.random.default_rng(seed), m=1 << 12)
        values, winding = self._lift_by_roll(f)
        ph = grid.lift(f)
        assert ph.values.tobytes() == values.tobytes()
        assert ph.winding == winding == d

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_bits_of_the_roll_formula_on_bump_maps(self, eps):
        pair = gallery.bump_pair(eps)
        assert pair.f.m == 1 << 17
        for f in (pair.f, pair.g):
            values, winding = self._lift_by_roll(f)
            ph = grid.lift(f)
            assert ph.values.tobytes() == values.tobytes()
            assert ph.winding == winding

    def test_antipodal_wrap_is_rejected(self):
        # every step is pi/15 except the closing one, from -1 back to 1
        f = grid.CircleMap(np.exp(1j * PI * np.arange(16) / 15), None)
        with pytest.raises(GridTooCoarse):
            grid.lift(f)

    @given(st.integers(min_value=-4, max_value=4),
           st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_winding_invariant_to_rotation(self, d, c):
        f = grid.from_samples(np.exp(1j * (d * grid.nodes(512) + c)))
        assert grid.degree_winding(f) == d


class TestDegreeEstimators:
    @pytest.mark.parametrize("d", [-2, -1, 1, 3])
    def test_kronecker_matches_winding(self, d):
        f = grid.power_map(d)
        assert abs(grid.degree_kronecker_s1(f) - d) < 1e-10

    @pytest.mark.parametrize("d", [-2, 0, 1, 4])
    def test_fourier_degree(self, d):
        f = grid.power_map(d)
        assert abs(grid.degree_fourier(f) - d) < 1e-10

    def test_three_estimators_agree_on_wiggly_map(self):
        t = grid.nodes(4096)
        f = grid.from_samples(np.exp(1j * (2 * t + 0.7 * np.sin(5 * t))))
        assert grid.degree_winding(f) == 2
        assert abs(grid.degree_kronecker_s1(f) - 2) < 1e-8
        assert abs(grid.degree_fourier(f) - 2) < 1e-8

    def test_round_degree_warns_when_far_from_integer(self):
        with pytest.warns(RuntimeWarning):
            grid.round_degree(1.4)


class TestFourier:
    def test_mode_normalization(self):
        f = grid.power_map(3)
        series = grid.fourier(f)
        k = int(np.argmax(np.abs(series.coeffs)))
        assert series.n[k] == 3
        assert abs(series.coeffs[k] - 1.0) < 1e-12

    def test_spectral_derivative_exact_on_band_limited(self):
        t = grid.nodes(256)
        v = np.sin(7 * t) + 0.5 * np.cos(2 * t)
        dv = grid.spectral_derivative(v)
        assert np.allclose(dv, 7 * np.cos(7 * t) - np.sin(2 * t), atol=1e-10)


class TestMapAlgebra:
    def test_product_degrees_add(self):
        f = grid.product(grid.power_map(2), grid.power_map(-3))
        assert grid.degree_winding(f) == -1

    def test_conjugate_flips_degree(self):
        assert grid.degree_winding(grid.conjugate(grid.power_map(2))) == -2

    def test_power_composes(self):
        f = grid.power(grid.power_map(2), 3)
        assert grid.degree_winding(f) == 6

    def test_grid_mismatch_rejected(self):
        with pytest.raises(GridMismatch):
            grid.product(grid.power_map(1, 512), grid.power_map(1, 1024))

    def test_unit_modulus_enforced(self):
        with pytest.raises(ValueError):
            grid.CircleMap(1.5 * np.exp(1j * grid.nodes(64)), None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_samples_rejected(self, bad):
        s = np.exp(1j * grid.nodes(64))
        s[5] = bad
        with pytest.raises(ValueError, match="finite"):
            grid.CircleMap(s)

    def test_from_samples_rejects_zero_sample(self):
        s = 2.0 * np.exp(1j * grid.nodes(64))
        s[7] = 0.0
        with pytest.raises(ValueError, match="zero sample"):
            grid.from_samples(s)

    def test_patch_nonfinite_interpolates_over_abscissae(self):
        v = np.array([0.0, np.nan, 4.0, 6.0])
        assert np.array_equal(grid.patch_nonfinite(v), [0.0, 2.0, 4.0, 6.0])
        x = np.array([0.0, 3.0, 4.0, 5.0])
        assert np.array_equal(grid.patch_nonfinite(v, x), [0.0, 3.0, 4.0, 6.0])

    @given(st.integers(min_value=-3, max_value=3),
           st.integers(min_value=-3, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_product_degree_additivity_property(self, d1, d2):
        f = grid.product(grid.power_map(d1, 512), grid.power_map(d2, 512))
        assert grid.degree_winding(f) == d1 + d2


def _gallery_map(kind, d, seed, m=4096):
    """A smooth, kinked or concentrated gallery map of degree about |d|."""
    if kind == "power":
        return grid.power_map(d, m)
    if kind == "random":
        return gallery.random_map(d, np.random.default_rng(seed), m=m)
    if kind == "blaschke":
        return gallery.blaschke_pow(d, 0.1 + 0.1 * (seed % 5), m)
    if kind == "ramp":
        return gallery.ramp_map(d, m=m)
    return gallery.oscillator(d or 1, 3 + seed % 4, m)


gallery_maps = st.builds(_gallery_map,
                         st.sampled_from(("power", "random", "blaschke",
                                          "ramp", "oscillator")),
                         st.integers(min_value=-3, max_value=3),
                         st.integers(min_value=0, max_value=2 ** 16))


class TestDegreeAlgebraProperties:
    @given(gallery_maps, gallery_maps)
    @settings(max_examples=30)
    def test_degree_adds_under_product(self, f, g):
        assert (grid.degree_winding(grid.product(f, g))
                == grid.degree_winding(f) + grid.degree_winding(g))

    @given(gallery_maps)
    @settings(max_examples=30)
    def test_degree_flips_under_conjugate(self, f):
        assert (grid.degree_winding(grid.conjugate(f))
                == -grid.degree_winding(f))

    @given(gallery_maps, st.integers(min_value=-3, max_value=3))
    @settings(max_examples=30)
    def test_degree_scales_under_power(self, f, k):
        assert (grid.degree_winding(grid.power(f, k))
                == k * grid.degree_winding(f))

    @given(gallery_maps)
    @settings(max_examples=30)
    def test_three_estimators_agree(self, f):
        d = grid.degree_winding(f)
        assert abs(grid.degree_kronecker_s1(f) - d) < 1e-2
        assert abs(grid.degree_fourier(f) - d) < 1e-2


class TestPhaseOnGrid:
    def test_sampled_map_derivative_is_spectral(self):
        # phase' of a sampled map on its own grid, refined (zero-padded)
        # and coarsened (truncated), against the analytic one
        t = grid.nodes(1024)
        f = grid.from_samples(np.exp(1j * (t + 0.3 * np.sin(2 * t))))
        for m in (1024, 2048, 512):
            tm = grid.nodes(m)
            phi, dphi, d = grid.phase_on_grid(f, m)
            assert d == 1
            assert np.max(np.abs(dphi - (1 + 0.6 * np.cos(2 * tm)))) < 1e-12
            exact = np.exp(1j * (tm + 0.3 * np.sin(2 * tm)))
            assert np.max(np.abs(np.exp(1j * phi) - exact)) < 1e-12

    def test_rough_map_rejected(self):
        from spheremaps.errors import MissingDerivative
        t = grid.nodes(4096)
        rough = np.exp(1j * (t + 0.5 * np.sign(np.sin(9 * t))))
        with pytest.raises(MissingDerivative):
            grid.phase_on_grid(grid.from_samples(rough))

    def test_modes_give_the_series_and_its_derivative(self):
        t = grid.nodes(64)
        c3, c5 = 0.3 - 0.2j, 0.1j
        n = np.array([0, 3, -3, 5, -5])
        c = np.array([0.7, c3, np.conj(c3), c5, np.conj(c5)])
        phase, deriv = grid.phase_from_modes(n, c, 2, t)
        z3, z5 = c3 * np.exp(3j * t), c5 * np.exp(5j * t)
        assert np.allclose(phase, 2 * t + 0.7 + 2 * (z3 + z5).real,
                           rtol=0, atol=1e-14)
        assert np.allclose(deriv, 2 + 2 * (3j * z3 + 5j * z5).real,
                           rtol=0, atol=1e-13)

    def test_phase_model_is_evaluated(self):
        f = gallery.oscillator(1, 6)
        t = grid.nodes(512)
        phi, dphi, d = grid.phase_on_grid(f, 512)
        assert d == f.phase.winding == 1
        assert np.array_equal(phi, f.phase.value(t))
        assert np.array_equal(dphi, grid.patch_nonfinite(f.phase.deriv(t), t))
