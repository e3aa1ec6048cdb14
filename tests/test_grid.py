"""Grid primitives: lifting, degrees, Fourier analysis, map algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremaps import grid
from spheremaps.errors import GridMismatch, GridTooCoarse
from spheremaps.grid import TWO_PI


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

    def test_nyquist_mode_is_positive(self):
        n = grid.fourier_modes(16)
        assert n.max() == 8
        assert n.min() == -7

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HG_GRID_M", "1024")
        assert grid.default_m() == 1024


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


class TestPhaseModelFit:
    def test_smooth_map_fit_matches_derivative(self):
        t = grid.nodes(4096)
        f = grid.from_samples(np.exp(1j * (t + 0.3 * np.sin(2 * t))))
        pm = grid.phase_model_from_map(f)
        mid = t + np.pi / 4096
        assert np.allclose(pm.deriv(mid), 1 + 0.6 * np.cos(2 * mid),
                           atol=1e-6)

    def test_rough_map_rejected(self):
        from spheremaps.errors import MissingDerivative
        t = grid.nodes(4096)
        rough = np.exp(1j * (t + 0.5 * np.sign(np.sin(9 * t))))
        with pytest.raises(MissingDerivative):
            grid.phase_model_from_map(grid.from_samples(rough))
