"""Tests for maps of the two-sphere: degrees, energies, and pair fields."""

import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from spheremaps import experiments, gallery, sphere2
from spheremaps.errors import (GridMismatch, GridTooCoarse, Overcrowded,
                               ParameterError, PoleSingularity)

PI = np.pi
TWO_PI = 2.0 * np.pi


class TestGridGeometry:
    def test_row_areas_sum_to_sphere_area(self):
        f = sphere2.stereographic_power(1, n_phi=64)
        assert abs(np.sum(f.row_areas()) * f.n_lam / f.n_lam - 0.0) >= 0
        assert abs(np.sum(f.row_areas()) * f.n_lam - 4.0 * PI) < 1e-10

    def test_geometric_rows_resolve_small_scales(self):
        phi = sphere2.geometric_rows(1e-6, 200)
        assert phi[0] <= 1e-6 * 2.0
        assert np.all(np.diff(phi) > 0)
        assert phi[-1] < PI

    def test_unit_modulus_enforced(self):
        phi = sphere2.uniform_rows(8)
        values = np.zeros((8, 16, 3))
        values[..., 2] = 1.1
        with pytest.raises(ValueError):
            sphere2.Sphere2Map(phi, values)

    def test_row_builders_cap_the_row_count(self):
        assert sphere2.uniform_rows(sphere2.MAX_NPHI).size == 1024
        with pytest.raises(ParameterError):
            sphere2.uniform_rows(1025)
        with pytest.raises(ParameterError):
            sphere2.geometric_rows(1e-6, 1025)
        for n_phi in (0, -3):
            with pytest.raises(ParameterError, match="need 1 <= nphi <= 1024"):
                sphere2.uniform_rows(n_phi)

    def test_grid_mismatch_raises(self):
        f = sphere2.stereographic_power(1, n_phi=32)
        g = sphere2.stereographic_power(1, n_phi=64)
        with pytest.raises(GridMismatch):
            sphere2.h1_distance(f, g)


def _stereo_reference(d, n_phi):
    """T^{-1}((T(s))^d) through the projected point w = cot(phi/2)^|d|
    e^{i d lam}, on the default grid of n_phi rows."""
    phi = sphere2.uniform_rows(n_phi)[:, None]
    lam = TWO_PI * np.arange(2 * n_phi) / (2 * n_phi)
    w = np.tan(phi / 2.0) ** (-abs(d)) * np.exp(1j * d * lam)
    den = 1.0 + np.abs(w) ** 2
    v = np.stack([2.0 * w.real / den, 2.0 * w.imag / den,
                  (np.abs(w) ** 2 - 1.0) / den], axis=-1)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestStereographicPower:
    @pytest.mark.parametrize("d", [-2, -1, 1, 2, 3])
    def test_matches_projected_point_formula(self, d):
        f = sphere2.stereographic_power(d, n_phi=64)
        assert np.max(np.abs(f.values - _stereo_reference(d, 64))) < 1e-14

    @pytest.mark.parametrize("d", [1, 2, 3, -1, -2])
    def test_degree(self, d):
        f = sphere2.stereographic_power(d, n_phi=128)
        assert abs(sphere2.degree_kronecker_s2(f) - d) < 1e-3

    @pytest.mark.parametrize("d", [1, 2])
    def test_energy_matches_conformal_value(self, d):
        # Holomorphic representatives realize the energy lower bound 8*pi*|d|.
        f = sphere2.stereographic_power(d, n_phi=256)
        e = sphere2.dirichlet_energy(f)
        assert abs(e - 8.0 * PI * abs(d)) < 0.01 * 8.0 * PI * abs(d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_energy_lower_bound(self, d):
        f = sphere2.stereographic_power(d, n_phi=128)
        assert sphere2.dirichlet_energy(f) >= 8.0 * PI * abs(d) - 0.15


class TestSuspension:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("dh", [1, 2, 3])
    def test_degree_parity_rule(self, k, dh):
        # The suspension of a winding-dh circle map over a profile that
        # crosses the poles k times has degree dh when k is odd, 0 when even.
        f = sphere2.suspension(sphere2.default_suspension(k, dh), n_phi=192)
        expected = dh * (k % 2)
        assert abs(sphere2.degree_kronecker_s2(f) - expected) < 1e-2


RULE_BUILDERS = {
    "stereo": lambda w, n: sphere2.stereographic_power(w, n_phi=n),
    "suspension": lambda w, n: sphere2.suspension(
        sphere2.default_suspension(1, w), n_phi=n),
    "vo1": lambda w, n: sphere2.vo1_pair(w, 0, n_phi=n),
}


@pytest.mark.parametrize("name,n_phi", [
    ("stereo", 16), ("stereo", 64), ("stereo", 1024),
    ("suspension", 64), ("vo1", 64)])
def test_winding_needs_five_rows_per_turn(name, n_phi):
    build, w = RULE_BUILDERS[name], n_phi // 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build(w, n_phi)
        build(-w, n_phi)
    need = 5 * (w + 1)
    with pytest.raises(GridTooCoarse, match=(
            f"nphi >= {need}$" if need <= sphere2.MAX_NPHI
            else f"no grid under the cap of {sphere2.MAX_NPHI} rows")):
        build(w + 1, n_phi)


def test_largest_resolvable_winding_keeps_its_degree():
    # 5|w| rows under the row cap: |w| = 204 at 1020 rows
    f = sphere2.stereographic_power(204, n_phi=1020)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(sphere2.degree_kronecker_s2(f) - 204) < 0.01


def _identity(phi, n_lam):
    """The identity map (sin phi cos lam, sin phi sin lam, cos phi) on the
    rows phi, with its closed-form d/dphi and d/dlam, component-first."""
    lam = TWO_PI * np.arange(n_lam) / n_lam
    p, q = np.meshgrid(phi, lam, indexing="ij")
    values = np.stack([np.sin(p) * np.cos(q), np.sin(p) * np.sin(q),
                       np.cos(p)], axis=-1)
    d_phi = np.stack([np.cos(p) * np.cos(q), np.cos(p) * np.sin(q),
                      -np.sin(p)])
    d_lam = np.stack([-np.sin(p) * np.sin(q), np.sin(p) * np.cos(q),
                      np.zeros_like(p)])
    return sphere2.Sphere2Map(phi, values), d_phi, d_lam


class TestGradients:
    @pytest.mark.parametrize("n_phi", [16, 64, 256])
    def test_uniform_rows_are_spectrally_exact(self, n_phi):
        f, d_phi, d_lam = _identity(sphere2.uniform_rows(n_phi), 2 * n_phi)
        got_phi, got_lam = sphere2._gradients(f)
        assert np.max(np.abs(got_phi - d_phi)) < 1e-12
        assert np.max(np.abs(got_lam - d_lam)) < 1e-12

    @pytest.mark.parametrize("r_min,n_phi", [(1e-2, 128), (1e-3, 256),
                                             (1e-6, 512)])
    def test_geometric_rows_are_second_order(self, r_min, n_phi):
        # measured: the d/dphi error is 0.32-0.33 h^2 for the widest row
        # gap h on these grids (0.0029 at r_min 1e-3 and 256 rows)
        phi = sphere2.geometric_rows(r_min, n_phi)
        f, d_phi, d_lam = _identity(phi, 64)
        got_phi, got_lam = sphere2._gradients(f)
        h = np.max(np.diff(phi))
        assert np.max(np.abs(got_phi - d_phi)) < 0.35 * h ** 2
        assert np.max(np.abs(got_lam - d_lam)) < 1e-12

    def test_largest_degree_peaks_under_225_mb(self):
        # 1020 rows x 2040 longitudes: one field of vectors takes 50 MB, and
        # its build and degree pass peak at 216.7e6 bytes
        tracemalloc.start()
        try:
            sphere2.degree_kronecker_s2(
                sphere2.stereographic_power(204, n_phi=1020))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 225e6

    def test_h1_distance_streams_under_150_mb(self):
        # one component of f - g at a time: the full (n, L, 3) difference
        # and (3, n, L) gradient arrays would take 233 MB
        f = sphere2.stereographic_power(204, n_phi=1020)
        g = sphere2.antipode(f)
        tracemalloc.start()
        try:
            sphere2.h1_distance(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 150e6


class TestAntipodeAndBumps:
    def test_antipode_flips_degree(self):
        f = sphere2.stereographic_power(2, n_phi=128)
        g = sphere2.antipode(f)
        assert abs(sphere2.degree_kronecker_s2(g) + 2) < 1e-3

    @pytest.mark.parametrize("d,n,n_phi", [(1, 4, 256), (2, 8, 256),
                                           (-3, 8, 256), (4, 16, 512)])
    def test_multi_bump_degree_additivity(self, d, n, n_phi):
        f = sphere2.multi_bump_s2(d, n, n_phi=n_phi)
        assert abs(sphere2.degree_kronecker_s2(f) - d) < 1e-2

    def test_overcrowded_bumps_raise(self):
        # k discs of radius 1/n fit on the equator while k < pi n
        sphere2.multi_bump_s2(6, 2)
        for k in (7, 8):
            with pytest.raises(Overcrowded):
                sphere2.multi_bump_s2(k, 2)

    @pytest.mark.parametrize("n,n_phi", [(32, 256), (32, 512)])
    def test_radius_under_six_rows_raises(self, n, n_phi):
        with pytest.raises(GridTooCoarse):
            sphere2.multi_bump_s2(2, n, n_phi=n_phi)

    @pytest.mark.parametrize("d2,n_phi", [(1, 64), (7, 256), (-3, 199)])
    def test_band_insertion_keeps_the_bits(self, d2, n_phi):
        pair = sphere2.vo1_pair(2, d2, n_phi=n_phi)
        bare = sphere2.vo1_pair(2 - d2, 0, n_phi=n_phi)
        bumps = (abs(d2), sphere2.PROFILE_R / 6.0,
                 min(0.06, sphere2.PROFILE_R / 12.0), d2)
        for h, base in ((pair.f, bare.f), (pair.g, bare.g)):
            assert np.array_equal(h.values,
                                  _whole_sphere_bumps(base, *bumps).values)
        north = sphere2._polar(np.zeros_like, 0, n_phi=311)
        assert np.array_equal(
            sphere2.multi_bump_s2(3, 16, n_phi=311).values,
            _whole_sphere_bumps(north, 3, PI / 2.0, 1.0 / 16, 3).values)

    def test_seven_insertion_bumps_peak_under_190_mb(self):
        # 1000 rows: the pair takes 96 MB and peaks at 179.0e6 bytes; on
        # whole-sphere arrays per bump it peaked at 290e6
        tracemalloc.start()
        try:
            sphere2.vo1_pair(1, 7, n_phi=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 190e6


def _whole_sphere_bumps(sm, k, ring, radius, up_degree):
    """sphere2._with_bumps on whole-sphere arrays: the form whose bits the
    band of rows must keep."""
    points = sphere2._radial(sm.phi[:, None], np.exp(1j * sm.lam))
    values = sm.values.copy()
    dh = -int(np.sign(up_degree))
    for j in range(k):
        c, e1, e2 = sphere2._chart_basis(
            sphere2._radial(ring, np.exp(1j * TWO_PI * j / k)))
        r = np.arccos(np.clip(points @ c, -1.0, 1.0))
        mask = r < radius
        p = points[mask]
        alpha = np.arctan2(p @ e2, p @ e1)
        prof = PI * (1.0 - gallery.smoothstep(r[mask] / radius))
        values[mask] = sphere2._radial(prof, np.exp(1j * dh * alpha))
    return sphere2.Sphere2Map(sm.phi, values)


def _full_array_h1(f, g):
    """The H^1 distance of f and g from the (3, n_phi, n_lam) gradients of
    the whole difference field f - g, summed over components by einsum."""
    diff = SimpleNamespace(phi=f.phi, values=f.values - g.values,
                           n_phi=f.n_phi, n_lam=f.n_lam)
    d_phi, d_lam = sphere2._gradients(diff)
    s = np.sin(f.phi)[:, None]
    dens = np.einsum("cij,cij->ij", d_phi, d_phi) \
        + np.einsum("cij,cij->ij", d_lam, d_lam) / s ** 2
    return float(np.sqrt(np.sum(dens.sum(axis=1) * f.row_areas())))


def _stereo_and_antipode(d, n_phi):
    f = sphere2.stereographic_power(d, n_phi=n_phi)
    return SimpleNamespace(f=f, g=sphere2.antipode(f))


H1_PAIRS = {
    "vo1": lambda: sphere2.vo1_pair(3, 0, n_phi=128),
    "vo1-insertion": lambda: sphere2.vo1_pair(2, 1, n_phi=96),
    "stereo-antipode": lambda: _stereo_and_antipode(3, 64),
    "bump-geometric-rows": lambda: sphere2.bump_pair_s2(
        gallery.capacity_profiles(1e-2), n_phi=128),
}


class TestOnePassPerMap:
    @pytest.mark.parametrize("name", H1_PAIRS)
    def test_streamed_h1_equals_full_array_quadrature(self, name):
        pair = H1_PAIRS[name]()
        assert sphere2.h1_distance(pair.f, pair.g) == _full_array_h1(pair.f,
                                                                     pair.g)

    def test_degree_and_energy_share_one_gradient_pass(self, monkeypatch):
        calls, gradients = [], sphere2._gradients
        monkeypatch.setattr(sphere2, "_gradients",
                            lambda sm: calls.append(sm) or gradients(sm))
        f = sphere2.stereographic_power(2, n_phi=64)
        deg = sphere2.degree_kronecker_s2(f)
        en = sphere2.dirichlet_energy(f)
        assert (sphere2.degree_kronecker_s2(f), len(calls)) == (deg, 1)
        assert abs(deg - 2) < 1e-3 and abs(en - 16.0 * PI) < 0.01 * 16 * PI

    @pytest.mark.parametrize("name,n_phi", [("stereo", 200), ("bumps", 256)])
    def test_blocked_degree_integrand_keeps_the_bits(self, name, n_phi):
        f = {"stereo": lambda: sphere2.stereographic_power(3, n_phi=n_phi),
             "bumps": lambda: sphere2.multi_bump_s2(2, 8, n_phi=n_phi)}[name]()
        (px, py, pz), (lx, ly, lz) = sphere2._gradients(f)
        x, y, z = np.moveaxis(f.values, -1, 0)
        integrand = (x * (py * lz - pz * ly) + y * (pz * lx - px * lz)
                     + z * (px * ly - py * lx))
        degree = float(np.sum(integrand.sum(axis=1) * np.diff(f._row_edges()))
                       * (TWO_PI / f.n_lam) / (4.0 * PI))
        assert sphere2.degree_kronecker_s2(f) == degree

    def test_values_are_read_only(self):
        f = sphere2.stereographic_power(1, n_phi=32)
        with pytest.raises(ValueError, match="read-only"):
            f.values[0, 0] = (0.0, 0.0, 1.0)

    def test_pole_warning_fires_once_per_map(self):
        # (cos lam, sin lam, 0) on every row, from colatitude 1e-6, does
        # not settle at the poles: |d/dlam| / sin(phi) is 1e6 on row one
        phi = sphere2.geometric_rows(1e-6, 64)
        lam = TWO_PI * np.arange(64) / 64
        values = np.stack(np.broadcast_arrays(
            np.cos(lam), np.sin(lam), 0.0 * phi[:, None]), axis=-1)
        f = sphere2.Sphere2Map(phi, values)
        with pytest.warns(PoleSingularity) as caught:
            sphere2.degree_kronecker_s2(f)
            sphere2.dirichlet_energy(f)
        assert len(caught) == 1 and caught[0].filename == __file__
        with pytest.warns(PoleSingularity) as caught:
            sphere2.h1_distance(f, sphere2.antipode(f))
        assert len(caught) == 1 and caught[0].filename == __file__


class TestPairFields:
    def test_vo1_difference_field_independent_of_classes(self):
        # The pointwise field f - g of the class-(d1, d2) pair depends only
        # on the shared radial profiles, not on d1 - d2.
        a = sphere2.vo1_pair(3, 0, n_phi=128)
        b = sphere2.vo1_pair(7, 0, n_phi=128)
        diff_a = a.f.values - a.g.values
        diff_b = b.f.values - b.g.values
        assert np.max(np.abs(diff_a - diff_b)) < 1e-12

    def test_vo1_insertion_fits_seven_bumps(self):
        # the shared insertion bumps cancel in the difference field
        a = sphere2.vo1_pair(1, 7, n_phi=128)
        b = sphere2.vo1_pair(3, 0, n_phi=128)
        diff_a = a.f.values - a.g.values
        diff_b = b.f.values - b.g.values
        assert np.max(np.abs(diff_a - diff_b)) < 1e-12
        with pytest.raises(Overcrowded):
            sphere2.vo1_pair(1, 8, n_phi=128)

    def test_vo1_h1_distance_equal_across_classes(self):
        a = sphere2.vo1_pair(3, 0, n_phi=128)
        b = sphere2.vo1_pair(7, 0, n_phi=128)
        da = sphere2.h1_distance(a.f, a.g)
        db = sphere2.h1_distance(b.f, b.g)
        assert abs(da - db) < 1e-6

    def test_vo1_pair_degrees(self):
        pair = sphere2.vo1_pair(3, 0, n_phi=192)
        assert abs(sphere2.degree_kronecker_s2(pair.f) - 3) < 1e-2
        assert abs(sphere2.degree_kronecker_s2(pair.g) - 0) < 1e-2

    def test_bump_pair_degrees(self):
        prof = gallery.capacity_profiles(1e-2)
        pair = sphere2.bump_pair_s2(prof, n_phi=384)
        assert abs(sphere2.degree_kronecker_s2(pair.f) - 1) < 1e-2
        assert abs(sphere2.degree_kronecker_s2(pair.g) - 0) < 1e-2


class TestH1Rows:
    """Experiment rows carry sphere2.h1_distance as returned: a root."""

    def test_s2_vo1_rows_hold_the_distance(self):
        res = experiments.run_experiment("s2-vo1", d_list="3,7", n_phi=64)
        for row, d in zip(res.rows, (3, 7)):
            assert "h1_distance_sq" not in row
            pair = sphere2.vo1_pair(d, 0, n_phi=64)
            assert row["h1_distance"] == sphere2.h1_distance(pair.f, pair.g)

    def test_eps_bump_critical_on_s2_takes_no_extra_root(self):
        res = experiments.run_experiment("eps-bump-critical",
                                         eps="1e-2,1e-3", n_dim=2)
        for row in res.rows:
            pair = gallery.bump_pair(row["eps"], n_dim=2)
            assert row["value"] == sphere2.h1_distance(pair.f, pair.g)
        assert res.passed
