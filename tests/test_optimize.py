"""Tests for the phase-space distance optimizer: ansatz algebra, seeds,
closed-form targets, and small end-to-end searches."""

import numpy as np
import pytest

from spheremaps import gallery, grid, optimize, seminorms
from spheremaps.errors import GridTooCoarse
from spheremaps.grid import SobolevIndex

PI = np.pi
TWO_PI = 2.0 * np.pi


class TestFormulaAndPhases:
    @pytest.mark.parametrize("p,expected", [
        (1.0, 4.0),                       # 2^2 * pi^0
        (2.0, 2.0 ** 1.5 * PI ** -0.5),   # 2^(3/2) / sqrt(pi)
    ])
    def test_class_distance_formula_values(self, p, expected):
        assert abs(optimize.w1p_formula(p, 1, 0) - expected) < 1e-12
        assert abs(optimize.w1p_formula(p, 3, 1) - 2 * expected) < 1e-12

    def test_formula_depends_only_on_degree_gap(self):
        assert optimize.w1p_formula(1.5, 5, 2) == optimize.w1p_formula(1.5, 0, -3)

    def test_minimizing_pair_phase_windings(self):
        for d1, d2 in [(1, 0), (3, 1), (2, -1)]:
            pf, pg = optimize.minimizing_pair_phases(d1, d2, m=4096)
            f = grid.from_samples(np.exp(1j * pf))
            g = grid.from_samples(np.exp(1j * pg))
            assert grid.degree_winding(f) == d1
            assert grid.degree_winding(g) == d2

    def test_minimizing_pair_near_w11_optimum(self):
        # The explicit profile pair should sit within a few percent of the
        # closed-form class distance before any optimization.
        pf, pg = optimize.minimizing_pair_phases(1, 0, m=8192)
        dt = TWO_PI / 8192
        dfg = np.gradient(np.exp(1j * pf) - np.exp(1j * pg), dt, edge_order=2)
        val = np.sum(np.abs(dfg)) * dt
        assert val < 1.1 * optimize.w1p_formula(1, 1, 0)


class TestAnsatz:
    def test_projection_round_trip(self):
        ans = optimize.PhaseAnsatz(2, 8)
        t = grid.nodes(1024)
        rng = np.random.default_rng(0)
        x = np.zeros(ans.dim)
        x[0] = 0.3
        x[2:] = 0.1 * rng.standard_normal(ans.dim - 2)
        values = ans.phase(t, x)
        y = optimize._project_phase(values, 2, 8)
        assert np.allclose(ans.phase(t, y), values, atol=1e-10)

    def test_alpha_is_a_domain_rotation(self):
        ans = optimize.PhaseAnsatz(3, 6)
        t = grid.nodes(512)
        rng = np.random.default_rng(1)
        x = 0.2 * rng.standard_normal(ans.dim)
        alpha = x[1]
        x0 = x.copy()
        x0[1] = 0.0
        assert np.allclose(ans.phase(t, x), ans.phase(t - alpha, x0),
                           atol=1e-9)

    def test_deriv_matches_finite_differences(self):
        ans = optimize.PhaseAnsatz(1, 5)
        t = grid.nodes(4096)
        rng = np.random.default_rng(2)
        x = 0.3 * rng.standard_normal(ans.dim)
        num = np.gradient(ans.phase(t, x), TWO_PI / t.size, edge_order=2)
        # ignore the wrap rows where the lift jumps by 2*pi*winding
        inner = slice(4, -4)
        assert np.allclose(ans.deriv(t, x)[inner], num[inner], atol=1e-4)

    def test_to_map_has_right_winding(self):
        ans = optimize.PhaseAnsatz(-2, 4)
        f = ans.to_map(np.zeros(ans.dim), m=512)
        assert grid.degree_winding(f) == -2

    def test_pad_params_preserves_phase(self):
        small = optimize.PhaseAnsatz(1, 4)
        big = optimize.PhaseAnsatz(1, 16)
        rng = np.random.default_rng(3)
        x = 0.2 * rng.standard_normal(2 * small.dim)
        y = optimize._pad_params(x, 16)
        assert y.size == 2 * big.dim
        t = grid.nodes(256)
        assert np.allclose(small.phase(t, x[:small.dim]),
                           big.phase(t, y[:big.dim]), atol=1e-12)
        assert np.allclose(small.phase(t, x[small.dim:]),
                           big.phase(t, y[big.dim:]), atol=1e-12)


class TestSeedsAndSearch:
    def test_pair_seeds_start_near_target(self):
        idx = SobolevIndex(1.0, 1.0)
        seeds = optimize._pair_seeds(1, 0, idx, 32)
        obj = optimize._Objective(idx, optimize.PhaseAnsatz(0, 32),
                                  ans_f=optimize.PhaseAnsatz(1, 32),
                                  m_obj=4096)
        best = min(obj(np.concatenate(s)) for s in seeds)
        assert best < 1.10 * optimize.w1p_formula(1, 1, 0)

    def test_small_search_w11(self):
        f = gallery.build_map("power", d=1)
        rep = optimize.estimate_inf_distance(
            f, 0, SobolevIndex(1.0, 1.0), k=8, budget=300, restarts=0,
            m_obj=2048)
        assert rep.gap < 0.10  # tiny budget; acceptance run uses k=32, budget=2000
        assert rep.value >= rep.target - 1e-9
        assert len(rep.trace) > 0
        assert rep.restarts_used >= 1

    def test_one_sided_bounded_below_by_class_distance(self):
        f = gallery.build_map("power", d=1)
        rep = optimize.estimate_point_to_class(
            f, 0, SobolevIndex(1.0, 1.0), k=8, budget=300, restarts=0,
            m_obj=2048)
        assert rep.value >= optimize.w1p_formula(1, 1, 0) - 1e-6

    def test_gauge_aligned_l2_zero_on_identical_pairs(self):
        pf, pg = optimize.minimizing_pair_phases(1, 0, m=1024)
        f = grid.from_samples(np.exp(1j * pf))
        g = grid.from_samples(np.exp(1j * pg))
        assert optimize.gauge_aligned_l2(f, g, f, g) < 1e-12

    def test_gauge_aligned_l2_ignores_common_rotation(self):
        pf, pg = optimize.minimizing_pair_phases(1, 0, m=1024)
        f = grid.from_samples(np.exp(1j * pf))
        g = grid.from_samples(np.exp(1j * pg))
        rot = np.exp(1j * 0.7)
        f2 = grid.from_samples(f.samples * rot)
        g2 = grid.from_samples(g.samples * rot)
        assert optimize.gauge_aligned_l2(f2, g2, f, g) < 1e-10

    def test_attainment_probe_exact_at_p_one(self):
        probe = optimize.attainment_probe(1, 1.0, budget=200, k=8)
        assert abs(probe["value"] - probe["target"]) < 1e-5 * probe["target"]


def _direct_objective(index, x, ans_g, ans_f=None, f=None, m=1024):
    """Reference _Objective value from phase/deriv evaluated on the grid."""
    t = grid.nodes(m)
    if ans_f is None:
        pm = f.phase or grid.phase_model_from_map(f)
        fphi, fder, xg = pm.value(t), pm.deriv(t), x
    else:
        xf, xg = x[:ans_f.dim], x[ans_f.dim:]
        fphi, fder = ans_f.phase(t, xf), ans_f.deriv(t, xf)
    gphi, gder = ans_g.phase(t, xg), ans_g.deriv(t, xg)
    if index.s == 0.5:
        diff = np.exp(1j * fphi) - np.exp(1j * gphi)
        return np.sqrt(seminorms.h_half_seminorm_sq(diff))
    q = np.maximum(fder ** 2 + gder ** 2
                   - 2.0 * fder * gder * np.cos(fphi - gphi), 0.0)
    return (np.mean(q ** (0.5 * index.p)) * TWO_PI) ** (1.0 / index.p)


class TestGridSynthesis:
    @pytest.mark.parametrize("k", [4, 32, 128])
    @pytest.mark.parametrize("winding", [-2, -1, 0, 1, 2, 3])
    def test_sample_matches_phase_and_deriv(self, winding, k):
        ans = optimize.PhaseAnsatz(winding, k)
        rng = np.random.default_rng(100 * k + winding + 2)
        x = 0.3 * rng.standard_normal(ans.dim)
        m = 1024
        t = grid.nodes(m)
        phase, deriv = ans.sample(x, m)
        ref_phase, ref_deriv = ans.phase(t, x), ans.deriv(t, x)
        assert np.max(np.abs(phase - ref_phase)) <= 1e-12 * np.max(
            np.abs(ref_phase))
        assert np.max(np.abs(deriv - ref_deriv)) <= 1e-12 * np.max(
            np.abs(ref_deriv))

    def test_sample_includes_the_base(self):
        f = gallery.oscillator(1, 6)
        ans = optimize.PhaseAnsatz(0, 8, base=optimize._PeriodicPart(f, 1))
        x = 0.2 * np.random.default_rng(5).standard_normal(ans.dim)
        t = grid.nodes(512)
        phase, deriv = ans.sample(x, 512)
        assert np.allclose(phase, ans.phase(t, x), rtol=0, atol=1e-12)
        assert np.allclose(deriv, ans.deriv(t, x), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("k,m", [(8, 16), (16, 16), (128, 256)])
    def test_sample_rejects_aliased_grids(self, k, m):
        ans = optimize.PhaseAnsatz(1, k)
        with pytest.raises(GridTooCoarse):
            ans.sample(np.zeros(ans.dim), m)


class TestObjective:
    @staticmethod
    def _check(index, ans_g, ans_f=None, f=None, seed=0):
        obj = optimize._Objective(index, ans_g, ans_f=ans_f, f_fixed=f,
                                  m_obj=1024)
        dim = ans_g.dim + (0 if ans_f is None else ans_f.dim)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            x = 0.2 * rng.standard_normal(dim)
            ref = _direct_objective(index, x, ans_g, ans_f, f)
            assert abs(obj(x) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_two_sided_w1p_matches_direct_reference(self, p):
        self._check(SobolevIndex(1.0, p), optimize.PhaseAnsatz(0, 16),
                    ans_f=optimize.PhaseAnsatz(1, 16), seed=int(10 * p))

    def test_one_sided_with_periodic_base_matches_direct_reference(self):
        f = gallery.oscillator(1, 6)
        ans_g = optimize.PhaseAnsatz(0, 16, base=optimize._PeriodicPart(f, 1))
        self._check(SobolevIndex(1.0, 1.0), ans_g, f=f, seed=7)

    def test_h_half_matches_direct_reference(self):
        self._check(SobolevIndex(0.5, 2.0), optimize.PhaseAnsatz(1, 16),
                    ans_f=optimize.PhaseAnsatz(0, 16), seed=11)


class TestReportCounters:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        call = optimize._Objective.__call__

        def counting(obj, x):
            calls.append(1)
            return call(obj, x)

        monkeypatch.setattr(optimize._Objective, "__call__", counting)
        return calls

    def test_nfev_counts_every_objective_call(self, counted):
        f = gallery.build_map("power", d=1)
        rep = optimize.estimate_inf_distance(
            f, 0, SobolevIndex(1.0, 2.0), k=4, budget=40, restarts=0,
            m_obj=256)
        assert rep.nfev == len(counted)
        assert rep.nit >= len(rep.trace) > 0

    def test_one_sided_nfev_and_monotone_trace(self, counted):
        f = gallery.oscillator(1, 6)
        rep = optimize.estimate_point_to_class(
            f, 0, SobolevIndex(1.0, 1.0), k=4, budget=40, restarts=0,
            m_obj=256)
        assert rep.nfev == len(counted)
        assert np.all(np.diff(rep.trace) <= 0.0)
        assert rep.trace[-1] >= rep.value

    def test_trace_never_increases(self):
        f = gallery.build_map("power", d=0)
        rep = optimize.estimate_inf_distance(
            f, 1, SobolevIndex(0.5, 2.0), k=4, budget=40, restarts=0,
            m_obj=256)
        assert np.all(np.diff(rep.trace) <= 0.0)
